package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalremote"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/session"
)

// smokeParams is a pipeline small enough for the harness self-test.
var smokeParams = params{Iterations: 4, Chains: 1, ShortBudget: 2000, LongBudget: 2000, MatrixInstr: 3000}

// TestMain lets the test binary stand in for perfbench when the harness
// re-executes itself (the fill child and the set-up probe).
func TestMain(m *testing.M) {
	if code, ok := subcommand(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// fakeTier is a memory CacheBackend; the face* types below add exactly
// one optional read face each.
type fakeTier struct {
	m map[evalengine.Key]evalengine.Eval
}

func (f *fakeTier) Get(k evalengine.Key) (evalengine.Eval, bool) { v, ok := f.m[k]; return v, ok }
func (f *fakeTier) Put(k evalengine.Key, v evalengine.Eval)      { f.m[k] = v }
func (f *fakeTier) Flush() error                                 { return nil }
func (f *fakeTier) Close() error                                 { return nil }
func (f *fakeTier) Stats() evalengine.BackendStats               { return evalengine.BackendStats{} }

func (f *fakeTier) GetBatch(keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	out := map[evalengine.Key]evalengine.Eval{}
	for _, k := range keys {
		if v, ok := f.m[k]; ok {
			out[k] = v
		}
	}
	return out
}

func (f *fakeTier) GetCtx(_ context.Context, k evalengine.Key) (evalengine.Eval, bool) {
	return f.Get(k)
}

func (f *fakeTier) GetBatchCtx(_ context.Context, keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	return f.GetBatch(keys)
}

// plainTier has no optional face; batchOnly, ctxOnly and ctxBatchOnly
// each carry one, to be embedded beside it.
type (
	plainTier    struct{ f *fakeTier }
	batchOnly    struct{ f *fakeTier }
	ctxOnly      struct{ f *fakeTier }
	ctxBatchOnly struct{ f *fakeTier }
)

func (p plainTier) Get(k evalengine.Key) (evalengine.Eval, bool) { return p.f.Get(k) }
func (p plainTier) Put(k evalengine.Key, v evalengine.Eval)      { p.f.Put(k, v) }
func (p plainTier) Flush() error                                 { return nil }
func (p plainTier) Close() error                                 { return nil }
func (p plainTier) Stats() evalengine.BackendStats               { return evalengine.BackendStats{} }

func (o batchOnly) GetBatch(keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	return o.f.GetBatch(keys)
}

func (o ctxOnly) GetCtx(ctx context.Context, k evalengine.Key) (evalengine.Eval, bool) {
	return o.f.GetCtx(ctx, k)
}

func (o ctxBatchOnly) GetBatchCtx(ctx context.Context, keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	return o.f.GetBatchCtx(ctx, keys)
}

// faces reports which optional read faces be implements.
func faces(be evalengine.CacheBackend) [3]bool {
	_, b := be.(evalengine.BatchGetter)
	_, c := be.(evalengine.CtxGetter)
	_, cb := be.(evalengine.CtxBatchGetter)
	return [3]bool{b, c, cb}
}

func TestTimeTierForwardsExactlyTheInnerFaces(t *testing.T) {
	f := &fakeTier{m: map[evalengine.Key]evalengine.Eval{}}
	p, b, c, cb := plainTier{f}, batchOnly{f}, ctxOnly{f}, ctxBatchOnly{f}
	tiers := map[string]evalengine.CacheBackend{
		"none": p,
		"batch": struct {
			plainTier
			batchOnly
		}{p, b},
		"ctx": struct {
			plainTier
			ctxOnly
		}{p, c},
		"ctxbatch": struct {
			plainTier
			ctxBatchOnly
		}{p, cb},
		"batch+ctx": struct {
			plainTier
			batchOnly
			ctxOnly
		}{p, b, c},
		"batch+ctxbatch": struct {
			plainTier
			batchOnly
			ctxBatchOnly
		}{p, b, cb},
		"ctx+ctxbatch": struct {
			plainTier
			ctxOnly
			ctxBatchOnly
		}{p, c, cb},
		"all": f,
	}
	seen := map[[3]bool]bool{}
	for name, inner := range tiers {
		want := faces(inner)
		seen[want] = true
		if got := faces(timeTier(inner, &tierTimer{})); got != want {
			t.Errorf("%s: wrapper faces %v, inner faces %v", name, got, want)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("fixtures cover %d face combinations, want all 8", len(seen))
	}
}

// warmRun runs the smoke pipeline on a fresh session over be and returns
// its outputs and counters.
func warmRun(t *testing.T, be evalengine.CacheBackend) (pipelineRun, evalengine.Stats) {
	t.Helper()
	sess := session.New(session.Options{Engine: evalengine.Options{Backend: be}})
	r, err := runPipeline(context.Background(), sess, smokeParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	return r, st
}

// sameCounts compares the counters a wrapper must not change; the
// hit/dedup split depends on scheduling, so only their sum is compared.
func sameCounts(t *testing.T, what string, a, b evalengine.Stats) {
	t.Helper()
	if a.Requests != b.Requests || a.Misses != b.Misses || a.DiskHits != b.DiskHits ||
		a.Hits+a.Deduped != b.Hits+b.Deduped || a.LockstepLanes != b.LockstepLanes ||
		a.TraceInstr != b.TraceInstr || a.Disk.RemoteHits != b.Disk.RemoteHits {
		t.Errorf("%s: wrapped stats %+v, unwrapped %+v", what, a, b)
	}
}

func TestTimedTiersChangeNoCountOrOutput(t *testing.T) {
	dir := t.TempDir()
	if err := fill(context.Background(), filepath.Join(dir, "cache"), filepath.Join(dir, "out"), smokeParams, 1, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	open := func() evalengine.CacheBackend {
		st, err := evalstore.Open(filepath.Join(dir, "cache"))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	timer := &tierTimer{}
	plainRun, plainSt := warmRun(t, open())
	timedRun, timedSt := warmRun(t, timeTier(open(), timer))
	sameCounts(t, "disk", timedSt, plainSt)
	if !bytes.Equal(plainRun.output(), ref) || !bytes.Equal(timedRun.output(), ref) {
		t.Error("disk: warm outputs differ from the cold run's")
	}
	if plainSt.Misses != 0 || timer.snapshot().found == 0 {
		t.Errorf("disk: misses %d, timed hits %d; want a fully warm run seen by the wrapper", plainSt.Misses, timer.snapshot().found)
	}

	// The remote client has the context-aware faces; serve the filled
	// directory from an in-process peer.
	peer, err := startInProc(filepath.Join(dir, "cache"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.stop()
	client := func() evalengine.CacheBackend {
		c, err := evalremote.NewClient([]string{peer.url}, evalremote.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	timer = &tierTimer{}
	plainRun, plainSt = warmRun(t, client())
	timedRun, timedSt = warmRun(t, timeTier(client(), timer))
	sameCounts(t, "remote", timedSt, plainSt)
	if !bytes.Equal(plainRun.output(), ref) || !bytes.Equal(timedRun.output(), ref) {
		t.Error("remote: warm outputs differ from the cold run's")
	}
	if plainSt.Misses != 0 || timer.snapshot().found == 0 {
		t.Errorf("remote: misses %d, timed hits %d; want a fully warm run seen by the wrapper", plainSt.Misses, timer.snapshot().found)
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, through
// the same runners the benchmark uses: real fill children, a real
// xpserved built from this tree, real output checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds xpserved and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "xpserved"), "xpscalar/cmd/xpserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build xpserved: %v\n%s", err, out)
	}
	g, err := recordGolden(context.Background(), smokeParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := []string{"setup_s", "wall_s", "table4_s", "evals_per_s", "sim_minstr_per_s",
		"job_p50_s", "job_p90_s", "jobs_per_s", "alloc_mb", "peak_rss_mb", "ok_ratio"}
	for _, name := range []string{"explore-cold", "fleet-warm", "serve-mixed"} {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 1, seconds: time.Second, trace: traced, p: smokeParams, serve: smokeParams,
				golden: g.Seeds, bin: bin, tmp: t.TempDir()}
			rep, err := workloads[name](context.Background(), e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if len(rep.mismatches) > 0 || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: mismatches %v, %d of %d failed", name, traced, rep.mismatches, rep.failed, rep.attempted)
			}
			want := endToEnd
			if traced {
				want = nil
				for m := range layerUnits {
					want = append(want, m)
				}
			}
			for _, m := range want {
				v, ok := rep.metrics[m]
				if !ok || (!traced && v.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", name, traced, m, v, ok)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(rep.metrics), len(want))
			}
		}
	}
}
