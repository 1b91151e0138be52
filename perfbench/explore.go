package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalremote"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/session"
	"xpscalar/internal/tracing"
)

// tier selects the cache tier behind an explore workload's session.
type tier int

const (
	tierNone   tier = iota // explore-cold: memory only, every point simulated
	tierRemote             // fleet-warm: an xpserved peer whose disk was filled in set-up
)

// coldSetupReps is how often explore-cold's set-up is repeated: starting a
// process that builds a fresh memory-only session, which is all a cold
// user pays before the first request. Each takes a few milliseconds, most
// of them process start, so many are cheap and steady the median.
const coldSetupReps = 25

// warmSetupReps is how often fleet-warm's set-up (filling a cache in a
// child process and starting xpserved on it) is repeated.
const warmSetupReps = 3

// fill runs the cold pipeline on a session whose disk tier is dir and
// writes the outputs to out and the deterministic counts to out+".counts".
// A non-nil timer times the disk tier, its final flush included.
func fill(ctx context.Context, dir, out string, p params, seed int64, timer *tierTimer) error {
	st, err := evalstore.Open(dir)
	if err != nil {
		return err
	}
	var be evalengine.CacheBackend = st
	if timer != nil {
		be = timeTier(st, timer)
	}
	sess := session.New(session.Options{Engine: evalengine.Options{Backend: be}})
	var ic instrCounter
	sess.SetEvalObserver(&ic)
	r, err := runPipeline(ctx, sess, p, seed)
	if err == nil {
		err = sess.Flush()
	}
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s := sess.Stats()
	counts, err := json.Marshal(golden{ExploreSeed: seed, Digest: r.digest(), Requests: s.Requests, Misses: s.Misses,
		LockstepLanes: s.LockstepLanes, TraceInstr: s.TraceInstr, Evaluations: r.evals,
		Instr: ic.requested.Load(), SimInstr: ic.simulated.Load()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(out+".counts", counts, 0o666); err != nil {
		return err
	}
	return os.WriteFile(out, r.output(), 0o666)
}

// warmSetup is one filled cache: its directory, the cold outputs that
// filled it, and the xpserved peer serving it (nil in a traced run, whose
// iterations serve it from in-process peers). A traced run fills the
// cache in this process through a timed disk tier, which gives the disk
// writes' layer metrics.
type warmSetup struct {
	dir  string
	ref  []byte
	srv  *server
	fill tierStats
}

// setUp fills a fresh cache directory, checking the fill against the
// seed's reference, and unless e.trace starts xpserved on it. Untraced,
// the fill runs in a child process, as a user filling a cache would run
// it, which keeps its memory and GC out of the measuring process.
func setUp(ctx context.Context, e *env, rep int) (*warmSetup, error) {
	w := &warmSetup{dir: filepath.Join(e.tmp, fmt.Sprintf("cache-%d", rep))}
	out := filepath.Join(e.tmp, fmt.Sprintf("fill-%d.out", rep))
	var err error
	if e.trace {
		timer := &tierTimer{}
		err = fill(ctx, w.dir, out, e.p, e.slot(0).ExploreSeed, timer)
		w.fill = timer.snapshot()
	} else {
		err = fillCache(ctx, e, w.dir, out)
	}
	if err != nil {
		return nil, err
	}
	if w.ref, err = os.ReadFile(out); err != nil {
		return nil, err
	}
	var got golden
	b, err := os.ReadFile(out + ".counts")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &got); err != nil {
		return nil, err
	}
	if want := e.slot(0); got != want {
		return nil, fmt.Errorf("fill run: counts and digest %+v, recorded %+v", got, want)
	}
	if !e.trace {
		if w.srv, err = startServer(ctx, filepath.Join(e.bin, "xpserved"), w.dir, e.tmp); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// tearDown stops the peer, if any, and deletes the cache.
func (w *warmSetup) tearDown() {
	if w.srv != nil {
		w.srv.stop(10 * time.Second)
	}
	os.RemoveAll(w.dir)
}

// iteration is one timed pipeline run of an explore workload.
type iteration struct {
	ref   golden // the seed slot it ran
	run   pipelineRun
	stats evalengine.Stats
	instr *instrCounter // instruction budgets requested and simulated
	wall  time.Duration // session construction + pipeline + close
	alloc uint64        // heap bytes allocated during wall
	rss   float64       // peak resident MB during wall
	// Traced iterations only: the timed remote tier, and the in-process
	// peer's timed disk tier.
	spans     []tracing.Span
	timer     *tierTimer
	disk      *tierTimer
	diskStats evalengine.BackendStats
	gcs       uint32
	gcPause   time.Duration
}

// runOnce builds a fresh session over the workload's tier and runs the
// pipeline once, counting instruction budgets through an EvalObserver.
// With traced set, the session also records spans and its tier is timed.
//
// A traced run's fleet-warm iterations read from a peer built in this
// process — cmd/xpserved's composition over the same directory, fresh per
// iteration — so the peer's disk tier can be timed too; xpserved reads
// disk hits without promoting them into its memory tier, so a peer's
// memory tier stays empty either way.
func runOnce(ctx context.Context, e *env, kind tier, w *warmSetup, ref golden, traced bool) (iteration, error) {
	it := iteration{ref: ref, instr: &instrCounter{}}
	var rec *tracing.Recorder
	if traced {
		rec = tracing.NewRecorder()
		it.timer, it.disk = &tierTimer{}, &tierTimer{}
	}
	var peer *inProcServer
	var peerURL string
	switch {
	case kind == tierRemote && e.trace:
		var err error
		if peer, err = startInProc(w.dir, nil, it.disk); err != nil {
			return it, err
		}
		defer peer.stop()
		peerURL = peer.url
	case kind == tierRemote:
		peerURL = w.srv.url
	}
	// Every iteration starts from the same heap, with freed memory
	// returned to the OS so its resident-set peak is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	gc0, pause0 := gcSnapshot()
	a0 := heapAllocBytes()
	start := time.Now()

	var be evalengine.CacheBackend
	if kind == tierRemote {
		c, err := evalremote.NewClient([]string{peerURL}, evalremote.Options{})
		if err != nil {
			return it, err
		}
		be = c
	}
	if be != nil && traced {
		be = timeTier(be, it.timer)
	}
	sess := session.New(session.Options{Engine: evalengine.Options{Backend: be}, Recorder: rec})
	sess.SetEvalObserver(it.instr)
	r, err := runPipeline(ctx, sess, e.p, ref.ExploreSeed)
	it.stats = sess.Stats()
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	it.wall = time.Since(start)
	it.alloc = heapAllocBytes() - a0
	it.rss = selfPeakRSSMB()
	if peer != nil {
		it.diskStats = peer.sess.Stats().Disk
	}
	if err != nil {
		return it, err
	}
	it.run = r
	if traced {
		gc1, pause1 := gcSnapshot()
		it.gcs, it.gcPause = gc1-gc0, pause1-pause0
		it.spans = rec.Spans()
	}
	return it, nil
}

// check applies the workload's output and count checks to one iteration
// and returns the operations that failed: for fleet-warm, every
// evaluation that fell through to a local simulation, which is what a
// fail-open remote lookup becomes.
func check(rep *report, kind tier, w *warmSetup, it iteration) int64 {
	var err error
	var failed int64
	switch kind {
	case tierNone:
		err = checkCold(it.run, it.stats, it.instr, it.ref)
	default:
		err = checkWarm(it.run, it.stats, it.instr, w.ref, it.ref)
		failed = int64(it.stats.Misses)
		if it.stats.Misses != 0 {
			rep.mismatch("warm run simulated %d points locally", it.stats.Misses)
		}
		if it.stats.Disk.RemoteHits != it.ref.Misses {
			rep.mismatch("remote hits %d, want one per distinct point (%d)", it.stats.Disk.RemoteHits, it.ref.Misses)
		}
	}
	if err != nil {
		rep.mismatch("%v", err)
	}
	return failed
}

// runExplore runs one explore workload: set-up, then pipeline iterations
// on fresh sessions until the measured time is used up.
func runExplore(ctx context.Context, e *env, kind tier) (*report, error) {
	rep := &report{}
	var setups []float64
	var w *warmSetup
	defer func() {
		if w != nil {
			w.tearDown()
		}
	}()
	if kind == tierNone {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		for i := 0; i < coldSetupReps; i++ {
			start := time.Now()
			c, err := startChild(self, []string{"session"}, filepath.Join(e.tmp, "session.log"))
			if err != nil {
				return nil, err
			}
			if err := c.wait(ctx); err != nil {
				return nil, fmt.Errorf("session probe: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
	} else {
		reps := warmSetupReps
		if e.trace {
			reps = 1 // a traced run reports no set-up time
		}
		for i := 0; i < reps; i++ {
			if w != nil {
				w.tearDown()
				w = nil
			}
			start := time.Now()
			var err error
			if w, err = setUp(ctx, e, i); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
	}

	// explore-cold runs whole rotations through every seed slot, starting
	// at the run's own, so each run measures the same set of inputs in a
	// seed-dependent order; its cost varies with the search's trajectory,
	// and a single slot would make that variation look like noise.
	// fleet-warm's cost depends only on the request count, which is
	// near-identical across slots, so it stays on the run's slot (the one
	// its cache was filled for). A traced run measures pairs, untraced
	// then traced, on one slot, so the overhead ratio compares neighbours
	// with equal work under the same host load.
	var untraced, traced []iteration
	k := len(e.golden)
	begin := time.Now()
	more := func(i int) bool {
		elapsed := time.Since(begin)
		switch {
		case e.trace:
			return i%2 == 1 || elapsed < e.seconds || len(traced) < 2
		case kind == tierNone:
			// Start another rotation only if it fits the measured time.
			return i%k != 0 || i == 0 || elapsed+elapsed/time.Duration(i/k) <= e.seconds
		default:
			return elapsed < e.seconds || len(untraced) < 3
		}
	}
	for i := 0; more(i); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ref, doTrace := e.slot(0), false
		switch {
		case e.trace:
			doTrace = i%2 == 1
			if kind == tierNone {
				ref = e.slot(i / 2)
			}
		case kind == tierNone:
			ref = e.slot(i)
		}
		it, err := runOnce(ctx, e, kind, w, ref, doTrace)
		if err != nil {
			return nil, err
		}
		rep.attempted += int64(it.stats.Requests)
		rep.failed += check(rep, kind, w, it)
		if doTrace {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	if e.trace {
		var writes tierStats
		if w != nil {
			writes = w.fill
		}
		exploreLayers(rep, kind, untraced, traced, writes)
		return rep, nil
	}

	var walls, t4, jobs, evals, instr, allocs, rss []float64
	var total time.Duration
	for _, it := range untraced {
		s := it.wall.Seconds()
		walls = append(walls, s)
		t4 = append(t4, it.run.table4.Seconds())
		jobs = append(jobs, (it.run.table4 + it.run.table5).Seconds())
		evals = append(evals, float64(it.stats.Requests)/s)
		instr = append(instr, float64(simInstr(kind, it.instr))/1e6/s)
		allocs = append(allocs, float64(it.alloc)/(1<<20))
		rss = append(rss, it.rss)
		total += it.wall
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("wall_s", median(walls), "s")
	rep.set("table4_s", median(t4), "s")
	rep.set("job_p50_s", median(jobs), "s")
	rep.set("job_p90_s", quantile(jobs, 0.9), "s")
	rep.set("jobs_per_s", float64(len(untraced))/total.Seconds(), "1/s")
	rep.set("evals_per_s", median(evals), "1/s")
	rep.set("sim_minstr_per_s", median(instr), "Minstr/s")
	rep.set("alloc_mb", median(allocs), "MB")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("ok_ratio", okRatio(rep), "ratio")
	return rep, nil
}

// simInstr is the instruction count sim_minstr_per_s reports: the budgets
// of the requests that ran a simulation, except on fleet-warm, which runs
// none and reports the budgets it was served from the peer instead, the
// simulation work it delivers (a metric must never read 0).
func simInstr(kind tier, ic *instrCounter) uint64 {
	if kind == tierRemote {
		return ic.requested.Load()
	}
	return ic.simulated.Load()
}

// okRatio is the share of attempted operations that succeeded.
func okRatio(rep *report) float64 {
	if rep.attempted == 0 {
		return 0
	}
	return 1 - float64(rep.failed)/float64(rep.attempted)
}
