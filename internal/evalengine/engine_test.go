package evalengine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// testProfile is a small, valid synthetic workload.
func testProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name:            "unit",
		LoadFrac:        0.30,
		StoreFrac:       0.10,
		BranchFrac:      0.15,
		MulFrac:         0.02,
		DivFrac:         0.01,
		WorkingSetBytes: 1 << 16,
		HotSetBytes:     1 << 12,
		HotFrac:         0.7,
		SeqFrac:         0.4,
		StrideBytes:     8,
		BranchSites:     32,
		LoopFrac:        0.5,
		LoopTrip:        8,
		TakenBias:       0.7,
		RandomEntropy:   0.2,
		DepDensity:      0.5,
		DepDistMean:     6,
		Seed:            seed,
	}
}

// TestEvaluateMatchesFreshRun: a memoized evaluation must be bit-identical
// to a fresh sim.Run of the same point — memoization is only sound because
// the simulator is a pure function of the request.
func TestEvaluateMatchesFreshRun(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(3)
	want, err := sim.Run(cfg, p, 5000, tp)
	if err != nil {
		t.Fatal(err)
	}

	eng := New(Options{})
	for round := 0; round < 2; round++ {
		ev, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ev.Result, want) {
			t.Fatalf("round %d: engine result differs from fresh sim.Run:\n got %+v\nwant %+v", round, ev.Result, want)
		}
		if ev.Score != want.IPT() {
			t.Fatalf("round %d: score %v, want IPT %v", round, ev.Score, want.IPT())
		}
	}
	s := eng.Stats()
	if s.Requests != 2 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats after repeat evaluation: %+v", s)
	}
	if s.Saved() != 1 {
		t.Fatalf("Saved() = %d, want 1", s.Saved())
	}
}

// TestSingleflightDedup: concurrent requests for one design point must run
// exactly one simulation; the rest are served as hits or in-flight joins.
// Run under -race to exercise the locking.
func TestSingleflightDedup(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(11)
	eng := New(Options{})

	const n = 8
	evals := make([]Eval, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			evals[i], errs[i] = eng.Evaluate(context.Background(), cfg, p, 20000, tp, power.ObjIPT)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(evals[i], evals[0]) {
			t.Fatalf("goroutine %d saw a different result", i)
		}
	}
	s := eng.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 simulation for %d concurrent requests (%+v)", s.Misses, n, s)
	}
	if s.Hits+s.Deduped != n-1 {
		t.Fatalf("hits+deduped = %d, want %d (%+v)", s.Hits+s.Deduped, n-1, s)
	}
}

// TestLRUEviction: the memo cache must respect its entry bound, evict
// least-recently-used points, and re-simulate evicted points on demand.
func TestLRUEviction(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(5)
	eng := New(Options{CacheEntries: 4, Shards: 1})

	// 10 distinct points (distinct budgets → distinct fingerprints).
	for n := 1000; n < 1010; n++ {
		if _, err := eng.Evaluate(context.Background(), cfg, p, n, tp, power.ObjIPT); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.Misses != 10 || s.Hits != 0 {
		t.Fatalf("distinct points should all miss: %+v", s)
	}
	if s.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6 (10 inserts, capacity 4)", s.Evictions)
	}
	if got := eng.shards[0].order.Len(); got != 4 {
		t.Fatalf("cache holds %d entries, capacity 4", got)
	}

	// The most recent point is still cached; the first was evicted.
	if _, err := eng.Evaluate(context.Background(), cfg, p, 1009, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if s = eng.Stats(); s.Hits != 1 {
		t.Fatalf("most recent point should hit: %+v", s)
	}
	if _, err := eng.Evaluate(context.Background(), cfg, p, 1000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if s = eng.Stats(); s.Misses != 11 {
		t.Fatalf("evicted point should re-simulate: %+v", s)
	}
}

// TestFingerprintDistinguishesFields: every field of the request tuple
// must affect the byte preimage, and so the key. This guards against
// encoding regressions — notably, sim.Config's String() rounds the clock
// period to two decimals, so a Stringer-based encoding would collide
// distinct configurations.
func TestFingerprintDistinguishesFields(t *testing.T) {
	tp := tech.Default()
	base := sim.InitialConfig(tp)
	p := testProfile(1)

	mutations := map[string]func(*sim.Config){
		"ClockNs":        func(c *sim.Config) { c.ClockNs += 1e-9 }, // sub-rounding change
		"Width":          func(c *sim.Config) { c.Width++ },
		"FrontEndStages": func(c *sim.Config) { c.FrontEndStages++ },
		"ROBSize":        func(c *sim.Config) { c.ROBSize++ },
		"IQSize":         func(c *sim.Config) { c.IQSize++ },
		"LSQSize":        func(c *sim.Config) { c.LSQSize++ },
		"SchedDepth":     func(c *sim.Config) { c.SchedDepth++ },
		"LSQDepth":       func(c *sim.Config) { c.LSQDepth++ },
		"WakeupMinLat":   func(c *sim.Config) { c.WakeupMinLat++ },
		"L1D.Sets":       func(c *sim.Config) { c.L1D.Sets *= 2 },
		"L1D.Assoc":      func(c *sim.Config) { c.L1D.Assoc *= 2 },
		"L1D.BlockBytes": func(c *sim.Config) { c.L1D.BlockBytes *= 2 },
		"L1DLat":         func(c *sim.Config) { c.L1DLat++ },
		"L2.Sets":        func(c *sim.Config) { c.L2.Sets *= 2 },
		"L2.Assoc":       func(c *sim.Config) { c.L2.Assoc *= 2 },
		"L2.BlockBytes":  func(c *sim.Config) { c.L2.BlockBytes *= 2 },
		"L2Lat":          func(c *sim.Config) { c.L2Lat++ },
		"MemCycles":      func(c *sim.Config) { c.MemCycles++ },
		"Bpred.Kind":     func(c *sim.Config) { c.Bpred.Kind++ },
		"Bpred.Table":    func(c *sim.Config) { c.Bpred.TableBits++ },
		"Bpred.Hist":     func(c *sim.Config) { c.Bpred.HistBits++ },
	}

	ref := string(Fingerprint(base, p, 5000, tp, power.ObjIPT))
	refKey := KeyOf(base, p, 5000, tp, power.ObjIPT)
	seen := map[string]string{ref: "<base>"}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		fp := string(Fingerprint(cfg, p, 5000, tp, power.ObjIPT))
		if fp == ref {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
		if KeyOf(cfg, p, 5000, tp, power.ObjIPT) == refKey {
			t.Errorf("mutating %s did not change the key", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutations %s and %s collide", name, prev)
		}
		seen[fp] = name
	}

	// Non-config components of the tuple.
	p2 := p
	p2.Seed++
	p3 := p
	p3.Name = "other"
	t2 := tp
	t2.MemoryLatencyNs++
	others := map[string]Key{
		"budget":       KeyOf(base, p, 5001, tp, power.ObjIPT),
		"profile seed": KeyOf(base, p2, 5000, tp, power.ObjIPT),
		"profile name": KeyOf(base, p3, 5000, tp, power.ObjIPT),
		"technology":   KeyOf(base, p, 5000, t2, power.ObjIPT),
		"objective":    KeyOf(base, p, 5000, tp, power.ObjIPTPerWatt),
	}
	for name, k := range others {
		if k == refKey {
			t.Errorf("%s does not change the key", name)
		}
	}
}

// TestClockRoundingNoCollision reproduces the Stringer pitfall end to end:
// two configurations whose clock periods round to the same two decimals
// must be cached as distinct points.
func TestClockRoundingNoCollision(t *testing.T) {
	tp := tech.Default()
	a := sim.InitialConfig(tp) // 0.33ns
	b := a
	b.ClockNs = 0.333 // also prints as "0.33" under %.2f
	if a.String() != b.String() {
		t.Skip("configs no longer share a String rendering; pitfall not reproducible")
	}
	eng := New(Options{})
	ra, err := eng.Evaluate(context.Background(), a, testProfile(9), 4000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := eng.Evaluate(context.Background(), b, testProfile(9), 4000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("distinct clocks must be distinct cache points: %+v", s)
	}
	if ra.Result.Cycles == rb.Result.Cycles && ra.Result.Config.ClockNs == rb.Result.Config.ClockNs {
		t.Fatal("results were conflated across distinct clock periods")
	}
}

// TestErrorsAreMemoized: an invalid configuration fails identically from
// cache and from a fresh evaluation.
func TestErrorsAreMemoized(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	cfg.Width = 0 // invalid
	eng := New(Options{})
	_, err1 := eng.Evaluate(context.Background(), cfg, testProfile(2), 4000, tp, power.ObjIPT)
	_, err2 := eng.Evaluate(context.Background(), cfg, testProfile(2), 4000, tp, power.ObjIPT)
	if err1 == nil || err2 == nil {
		t.Fatal("invalid config must fail")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("cached error differs: %v vs %v", err1, err2)
	}
	if s := eng.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("error entries must be memoized: %+v", s)
	}
}

// TestEvaluateObjectiveScore: the engine must return the same score the
// power package computes for the result.
func TestEvaluateObjectiveScore(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(17)
	eng := New(Options{})
	ev, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjInverseEDP)
	if err != nil {
		t.Fatal(err)
	}
	want, err := power.Score(ev.Result, power.ObjInverseEDP, tp)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Score != want {
		t.Fatalf("score %v, want %v", ev.Score, want)
	}
}

// TestConcurrentMixedPoints hammers the sharded cache with a mix of
// repeated and distinct points from many goroutines; run under -race.
func TestConcurrentMixedPoints(t *testing.T) {
	tp := tech.Default()
	p := testProfile(23)
	eng := New(Options{CacheEntries: 8, Shards: 2})

	cfgs := make([]sim.Config, 6)
	for i := range cfgs {
		cfgs[i] = sim.InitialConfig(tp)
		cfgs[i].L1D = timing.CacheGeom{Sets: 512 >> i, Assoc: 2, BlockBytes: 32}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				cfg := cfgs[(g+i)%len(cfgs)]
				if _, err := eng.Evaluate(context.Background(), cfg, p, 2000+(i%3)*500, tp, power.ObjIPT); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := eng.Stats()
	if s.Requests != 96 {
		t.Fatalf("requests = %d, want 96", s.Requests)
	}
	if s.Hits+s.Deduped+s.Misses != s.Requests {
		t.Fatalf("counters do not add up: %+v", s)
	}
}
