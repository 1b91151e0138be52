package sim

import (
	"strings"
	"testing"

	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// TestRunnerMatchesFreshRun proves the arena-reuse contract: one Runner
// driven across different configurations and workloads must reproduce the
// package-level Run (fresh state every call) bit for bit, in any order.
func TestRunnerMatchesFreshRun(t *testing.T) {
	tp := tech.Default()
	base := InitialConfig(tp)

	narrow := base
	narrow.Width, narrow.ROBSize, narrow.IQSize, narrow.LSQSize = 1, 32, 16, 16
	smallCache := base
	smallCache.L1D = timing.CacheGeom{Sets: 128, Assoc: 2, BlockBytes: 32}
	smallCache.L1DLat = 2

	points := []struct {
		cfg  Config
		name string
		n    int
	}{
		{base, "gzip", 12000},
		{narrow, "mcf", 8000},
		{smallCache, "crafty", 10000},
		{base, "gzip", 12000}, // revisit after shape changes
	}
	// Grow, shrink and regrow both cache levels, so later runs execute
	// over reused line capacity still holding another geometry's lines.
	for i, c := range geometrySweep(t, tp) {
		points = append(points, struct {
			cfg  Config
			name string
			n    int
		}{c, []string{"mcf", "gzip", "crafty"}[i%3], 8000})
	}

	var r Runner
	for i, pt := range points {
		prof, ok := workload.ByName(pt.name)
		if !ok {
			t.Fatalf("profile %s missing", pt.name)
		}
		fresh, err := Run(pt.cfg, prof, pt.n, tp)
		if err != nil {
			t.Fatalf("point %d fresh: %v", i, err)
		}
		reused, err := r.Run(pt.cfg, prof, pt.n, tp)
		if err != nil {
			t.Fatalf("point %d reused: %v", i, err)
		}
		if fresh.Result != reused.Result {
			t.Errorf("point %d (%s on %s): reused runner diverged:\n got  %#v\nwant %#v",
				i, pt.name, pt.cfg, reused.Result, fresh.Result)
		}
	}
}

// TestRunnerSteadyStateAllocs is the allocation-free kernel guard: once a
// Runner's arenas are warm and the instruction source is replayed in place,
// an evaluation must not allocate.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	tp := tech.Default()
	cfg := InitialConfig(tp)
	prof, _ := workload.ByName("gzip")
	const n = 5000

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)

	var r Runner
	// Warm the arenas, predictor and caches.
	if _, err := r.RunSource(cfg, tr, "gzip", n, tp); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		tr.Reset()
		if _, err := r.RunSource(cfg, tr, "gzip", n, tp); err != nil {
			t.Fatal(err)
		}
	})
	// ~0 with a little slack for runtime noise; the seed kernel sat at
	// ~21k allocations per run here.
	if avg > 2 {
		t.Errorf("steady-state evaluation allocates %.1f times per run, want ~0", avg)
	}
}

// geometrySweep returns the paper's initial configuration with its L1 and
// L2 moved through fitting geometries whose line arrays grow, shrink and
// grow again (lines per level: L1 1K→64K→512→16K→1K, L2
// 8K→128K→8K→256K→8K), the pattern that leaves stale lines inside reused
// capacity.
func geometrySweep(tb testing.TB, tp tech.Params) []Config {
	tb.Helper()
	base := InitialConfig(tp)
	steps := []struct{ l1, l2 timing.CacheGeom }{
		{timing.CacheGeom{Sets: 65536, Assoc: 1, BlockBytes: 8}, timing.CacheGeom{Sets: 131072, Assoc: 1, BlockBytes: 64}},
		{timing.CacheGeom{Sets: 256, Assoc: 2, BlockBytes: 256}, timing.CacheGeom{Sets: 4096, Assoc: 2, BlockBytes: 512}},
		{timing.CacheGeom{Sets: 4096, Assoc: 4, BlockBytes: 32}, timing.CacheGeom{Sets: 65536, Assoc: 4, BlockBytes: 32}},
		{base.L1D, base.L2},
	}
	cs := []Config{base}
	for i, st := range steps {
		c := base
		c.L1D, c.L2 = st.l1, st.l2
		if err := c.Validate(tp); err != nil {
			tb.Fatalf("sweep step %d invalid: %v", i, err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestRunnerGeometryCycleAllocs is the allocation guard for geometry
// changes: a Runner cycling over cache geometries it has already seen
// reconfigures its arrays in place and allocates nothing.
func TestRunnerGeometryCycleAllocs(t *testing.T) {
	tp := tech.Default()
	cs := geometrySweep(t, tp)
	prof, _ := workload.ByName("gzip")
	const n = 4000

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)

	var r Runner
	cycle := func() {
		for _, c := range cs {
			tr.Reset()
			if _, err := r.RunSource(c, tr, "gzip", n, tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // see every geometry once
	if avg := testing.AllocsPerRun(5, cycle); avg != 0 {
		t.Errorf("cycling over seen geometries allocates %.1f times per cycle, want 0", avg)
	}
}

// TestRunValidatesBeforeGeneratorSetup locks the fix for Run paying
// generator construction before config validation: a request that is
// invalid on both axes must report the configuration error, proving
// validation happens first.
func TestRunValidatesBeforeGeneratorSetup(t *testing.T) {
	tp := tech.Default()
	cfg := InitialConfig(tp)
	cfg.Width = 0 // invalid config
	var prof workload.Profile
	prof.Name = "broken" // zero fractions: invalid profile too

	_, err := Run(cfg, prof, 1000, tp)
	if err == nil {
		t.Fatal("Run accepted an invalid config")
	}
	if !strings.Contains(err.Error(), "sim:") {
		t.Errorf("error %q is not the config validation error; generator setup ran first", err)
	}
}

// BenchmarkRunnerSteadyState measures the reusable-kernel hot path the
// evaluation engine rides: warm arenas, trace replay, no per-run setup.
func BenchmarkRunnerSteadyState(b *testing.B) {
	tp := tech.Default()
	cfg := InitialConfig(tp)
	prof, _ := workload.ByName("gzip")
	const n = 20000

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)
	var r Runner
	if _, err := r.RunSource(cfg, tr, "gzip", n, tp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if _, err := r.RunSource(cfg, tr, "gzip", n, tp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/instr")
}

// BenchmarkRunnerGeometrySweep measures the reused Runner the way
// annealing drives it: every evaluation moves to another L1/L2 geometry.
// The cycle pairs every fitting candidate of each level at the paper's
// initial clock and latencies, so it includes the largest arrays, and each
// step runs a short 4k-instruction replay as Table 4's searches do. Once
// the cycle has been seen it should allocate nothing.
func BenchmarkRunnerGeometrySweep(b *testing.B) {
	tp := tech.Default()
	base := InitialConfig(tp)
	l1 := timing.CacheCandidates(timing.BudgetNs(base.ClockNs, base.L1DLat, tp), 1, tp)
	l2 := timing.CacheCandidates(timing.BudgetNs(base.ClockNs, base.L2Lat, tp), 2, tp)
	cs := make([]Config, max(len(l1), len(l2)))
	for i := range cs {
		c := base
		c.L1D, c.L2 = l1[i%len(l1)], l2[i%len(l2)]
		if err := c.Validate(tp); err != nil {
			b.Fatalf("sweep config %d: %v", i, err)
		}
		cs[i] = c
	}
	prof, _ := workload.ByName("gzip")
	const n = 4000

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)
	var r Runner
	for _, c := range cs {
		tr.Reset()
		if _, err := r.RunSource(c, tr, "gzip", n, tp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if _, err := r.RunSource(cs[i%len(cs)], tr, "gzip", n, tp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/instr")
}
