package sim

import (
	"strings"
	"testing"

	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// neighborhood returns k valid configurations shaped like an annealing
// neighborhood around the paper's initial point: the base plus one-knob
// moves, the exact grouping the lockstep kernel exists to amortize.
func neighborhood(tb testing.TB, tp tech.Params, k int) []Config {
	tb.Helper()
	base := InitialConfig(tp)
	cs := make([]Config, k)
	for i := range cs {
		c := base
		switch i % 8 {
		case 1:
			c.ROBSize = 64
		case 2:
			c.IQSize = 32
		case 3:
			c.LSQSize = 32
		case 4:
			c.WakeupMinLat = 2
		case 5:
			c.FrontEndStages = 8
		case 6:
			c.L1DLat = 5
		case 7:
			c.L2Lat = 14
		}
		if err := c.Validate(tp); err != nil {
			tb.Fatalf("neighbor %d invalid: %v", i, err)
		}
		cs[i] = c
	}
	return cs
}

// TestMultiRunnerMatchesScalar is the lockstep contract at the sim layer:
// each lane of a group must reproduce a scalar Runner evaluation of the
// same configuration over the same stream, bit for bit, including across
// MultiRunner reuse and cache-geometry changes.
func TestMultiRunnerMatchesScalar(t *testing.T) {
	tp := tech.Default()
	prof, _ := workload.ByName("gzip")
	const n = 12000

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)

	// Every lane walks the geometry sweep, offset by its index, so lanes
	// grow, shrink and regrow their caches from round to round.
	sweep := geometrySweep(t, tp)
	var mr MultiRunner
	for round, k := range []int{8, 2, 8, 8, 8} {
		cs := neighborhood(t, tp, k)
		for i := range cs {
			g := sweep[(round+i)%len(sweep)]
			cs[i].L1D, cs[i].L2 = g.L1D, g.L2
		}
		dst := make([]Result, k)
		tr.Reset()
		if err := mr.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range cs {
			tr.Reset()
			want, err := RunSource(cs[i], tr, "gzip", n, tp)
			if err != nil {
				t.Fatalf("round %d lane %d scalar: %v", round, i, err)
			}
			if dst[i].Result != want.Result {
				t.Errorf("round %d lane %d: lockstep %+v != scalar %+v",
					round, i, dst[i].Result, want.Result)
			}
			if dst[i].Config != cs[i] || dst[i].Workload != "gzip" {
				t.Errorf("round %d lane %d: result labeled %v/%q",
					round, i, dst[i].Config, dst[i].Workload)
			}
		}
	}
}

// TestMultiRunnerRejectsInvalidLane proves group validation happens before
// any lane state is touched and names the offending lane.
func TestMultiRunnerRejectsInvalidLane(t *testing.T) {
	tp := tech.Default()
	cs := neighborhood(t, tp, 3)
	cs[2].Width = 0
	prof, _ := workload.ByName("gzip")
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	var mr MultiRunner
	err = mr.RunSource(make([]Result, 3), cs, gen, "gzip", 1000, tp)
	if err == nil || !strings.Contains(err.Error(), "lane 2") {
		t.Errorf("invalid lane not identified: %v", err)
	}
	if err := mr.RunSource(make([]Result, 2), neighborhood(t, tp, 3), gen, "gzip", 1000, tp); err == nil {
		t.Error("result/config length mismatch accepted")
	}
}

// TestMultiRunnerSteadyStateAllocs extends the allocation-free kernel
// guard to the lockstep path: once a MultiRunner's lanes are warm, a
// group evaluation must not allocate.
func TestMultiRunnerSteadyStateAllocs(t *testing.T) {
	tp := tech.Default()
	cs := neighborhood(t, tp, 8)
	prof, _ := workload.ByName("gzip")
	const n = 5000

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)
	dst := make([]Result, len(cs))

	var mr MultiRunner
	if err := mr.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		tr.Reset()
		if err := mr.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Errorf("steady-state lockstep evaluation allocates %.1f times per run, want ~0", avg)
	}
}

// BenchmarkLockstepRunner measures the lockstep kernel's amortized cost:
// N=8 configurations advancing over one shared gzip trace, the same
// stream and warm-arena discipline as BenchmarkRunnerSteadyState, so
// ns/instr here divides the group's wall time by all 8×n instructions
// simulated.
func BenchmarkLockstepRunner(b *testing.B) {
	tp := tech.Default()
	cs := neighborhood(b, tp, 8)
	prof, _ := workload.ByName("gzip")
	const n = 20000

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)
	dst := make([]Result, len(cs))
	var mr MultiRunner
	if err := mr.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if err := mr.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*len(cs)), "ns/instr")
}
