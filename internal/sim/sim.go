// Package sim is the front door of the simulator stack: it defines the
// architectural configuration of a superscalar core (the paper's Table 3/4
// parameter set), validates that every unit's geometry fits the clock
// period and pipeline depth the configuration assigns it (paper §3), and
// evaluates a workload on a configuration, reporting IPC and the paper's
// figure of merit IPT — instructions per time unit.
package sim

import (
	"fmt"
	"math"

	"xpscalar/internal/bpred"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// Config is one architectural configuration — the paper's configurational
// characteristics of a workload are exactly a Config customized to it
// (Table 4's rows).
type Config struct {
	// ClockNs is the clock period in nanoseconds. The paper treats it as
	// a continuous customizable parameter, which is what inflates the
	// design space and couples all units together.
	ClockNs float64

	// Width is the dispatch, issue and commit width.
	Width int

	// FrontEndStages is the pipeline depth of the in-order front end.
	FrontEndStages int

	// ROBSize, IQSize, LSQSize are the window structure capacities.
	ROBSize, IQSize, LSQSize int

	// SchedDepth is the pipeline depth of the scheduler / register file;
	// both the issue queue and ROB/register file must fit its budget.
	SchedDepth int

	// LSQDepth is the pipeline depth of the load/store queue.
	LSQDepth int

	// WakeupMinLat is the minimum latency for awakening dependent
	// instructions (Table 3/4); 0 allows back-to-back dependent issue.
	WakeupMinLat int

	// L1D and L2 are the data-cache geometries, with their access
	// latencies in cycles. The geometry must fit latency×clock.
	L1D       timing.CacheGeom
	L1DLat    int
	L2        timing.CacheGeom
	L2Lat     int
	MemCycles int

	// Bpred is the (fixed) branch predictor organization.
	Bpred bpred.Config
}

// InitialConfig returns the paper's Table 3 starting point for every
// exploration, against the given technology.
func InitialConfig(t tech.Params) Config {
	return Config{
		ClockNs:        0.33,
		Width:          3,
		FrontEndStages: 6,
		ROBSize:        128,
		IQSize:         64,
		LSQSize:        64,
		SchedDepth:     1,
		LSQDepth:       2,
		WakeupMinLat:   1,
		L1D:            timing.CacheGeom{Sets: 512, Assoc: 2, BlockBytes: 32}, // 32K
		L1DLat:         4,
		L2:             timing.CacheGeom{Sets: 2048, Assoc: 4, BlockBytes: 128}, // 1M
		L2Lat:          12,
		MemCycles:      timing.MemoryCycles(0.33, t),
		Bpred:          bpred.DefaultConfig(),
	}
}

// Validate checks structural sanity and, crucially, the paper's fit
// discipline: each unit's access time must fit within the product of the
// clock period and the pipeline depth assigned to it, minus latch overhead.
func (c Config) Validate(t tech.Params) error {
	switch {
	case c.ClockNs < t.MinClockPeriodNs():
		return fmt.Errorf("sim: clock %.3fns below technology minimum %.3fns", c.ClockNs, t.MinClockPeriodNs())
	case c.Width < 1 || c.Width > 16:
		return fmt.Errorf("sim: width %d outside [1,16]", c.Width)
	case c.FrontEndStages < timing.FrontEndStages(c.ClockNs, t):
		return fmt.Errorf("sim: front end %d stages cannot cover %.1fns at %.3fns clock",
			c.FrontEndStages, t.FrontEndLatencyNs, c.ClockNs)
	case c.ROBSize < c.Width:
		return fmt.Errorf("sim: ROB %d below width %d", c.ROBSize, c.Width)
	case c.IQSize < 1 || c.IQSize > c.ROBSize:
		return fmt.Errorf("sim: IQ %d outside [1, ROB]", c.IQSize)
	case c.LSQSize < 1:
		return fmt.Errorf("sim: LSQ %d must be positive", c.LSQSize)
	case c.SchedDepth < 1 || c.LSQDepth < 1:
		return fmt.Errorf("sim: pipeline depths must be >= 1")
	case c.WakeupMinLat < 0:
		return fmt.Errorf("sim: wakeup latency %d must be >= 0", c.WakeupMinLat)
	case c.WakeupMinLat < c.SchedDepth-1:
		// A scheduler pipelined over d stages cannot wake dependents
		// faster than d-1 cycles; the paper's Table 4 obeys this.
		return fmt.Errorf("sim: wakeup latency %d below scheduler depth %d - 1",
			c.WakeupMinLat, c.SchedDepth)
	case c.L1DLat < 1 || c.L2Lat < c.L1DLat || c.MemCycles < c.L2Lat:
		return fmt.Errorf("sim: cache latencies must be ordered L1 <= L2 <= mem")
	}
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("sim: L1D: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("sim: L2: %w", err)
	}
	if err := c.Bpred.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	// Fit discipline (paper §3, Figure 2).
	sched := timing.BudgetNs(c.ClockNs, c.SchedDepth, t)
	if d := timing.IQDelayNs(c.IQSize, c.Width, t); !timing.Fits(d, sched) {
		return fmt.Errorf("sim: IQ %d wakeup+select %.3fns exceeds scheduler budget %.3fns", c.IQSize, d, sched)
	}
	if d := timing.ROBDelayNs(c.ROBSize, c.Width, t); !timing.Fits(d, sched) {
		return fmt.Errorf("sim: ROB %d access %.3fns exceeds scheduler budget %.3fns", c.ROBSize, d, sched)
	}
	if d, b := timing.LSQDelayNs(c.LSQSize, t), timing.BudgetNs(c.ClockNs, c.LSQDepth, t); !timing.Fits(d, b) {
		return fmt.Errorf("sim: LSQ %d search %.3fns exceeds budget %.3fns", c.LSQSize, d, b)
	}
	if d, b := timing.CacheAccessNs(c.L1D, t), timing.BudgetNs(c.ClockNs, c.L1DLat, t); !timing.Fits(d, b) {
		return fmt.Errorf("sim: L1D %v access %.3fns exceeds %d-cycle budget %.3fns", c.L1D, d, c.L1DLat, b)
	}
	if d, b := timing.CacheAccessNs(c.L2, t), timing.BudgetNs(c.ClockNs, c.L2Lat, t); !timing.Fits(d, b) {
		return fmt.Errorf("sim: L2 %v access %.3fns exceeds %d-cycle budget %.3fns", c.L2, d, c.L2Lat, b)
	}
	return nil
}

// FrequencyGHz returns the clock frequency of the configuration.
func (c Config) FrequencyGHz() float64 { return 1 / c.ClockNs }

// String renders the configuration in the style of a Table 4 column.
func (c Config) String() string {
	return fmt.Sprintf(
		"clk=%.2fns w=%d fe=%d rob=%d iq=%d lsq=%d sched=%d wake=%d l1=%v@%d l2=%v@%d mem=%d",
		c.ClockNs, c.Width, c.FrontEndStages, c.ROBSize, c.IQSize, c.LSQSize,
		c.SchedDepth, c.WakeupMinLat, c.L1D, c.L1DLat, c.L2, c.L2Lat, c.MemCycles)
}

// Vector flattens the configuration into a feature vector for the
// clustering baselines (Lee & Brooks-style k-means over configurations).
// Log scales are used for the exponentially-distributed sizes.
func (c Config) Vector() []float64 {
	return []float64{
		c.ClockNs,
		float64(c.Width),
		float64(c.FrontEndStages),
		math.Log2(float64(c.ROBSize)),
		math.Log2(float64(c.IQSize)),
		math.Log2(float64(c.LSQSize)),
		float64(c.SchedDepth),
		float64(c.WakeupMinLat),
		math.Log2(float64(c.L1D.SizeBytes())),
		float64(c.L1DLat),
		math.Log2(float64(c.L2.SizeBytes())),
		float64(c.L2Lat),
	}
}

// VectorNames names the entries of Vector.
func VectorNames() []string {
	return []string{
		"clock-ns", "width", "fe-stages", "log2-rob", "log2-iq", "log2-lsq",
		"sched-depth", "wakeup", "log2-l1-bytes", "l1-lat", "log2-l2-bytes", "l2-lat",
	}
}

// Result reports the outcome of evaluating a workload on a configuration.
type Result struct {
	Config   Config
	Workload string
	pipeline.Result
	// CPI is the run's CPI-stack decomposition — per-bucket cycle counts
	// summing exactly to Cycles — populated only when introspection was
	// armed on the runner (all zeros otherwise).
	CPI pipeline.CPIStack
}

// IPT is the paper's figure of merit: committed instructions per nanosecond
// (IPC divided by the clock period).
func (r Result) IPT() float64 { return r.IPC() / r.Config.ClockNs }

// Run evaluates n instructions of the workload on the configuration. Every
// run constructs fresh predictor, cache and generator state, so results are
// deterministic functions of (config, profile, n). Invalid configurations
// are rejected before any generator or structure setup is paid for.
func Run(c Config, p workload.Profile, n int, t tech.Params) (Result, error) {
	var r Runner
	return r.Run(c, p, n, t)
}

// RunSource evaluates n instructions from an arbitrary instruction source —
// a synthetic generator or a captured trace — on the configuration. The
// source's state advances; pass a fresh or Reset source for independent
// runs.
func RunSource(c Config, src workload.Source, name string, n int, t tech.Params) (Result, error) {
	var r Runner
	return r.RunSource(c, src, name, n, t)
}

// Runner owns the reusable scratch state of a simulation: the pipeline
// core's arenas, the branch predictor tables, and the cache arrays. A
// zero-value Runner is ready to use. Reusing one Runner across evaluations
// resets this state instead of reallocating it, which removes the per-run
// allocation cost on hot paths (design-space search evaluates millions of
// configurations); results are bit-identical to fresh construction. Cache
// geometry changes on most annealing steps, so the cache arrays are
// reconfigured in place rather than matched: once a Runner has seen its
// largest geometries it allocates nothing, whatever the next geometry is.
// A Runner is not safe for concurrent use — pool them per worker.
type Runner struct {
	core pipeline.Core
	lane
}

// Run evaluates n instructions of the workload's synthetic stream, as the
// package-level Run, but reusing the Runner's scratch state.
func (r *Runner) Run(c Config, p workload.Profile, n int, t tech.Params) (Result, error) {
	if err := c.Validate(t); err != nil {
		return Result{}, err
	}
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return Result{}, err
	}
	return r.RunSource(c, gen, p.Name, n, t)
}

// RunSource evaluates n instructions from src, as the package-level
// RunSource, but reusing the Runner's scratch state.
func (r *Runner) RunSource(c Config, src workload.Source, name string, n int, t tech.Params) (Result, error) {
	if err := c.Validate(t); err != nil {
		return Result{}, err
	}
	if err := r.prepare(&c); err != nil {
		return Result{}, err
	}
	res, err := r.core.Run(coreParams(c), src, r.pred, r.mem, n)
	if err != nil {
		return Result{}, err
	}
	return Result{Config: c, Workload: name, Result: res, CPI: r.core.LastCPI()}, nil
}

// Introspect arms (or, with nil, disarms) CPI-stack accounting and
// interval sampling on this runner's core; see pipeline.Introspection.
// Sticky across runs, like the rest of the runner's scratch state.
func (r *Runner) Introspect(intro *pipeline.Introspection) { r.core.SetIntrospection(intro) }
