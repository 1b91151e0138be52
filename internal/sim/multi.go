// Lockstep evaluation of several configurations against one workload —
// the sim-level face of pipeline.MultiCore. Exploration's dominant cost is
// re-simulating near-identical configurations on the same stream; a
// MultiRunner shares each delivery slab across all lanes so the source and
// transpose cost is paid once per group instead of once per configuration.

package sim

import (
	"fmt"

	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// coreParams derives the cycle-domain pipeline parameters from an
// architectural configuration — the single definition both the scalar
// Runner and the lockstep MultiRunner evaluate through, so the two paths
// cannot drift apart. Miss latencies include a fill-transfer term
// proportional to the victim level's block size over a 16-byte-per-cycle
// fill path, so large blocks trade their spatial-locality benefit against
// transfer time rather than being free.
func coreParams(c Config) pipeline.Params {
	return pipeline.Params{
		Width:          c.Width,
		FrontEndStages: c.FrontEndStages,
		ROBSize:        c.ROBSize,
		IQSize:         c.IQSize,
		LSQSize:        c.LSQSize,
		SchedStages:    c.SchedDepth,
		LSQStages:      c.LSQDepth,
		WakeupExtra:    c.WakeupMinLat,
		LatL1:          c.L1DLat,
		LatL2:          c.L1DLat + c.L2Lat + c.L1D.BlockBytes/16,
		LatMem:         c.L1DLat + c.L2Lat + c.MemCycles + c.L1D.BlockBytes/16 + c.L2.BlockBytes/16,
		MulLat:         3,
		DivLat:         20,
		MemPorts:       2,
	}
}

// lane is one configuration's reusable predictor and cache state, held by
// a Runner and by each lane of a MultiRunner so the two reuse it the same
// way.
type lane struct {
	// Predictor tables are reused when consecutive runs share a predictor
	// configuration (the paper holds it fixed across the whole search).
	predCfg bpred.Config
	pred    bpred.Predictor

	// The cache hierarchy is built once and reconfigured in place after
	// that, so a geometry change reuses the line arrays' capacity.
	mem *cache.Hierarchy
}

// prepare readies the lane's predictor and caches for a run of c, in the
// state fresh construction would give them.
func (ln *lane) prepare(c *Config) error {
	if ln.pred != nil && ln.predCfg == c.Bpred {
		ln.pred.Reset()
	} else {
		pred, err := bpred.New(c.Bpred)
		if err != nil {
			return err
		}
		ln.pred, ln.predCfg = pred, c.Bpred
	}
	if ln.mem != nil {
		return ln.mem.Reconfigure(c.L1D, c.L2)
	}
	mem, err := cache.NewHierarchy(c.L1D, c.L2)
	if err != nil {
		return err
	}
	ln.mem = mem
	return nil
}

// MultiRunner evaluates groups of configurations against one instruction
// stream in lockstep. A zero-value MultiRunner is ready to use; like
// Runner it reuses all scratch state across calls (per-lane predictors and
// caches, per-lane core arenas, the shared delivery block) and is not safe
// for concurrent use — pool MultiRunners per worker.
type MultiRunner struct {
	multi pipeline.MultiCore
	lanes []lane

	// Per-call scratch, sized to the widest group seen.
	params []pipeline.Params
	preds  []bpred.Predictor
	mems   []*cache.Hierarchy
	out    []pipeline.Result
}

// RunSource evaluates n instructions of src on every configuration in cs,
// writing dst[i] for cs[i]. All lanes observe the same stream — src
// advances by exactly n instructions, once, however many lanes ride it —
// and each lane's result is bit-identical to a scalar Runner.RunSource
// over the same stream. On error no result is valid; errors name the
// offending lane so a batching caller can fall back to scalar runs.
func (r *MultiRunner) RunSource(dst []Result, cs []Config, src workload.Source, name string, n int, t tech.Params) error {
	k := len(cs)
	if len(dst) != k {
		return fmt.Errorf("sim: lockstep run: %d results for %d configs", len(dst), k)
	}
	if k == 0 {
		return fmt.Errorf("sim: lockstep run needs at least one config")
	}
	for i := range cs {
		if err := cs[i].Validate(t); err != nil {
			return fmt.Errorf("sim: lockstep lane %d: %w", i, err)
		}
	}
	if len(r.lanes) < k {
		grown := make([]lane, k)
		copy(grown, r.lanes)
		r.lanes = grown
		r.params = make([]pipeline.Params, k)
		r.preds = make([]bpred.Predictor, k)
		r.mems = make([]*cache.Hierarchy, k)
		r.out = make([]pipeline.Result, k)
	}
	params, preds, mems, out := r.params[:k], r.preds[:k], r.mems[:k], r.out[:k]
	for i := range cs {
		c := &cs[i]
		ln := &r.lanes[i]
		if err := ln.prepare(c); err != nil {
			return fmt.Errorf("sim: lockstep lane %d: %w", i, err)
		}
		params[i] = coreParams(*c)
		preds[i] = ln.pred
		mems[i] = ln.mem
	}
	if err := r.multi.Run(out, params, src, preds, mems, n); err != nil {
		return fmt.Errorf("sim: lockstep: %w", err)
	}
	for i := range cs {
		dst[i] = Result{Config: cs[i], Workload: name, Result: out[i], CPI: r.multi.LaneCPI(i)}
	}
	return nil
}

// SetIntrospection arms CPI-stack accounting (and, with a positive
// interval and recorders, interval sampling) on every lane of subsequent
// runs; see pipeline.MultiCore.SetIntrospection. Sticky across runs.
func (r *MultiRunner) SetIntrospection(interval int, recs []pipeline.IntervalRecorder) {
	r.multi.SetIntrospection(interval, recs)
}

// DisableIntrospection disarms introspection for subsequent runs.
func (r *MultiRunner) DisableIntrospection() { r.multi.DisableIntrospection() }
