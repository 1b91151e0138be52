package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/explore"
	"xpscalar/internal/session"
	"xpscalar/internal/sim"
	"xpscalar/internal/store"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// params sizes one run of the paper's pipeline: a cross-seeded annealing
// exploration of every suite profile (Table 4) followed by the
// cross-configuration matrix of the winners (Table 5).
type params struct {
	Iterations  int `json:"iterations"`
	Chains      int `json:"chains"`
	ShortBudget int `json:"short_budget"`
	LongBudget  int `json:"long_budget"`
	MatrixInstr int `json:"matrix_instr"`
}

// benchParams is the pipeline every explore workload runs. A cold run
// takes about a second on a 2-vCPU Xeon, so one rotation through the seed
// slots takes about ten seconds. golden.json records its outputs per
// seed; changing these values means re-recording it (see README.md).
var benchParams = params{Iterations: 30, Chains: 2, ShortBudget: 4000, LongBudget: 8000, MatrixInstr: 20000}

// exploreOptions maps the pipeline size and seed onto annealer options.
func (p params) exploreOptions(seed int64) explore.Options {
	opt := explore.DefaultOptions(seed)
	opt.Iterations = p.Iterations
	opt.Chains = p.Chains
	opt.ShortBudget = p.ShortBudget
	opt.LongBudget = p.LongBudget
	return opt
}

// pipelineRun is what one pipeline run produced and how long its phases
// took.
type pipelineRun struct {
	outcomes []byte // store.WriteOutcomes form of the Table 4 outcomes
	matrix   []byte // store.WriteMatrix form of the Table 5 matrix
	evals    int    // annealing evaluations summed over the outcomes
	table4   time.Duration
	table5   time.Duration
}

// output is the byte form every output check compares.
func (r pipelineRun) output() []byte {
	return append(append(append([]byte{}, r.outcomes...), "--\n"...), r.matrix...)
}

// digest is the hex SHA-256 of the run's outputs.
func (r pipelineRun) digest() string {
	sum := sha256.Sum256(r.output())
	return hex.EncodeToString(sum[:])
}

// runPipeline runs Table 4 then Table 5 on sess.
func runPipeline(ctx context.Context, sess *session.Session, p params, seed int64) (pipelineRun, error) {
	var r pipelineRun
	profiles := workload.Suite()
	t0 := time.Now()
	outs, err := sess.ExploreSuite(ctx, profiles, p.exploreOptions(seed))
	if err != nil {
		return r, fmt.Errorf("table 4: %w", err)
	}
	r.table4 = time.Since(t0)
	configs := make([]sim.Config, len(outs))
	for i, o := range outs {
		configs[i] = o.Best
		r.evals += o.Evaluations
	}
	t1 := time.Now()
	m, err := sess.CrossMatrix(ctx, profiles, configs, p.MatrixInstr, tech.Default())
	if err != nil {
		return r, fmt.Errorf("table 5: %w", err)
	}
	r.table5 = time.Since(t1)
	var ob, mb bytes.Buffer
	if err := store.WriteOutcomes(&ob, outs); err != nil {
		return r, err
	}
	if err := store.WriteMatrix(&mb, m); err != nil {
		return r, err
	}
	r.outcomes, r.matrix = ob.Bytes(), mb.Bytes()
	return r, nil
}

// golden is one seed's recorded reference: the digest of its outputs and
// the counts that must repeat exactly on every cold run of the seed.
type golden struct {
	ExploreSeed int64  `json:"explore_seed"`
	Digest      string `json:"digest"`
	// Requests, Misses, LockstepLanes and TraceInstr are the cold run's
	// evalengine.Stats fields of the same names; Evaluations sums the
	// outcomes' annealing evaluations; Instr sums the instruction budgets
	// of every evaluation request, which is the simulation work a run
	// delivers whether it simulates or reads a cache tier; SimInstr sums
	// those of the requests that ran a simulation.
	Requests      uint64 `json:"requests"`
	Misses        uint64 `json:"misses"`
	LockstepLanes uint64 `json:"lockstep_lanes"`
	TraceInstr    uint64 `json:"trace_instr"`
	Evaluations   int    `json:"evaluations"`
	Instr         uint64 `json:"instr"`
	SimInstr      uint64 `json:"sim_instr"`
}

// goldenSlots is how many seed slots golden.json records. explore-cold
// rotates through all of them, so the count is part of the workload.
const goldenSlots = 8

// goldenFile is golden.json: the pipeline size it was recorded at and one
// entry per seed slot. A run's seed picks its slot, seed mod the slot
// count.
type goldenFile struct {
	Params params   `json:"params"`
	Seeds  []golden `json:"seeds"`
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden parses the embedded references and checks they were recorded
// for the pipeline size the benchmark runs.
func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if g.Params != benchParams || len(g.Seeds) != goldenSlots {
		return g, fmt.Errorf("golden.json was recorded for %+v, the benchmark runs %+v; re-record it", g.Params, benchParams)
	}
	return g, nil
}

// instrCounter is an EvalObserver summing the instruction budgets of
// every evaluation request it sees, and of those that ran a simulation.
type instrCounter struct{ requested, simulated atomic.Uint64 }

func (c *instrCounter) ObserveEval(r evalengine.EvalRecord) {
	c.requested.Add(uint64(r.Budget))
	if r.Outcome == "miss" {
		c.simulated.Add(uint64(r.Budget))
	}
}

// recordGolden runs the pipeline cold for every slot seed and returns the
// references golden.json holds.
func recordGolden(ctx context.Context, p params, slots int) (goldenFile, error) {
	g := goldenFile{Params: p}
	for i := 0; i < slots; i++ {
		seed := int64(i + 1)
		sess := session.New(session.Options{})
		var ic instrCounter
		sess.SetEvalObserver(&ic)
		r, err := runPipeline(ctx, sess, p, seed)
		if err != nil {
			return g, err
		}
		st := sess.Stats()
		g.Seeds = append(g.Seeds, golden{
			ExploreSeed: seed, Digest: r.digest(),
			Requests: st.Requests, Misses: st.Misses, LockstepLanes: st.LockstepLanes,
			TraceInstr: st.TraceInstr, Evaluations: r.evals,
			Instr: ic.requested.Load(), SimInstr: ic.simulated.Load(),
		})
	}
	return g, nil
}

// checkCold compares a cold run's outputs, deterministic counts and
// instruction budgets with the seed's reference.
func checkCold(r pipelineRun, st evalengine.Stats, ic *instrCounter, g golden) error {
	if d := r.digest(); d != g.Digest {
		return fmt.Errorf("outputs digest %s, recorded %s", d[:16], g.Digest[:16])
	}
	got := golden{ExploreSeed: g.ExploreSeed, Digest: g.Digest, Requests: st.Requests, Misses: st.Misses,
		LockstepLanes: st.LockstepLanes, TraceInstr: st.TraceInstr, Evaluations: r.evals,
		Instr: ic.requested.Load(), SimInstr: ic.simulated.Load()}
	if got != g {
		return fmt.Errorf("deterministic counts %+v, recorded %+v", got, g)
	}
	return nil
}

// checkWarm compares a warm run (one whose every evaluation must come from
// a cache tier) with the cold reference bytes and the seed's counts.
func checkWarm(r pipelineRun, st evalengine.Stats, ic *instrCounter, ref []byte, g golden) error {
	if !bytes.Equal(r.output(), ref) {
		return fmt.Errorf("outputs differ from the cold run's")
	}
	if st.Requests != g.Requests || r.evals != g.Evaluations || ic.requested.Load() != g.Instr {
		return fmt.Errorf("requests %d evaluations %d instructions %d, recorded %d, %d and %d",
			st.Requests, r.evals, ic.requested.Load(), g.Requests, g.Evaluations, g.Instr)
	}
	return nil
}
