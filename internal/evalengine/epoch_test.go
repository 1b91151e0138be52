package evalengine

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"xpscalar/internal/fieldcodec"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// epochGoldens pins, per model epoch, the digest of the golden results
// TestModelEpochPinsGoldens simulates. An epoch is a promise that every
// result the simulator produces under it is the one cached records hold.
var epochGoldens = map[uint64]string{
	1: "b18045fe355312abce88164535689a89e4a2e04d5b76dba324c0ac499527cf5f",
}

// TestModelEpochPinsGoldens simulates a fixed set of golden points — every
// suite profile on the paper's initial configuration and on a wider,
// deeper one, CPI stacks armed — and pins the digest of their full
// results to ModelEpoch. A change to the kernel, the cache or predictor
// models, or the synthetic streams that moves any result fails here until
// ModelEpoch is bumped and the new digest pinned under it, so cached
// evaluations of the old models are orphaned rather than served.
func TestModelEpochPinsGoldens(t *testing.T) {
	tp := tech.Default()
	base := sim.InitialConfig(tp)
	wide := base
	wide.Width, wide.ROBSize, wide.IQSize, wide.LSQSize = 6, 256, 96, 96
	wide.ClockNs, wide.FrontEndStages = 0.5, 4
	wide.L1D = timing.CacheGeom{Sets: 256, Assoc: 4, BlockBytes: 64}
	wide.L2 = timing.CacheGeom{Sets: 4096, Assoc: 8, BlockBytes: 64}
	wide.L1DLat, wide.L2Lat = 3, 10
	wide.MemCycles = timing.MemoryCycles(wide.ClockNs, tp)

	var r sim.Runner
	r.Introspect(&pipeline.Introspection{})
	var enc []byte
	for _, cfg := range []sim.Config{base, wide} {
		for _, p := range workload.Suite() {
			res, err := r.Run(cfg, p, 20000, tp)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			enc = fieldcodec.Append(enc, &res)
		}
	}
	sum := sha256.Sum256(enc)
	got := hex.EncodeToString(sum[:])
	if want, ok := epochGoldens[ModelEpoch]; !ok || got != want {
		t.Fatalf("golden results digest %s does not match the one pinned for model epoch %d (%q): "+
			"a model change moved simulation results; bump ModelEpoch and pin this digest under it", got, ModelEpoch, want)
	}
}
