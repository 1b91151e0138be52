package main

import (
	"runtime"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/tracing"
)

// layerSample is the per-layer view of one traced unit of work (a
// pipeline iteration, or a serve-mixed round), before taking medians.
type layerSample map[string]float64

// layerUnits gives every per-layer metric its unit; it is also the list of
// metrics a traced run prints, so every workload reports the same set.
var layerUnits = map[string]string{
	"sim.simulate_s":             "s",
	"sim.ns_per_instr":           "ns",
	"sim.batch_s":                "s",
	"core.cell_s_p50":            "s",
	"core.matrix_s":              "s",
	"workload.source_s":          "s",
	"explore.evaluations":        "count",
	"evalengine.requests":        "count",
	"evalengine.misses":          "count",
	"evalengine.dedup":           "count",
	"evalengine.saved_ratio":     "ratio",
	"evalengine.lockstep_lanes":  "count",
	"evalengine.trace_instr":     "count",
	"evalengine.hit_us_p50":      "us",
	"evalengine.miss_self_s":     "s",
	"evalstore.get_us_p50":       "us",
	"evalstore.get_calls":        "count",
	"evalstore.hit_ratio":        "ratio",
	"evalstore.put_calls":        "count",
	"evalstore.flush_s":          "s",
	"evalstore.bytes":            "bytes",
	"evalremote.get_us_p50":      "us",
	"evalremote.keys_per_lookup": "count",
	"evalremote.hits":            "count",
	"evalremote.errors":          "count",
	"xpserve.queue_wait_s_p50":   "s",
	"xpserve.run_s_p50":          "s",
	"xpserve.submit_ms_p50":      "ms",
	"xpserve.rejected":           "count",
	"runtime.gc_cycles":          "count",
	"runtime.gc_pause_ms":        "ms",
	"tracing.overhead_ratio":     "ratio",
	"layers.coverage_ratio":      "ratio",
}

// spanLayers derives the span-based layer metrics of one traced unit of
// work that took wall on a pool of workers.
func spanLayers(s layerSample, spans []tracing.Span, wall time.Duration, workers int) {
	child := make(map[tracing.SpanID]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.DurNs()
		}
	}
	var simSelf, simInstr, selfSum int64
	var hits, cells []float64
	for _, sp := range spans {
		self := sp.DurNs() - child[sp.ID]
		if self < 0 {
			self = 0
		}
		selfSum += self
		switch sp.Kind {
		case tracing.KindSimulate:
			simSelf += self
			simInstr += sp.Arg // budget × lanes
		case tracing.KindEvalBatch:
			s["sim.batch_s"] += float64(sp.DurNs()) / 1e9
		case tracing.KindCell:
			cells = append(cells, float64(sp.DurNs())/1e9)
		case tracing.KindSource:
			s["workload.source_s"] += float64(self) / 1e9
		case tracing.KindEvalHit:
			hits = append(hits, float64(sp.DurNs())/1e3)
		case tracing.KindEvalMiss:
			s["evalengine.miss_self_s"] += float64(self) / 1e9
		}
	}
	s["sim.simulate_s"] = float64(simSelf) / 1e9
	if simInstr > 0 {
		s["sim.ns_per_instr"] = float64(simSelf) / float64(simInstr)
	}
	s["core.cell_s_p50"] = median(cells)
	s["evalengine.hit_us_p50"] = median(hits)
	s["layers.coverage_ratio"] = float64(selfSum) / (float64(wall.Nanoseconds()) * float64(workers))
}

// statsLayers copies the engine's counters into a sample.
func statsLayers(s layerSample, st evalengine.Stats) {
	s["evalengine.requests"] = float64(st.Requests)
	s["evalengine.misses"] = float64(st.Misses)
	s["evalengine.dedup"] = float64(st.Deduped)
	s["evalengine.saved_ratio"] = st.HitRate()
	s["evalengine.lockstep_lanes"] = float64(st.LockstepLanes)
	s["evalengine.trace_instr"] = float64(st.TraceInstr)
}

// tierLayers copies a timed tier's reads into the sample under prefix
// ("evalstore" or "evalremote").
func tierLayers(s layerSample, prefix string, t tierStats, st evalengine.BackendStats) {
	s[prefix+".get_us_p50"] = median(t.getNs) / 1e3
	switch prefix {
	case "evalstore":
		s["evalstore.get_calls"] = float64(len(t.getNs))
		if t.keys > 0 {
			s["evalstore.hit_ratio"] = float64(t.found) / float64(t.keys)
		}
		s["evalstore.bytes"] = float64(st.Bytes)
	case "evalremote":
		if len(t.getNs) > 0 {
			s["evalremote.keys_per_lookup"] = float64(t.keys) / float64(len(t.getNs))
		}
		s["evalremote.hits"] = float64(st.RemoteHits)
		s["evalremote.errors"] = float64(st.RemoteErrors)
	}
}

// setLayers reports the median of every per-layer metric over samples,
// with the tracing overhead measured against the untraced walls.
func setLayers(rep *report, samples []layerSample, tracedWalls, untracedWalls []float64) {
	for name, unit := range layerUnits {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, s[name])
		}
		rep.set(name, median(xs), unit)
	}
	rep.set("tracing.overhead_ratio", median(tracedWalls)/median(untracedWalls), "ratio")
}

// exploreLayers reports the per-layer metrics of an explore workload's
// traced iterations; writes are fleet-warm's disk writes in set-up.
func exploreLayers(rep *report, kind tier, untraced, traced []iteration, writes tierStats) {
	var samples []layerSample
	var tw, uw []float64
	for _, it := range traced {
		s := layerSample{}
		spanLayers(s, it.spans, it.wall, workers())
		statsLayers(s, it.stats)
		s["explore.evaluations"] = float64(it.run.evals)
		s["core.matrix_s"] = it.run.table5.Seconds()
		if kind == tierRemote {
			tierLayers(s, "evalremote", it.timer.snapshot(), it.stats.Disk)
			tierLayers(s, "evalstore", it.disk.snapshot(), it.diskStats)
			s["evalstore.put_calls"] = float64(writes.puts)
			s["evalstore.flush_s"] = writes.flushTime.Seconds()
		}
		s["runtime.gc_cycles"] = float64(it.gcs)
		s["runtime.gc_pause_ms"] = float64(it.gcPause.Microseconds()) / 1e3
		samples = append(samples, s)
		tw = append(tw, it.wall.Seconds())
	}
	for _, it := range untraced {
		uw = append(uw, it.wall.Seconds())
	}
	setLayers(rep, samples, tw, uw)
}

// workers is the size of a session's default worker pool.
func workers() int { return runtime.GOMAXPROCS(0) }
