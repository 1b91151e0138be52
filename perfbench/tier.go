package main

import (
	"context"
	"sync"
	"time"

	"xpscalar/internal/evalengine"
)

// tierStats is what a timed cache tier saw: one latency sample per read
// call (single or batched), the keys asked for and found, the writes
// handed to it and the time spent flushing it.
type tierStats struct {
	getNs     []float64
	keys      uint64
	found     uint64
	puts      uint64
	flushTime time.Duration
}

// tierTimer accumulates tierStats from concurrent pool workers.
type tierTimer struct {
	mu sync.Mutex
	st tierStats
}

func (t *tierTimer) read(start time.Time, keys, found int) {
	d := time.Since(start)
	t.mu.Lock()
	t.st.getNs = append(t.st.getNs, float64(d.Nanoseconds()))
	t.st.keys += uint64(keys)
	t.st.found += uint64(found)
	t.mu.Unlock()
}

// snapshot returns a copy of the stats, safe to read while the tier is
// still in use.
func (t *tierTimer) snapshot() tierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.getNs = append([]float64(nil), st.getNs...)
	return st
}

// timed is the CacheBackend face of a timing wrapper.
type timed struct {
	inner evalengine.CacheBackend
	t     *tierTimer
}

func (w *timed) Get(k evalengine.Key) (evalengine.Eval, bool) {
	start := time.Now()
	v, ok := w.inner.Get(k)
	w.t.read(start, 1, b2i(ok))
	return v, ok
}

func (w *timed) Put(k evalengine.Key, v evalengine.Eval) {
	w.inner.Put(k, v)
	w.t.mu.Lock()
	w.t.st.puts++
	w.t.mu.Unlock()
}

func (w *timed) Flush() error {
	start := time.Now()
	err := w.inner.Flush()
	w.t.mu.Lock()
	w.t.st.flushTime += time.Since(start)
	w.t.mu.Unlock()
	return err
}

func (w *timed) Close() error                   { return w.inner.Close() }
func (w *timed) Stats() evalengine.BackendStats { return w.inner.Stats() }

func b2i(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// The optional read faces the engine probes by type assertion. Each is a
// separate type so a wrapper can carry exactly the faces its tier has.

type batchFace struct{ w *timed }

func (f batchFace) GetBatch(keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	start := time.Now()
	m := f.w.inner.(evalengine.BatchGetter).GetBatch(keys)
	f.w.t.read(start, len(keys), len(m))
	return m
}

type ctxFace struct{ w *timed }

func (f ctxFace) GetCtx(ctx context.Context, k evalengine.Key) (evalengine.Eval, bool) {
	start := time.Now()
	v, ok := f.w.inner.(evalengine.CtxGetter).GetCtx(ctx, k)
	f.w.t.read(start, 1, b2i(ok))
	return v, ok
}

type ctxBatchFace struct{ w *timed }

func (f ctxBatchFace) GetBatchCtx(ctx context.Context, keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	start := time.Now()
	m := f.w.inner.(evalengine.CtxBatchGetter).GetBatchCtx(ctx, keys)
	f.w.t.read(start, len(keys), len(m))
	return m
}

// timeTier wraps be so every call through the CacheBackend seam is timed
// into t. The wrapper implements BatchGetter, CtxGetter and CtxBatchGetter
// exactly when be does: the engine picks its read path by type assertion,
// so hiding or adding a face would time a different path than an
// unwrapped run takes.
func timeTier(be evalengine.CacheBackend, t *tierTimer) evalengine.CacheBackend {
	w := &timed{inner: be, t: t}
	_, b := be.(evalengine.BatchGetter)
	_, c := be.(evalengine.CtxGetter)
	_, cb := be.(evalengine.CtxBatchGetter)
	switch {
	case b && c && cb:
		return struct {
			*timed
			batchFace
			ctxFace
			ctxBatchFace
		}{w, batchFace{w}, ctxFace{w}, ctxBatchFace{w}}
	case b && c:
		return struct {
			*timed
			batchFace
			ctxFace
		}{w, batchFace{w}, ctxFace{w}}
	case b && cb:
		return struct {
			*timed
			batchFace
			ctxBatchFace
		}{w, batchFace{w}, ctxBatchFace{w}}
	case c && cb:
		return struct {
			*timed
			ctxFace
			ctxBatchFace
		}{w, ctxFace{w}, ctxBatchFace{w}}
	case b:
		return struct {
			*timed
			batchFace
		}{w, batchFace{w}}
	case c:
		return struct {
			*timed
			ctxFace
		}{w, ctxFace{w}}
	case cb:
		return struct {
			*timed
			ctxBatchFace
		}{w, ctxBatchFace{w}}
	}
	return w
}
