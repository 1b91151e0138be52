package evalremote

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/tracing"
)

// maxLookupKeys bounds one batched lookup — far above any lockstep
// group, low enough that a bogus request cannot turn into a disk scan.
const maxLookupKeys = 4096

// maxBodyBytes bounds a PUT or lookup body accepted by the server.
const maxBodyBytes = 16 << 20

// Source is what a cache server serves from: the read face returns a
// completed evaluation when any local tier holds it, the write face
// stores a record pushed by a fleet member. Implementations must be
// safe for concurrent use.
type Source interface {
	Lookup(key evalengine.Key) (evalengine.Eval, bool)
	Store(key evalengine.Key, val evalengine.Eval)
}

// CtxSource is the optional context-aware read face of a Source: when a
// handler span is open, the server routes lookups through it so the
// source can record child spans (the disk probe) under the request.
type CtxSource interface {
	LookupCtx(ctx context.Context, key evalengine.Key) (evalengine.Eval, bool)
}

// EngineSource serves an engine's memory LRU backed by its local disk
// store. It deliberately composes only LOCAL tiers: serving through the
// engine's full backend chain would re-enter a remote client and let
// fleet peers proxy-loop through each other, and storing through it
// would re-fan every received PUT back into the fleet. Lookup prefers
// the memory tier (Peek) and falls back to disk; Store memoizes into
// the LRU and persists to disk directly.
type EngineSource struct {
	Engine *evalengine.Engine
	Disk   evalengine.CacheBackend // optional local persistent tier; nil is fine
}

// Lookup implements Source.
func (s EngineSource) Lookup(key evalengine.Key) (evalengine.Eval, bool) {
	return s.LookupCtx(context.Background(), key)
}

// LookupCtx implements CtxSource: a disk probe under an open handler span
// is recorded as an eval.disk child, so a merged trace shows which tier
// of the owning peer answered.
func (s EngineSource) LookupCtx(ctx context.Context, key evalengine.Key) (evalengine.Eval, bool) {
	if s.Engine != nil {
		if val, ok := s.Engine.Peek(key); ok {
			return val, true
		}
	}
	if s.Disk != nil {
		h := tracing.FromContext(ctx)
		sp := h.Begin(tracing.KindEvalDisk, shortKey(key), 0)
		val, ok := s.Disk.Get(key)
		h.End(sp)
		return val, ok
	}
	return evalengine.Eval{}, false
}

// Store implements Source.
func (s EngineSource) Store(key evalengine.Key, val evalengine.Eval) {
	if s.Engine != nil {
		s.Engine.Memoize(key, val)
	}
	if s.Disk != nil {
		s.Disk.Put(key, val)
	}
}

// shortKey is the span-name form of a cache key: enough hex to correlate
// across processes without bloating every span line.
func shortKey(k evalengine.Key) string { return k.String()[:8] }

// lookup routes through the source's context-aware face when both a
// handler span and the face exist.
func lookup(ctx context.Context, src Source, key evalengine.Key) (evalengine.Eval, bool) {
	if cs, ok := src.(CtxSource); ok {
		return cs.LookupCtx(ctx, key)
	}
	return src.Lookup(key)
}

// Register mounts the cache routes on mux. The record body format is
// evalstore's exact on-disk encoding (versioned header, model epoch, key,
// field-encoded evaluation), written and read through
// EncodeRecord/DecodeRecord. A miss is a 404. A PUT record that fails to
// decode, or names another key or model epoch than the one in its path,
// is a 400 and stores nothing: keys are content hashes of the request,
// not the record, so the server cannot re-derive them, but a record can
// only land under the key it was produced for.
//
// rec, when non-nil, records one serve.* span per handler invocation,
// stamped with the caller's propagated trace context (trace ID, remote
// parent span, job ID) — the server half of cross-process tracing. A nil
// recorder keeps every handler at its uninstrumented cost.
func Register(mux *http.ServeMux, src Source, rec *tracing.Recorder) {
	mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, ok := evalengine.ParseKey(r.PathValue("key"))
		if !ok {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		h := tracing.Root(rec)
		sp := h.BeginRemote(tracing.KindServeGet, shortKey(key), 1, tracing.Extract(r.Header))
		defer h.End(sp)
		ctx := tracing.ChildContext(tracing.NewContext(r.Context(), rec), sp)
		val, ok := lookup(ctx, src, key)
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(evalstore.EncodeRecord(key, val))
	})

	mux.HandleFunc("PUT /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, ok := evalengine.ParseKey(r.PathValue("key"))
		if !ok {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		h := tracing.Root(rec)
		sp := h.BeginRemote(tracing.KindServePut, shortKey(key), 1, tracing.Extract(r.Header))
		defer h.End(sp)
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		val, err := evalstore.DecodeRecord(body, key)
		if err != nil {
			http.Error(w, "bad record", http.StatusBadRequest)
			return
		}
		src.Store(key, val)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/cache/lookup", func(w http.ResponseWriter, r *http.Request) {
		var lr lookupRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err := dec.Decode(&lr); err != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		if len(lr.Keys) > maxLookupKeys {
			http.Error(w, "too many keys", http.StatusBadRequest)
			return
		}
		h := tracing.Root(rec)
		sp := h.BeginRemote(tracing.KindServeLookup, "", int64(len(lr.Keys)), tracing.Extract(r.Header))
		defer h.End(sp)
		ctx := tracing.ChildContext(tracing.NewContext(r.Context(), rec), sp)
		hits := make(map[string][]byte)
		for _, hex := range lr.Keys {
			key, ok := evalengine.ParseKey(hex)
			if !ok {
				continue // a malformed key is that key's miss, not the batch's failure
			}
			val, ok := lookup(ctx, src, key)
			if !ok {
				continue
			}
			hits[hex] = evalstore.EncodeRecord(key, val)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(lookupResponse{Hits: hits})
	})
}
