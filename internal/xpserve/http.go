// The HTTP/JSON surface of the exploration service. Five job routes on a
// Go 1.22 pattern mux:
//
//	POST   /v1/jobs             submit (returns 202 + the queued status)
//	GET    /v1/jobs             list all jobs, submission order
//	GET    /v1/jobs/{id}        one job's status (+ result once done)
//	GET    /v1/jobs/{id}/events tail the job's JSONL telemetry stream
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/status           this process's self-report
//	GET    /v1/fleet            merged fleet view (self + polled peers)
//	GET    /readyz              readiness (503 when saturated or a probe fails)
//
// plus the shared observability mount (/metrics, /metrics.json, /healthz,
// /buildinfo, /debug/pprof) from the telemetry registry. Health is split:
// /healthz (telemetry mount) is LIVENESS — the process is up, restart it
// if this fails; /readyz is READINESS — send it new work only on 200. A
// full backlog or a dead cache tier flips readiness while liveness stays
// green. Errors are JSON {"error": ...} with conventional status codes:
// 400 malformed or over 1 MiB, 404 unknown job, 429 backlog full, 503
// shutting down.

package xpserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"xpscalar/internal/telemetry"
)

// Handler builds the service's HTTP handler. A non-nil registry mounts
// the observability endpoints beside the job API.
func (s *Scheduler) Handler(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /readyz", s.handleReady)
	if reg != nil {
		mux.Handle("/", reg.Handler())
	}
	return mux
}

// writeJSON renders one response document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps scheduler errors onto status codes.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrBacklogFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxJobBodyBytes bounds a POST /v1/jobs body. A job request is a few
// hundred bytes of knobs and workload names.
const maxJobBodyBytes = 1 << 20

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("xpserve: decoding job request: %w", err))
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Scheduler) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Scheduler) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Scheduler) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStatus serves this process's self-report — what fleet peers poll.
func (s *Scheduler) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.SelfStatus())
}

// handleFleet serves the merged fleet view. Without an attached poller
// the view degrades to self-only, so the route's shape is stable whether
// or not the process was started with peers.
func (s *Scheduler) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	f := s.fleet
	s.mu.Unlock()
	if f == nil {
		self := s.SelfStatus()
		writeJSON(w, http.StatusOK, FleetStatus{Self: self, Jobs: self.Jobs, Cache: self.Cache})
		return
	}
	writeJSON(w, http.StatusOK, f.Status(r.Context()))
}

// handleReady answers readiness: 200 when the process should receive new
// work, 503 (with the reasons) when it should not.
func (s *Scheduler) handleReady(w http.ResponseWriter, _ *http.Request) {
	rd := s.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}

// handleEvents streams the job's JSONL events from the beginning and
// follows until the job finishes or the client disconnects — `curl -N`
// gives a live view of the search.
func (s *Scheduler) handleEvents(w http.ResponseWriter, r *http.Request) {
	buf, err := s.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	off := 0
	for {
		chunk, ok := buf.next(r.Context(), off)
		if !ok {
			return
		}
		if _, err := w.Write(chunk); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		off += len(chunk)
	}
}
