// Fleet aggregation and the liveness/readiness split, exercised over real
// HTTP: self-reports, merged multi-peer views with a dead peer in the
// set, fleet gauges, readiness flips, and per-job trace stamping.

package xpserve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xpscalar/internal/session"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
)

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestSelfStatus: GET /v1/status reports identity, capacity bounds, the
// job census and cache counters of this process.
func TestSelfStatus(t *testing.T) {
	srv, _ := newTestServer(t, Options{MaxJobs: 3, Backlog: 5})
	st := submit(t, srv, tinyExplore())
	await(t, srv, st.ID)

	var self SelfStatus
	if code := getJSON(t, srv.URL+"/v1/status", &self); code != http.StatusOK {
		t.Fatalf("/v1/status: %d", code)
	}
	if self.Tool != "xpserved" || self.PID == 0 || self.GoVersion == "" {
		t.Errorf("identity not reported: %+v", self)
	}
	if self.Capacity.MaxJobs != 3 || self.Capacity.Backlog != 5 {
		t.Errorf("capacity %+v, want bounds 3/5", self.Capacity)
	}
	if self.Jobs.Done != 1 {
		t.Errorf("jobs %+v, want 1 done", self.Jobs)
	}
	if self.Cache.Requests == 0 {
		t.Errorf("cache counters empty after a job: %+v", self.Cache)
	}
}

// TestFleetAggregation: a two-process fleet plus one dead peer. The
// merged view marks the dead peer down (fail-open), counts the live one,
// and sums job and cache totals over self + reachable peers. The same
// snapshot backs the xpscalar_fleet_* gauges.
func TestFleetAggregation(t *testing.T) {
	peerSrv, _ := newTestServer(t, Options{})
	peerJob := submit(t, peerSrv, tinyExplore())
	await(t, peerSrv, peerJob.ID)

	reg := telemetry.NewRegistry()
	sess := session.New(session.Options{})
	sched := New(sess, Options{})
	f := NewFleet(sched, []string{
		strings.TrimPrefix(peerSrv.URL, "http://"), // host:port form, like -cache-peers
		"127.0.0.1:1", // nothing listens here
	}, FleetOptions{Timeout: 500 * time.Millisecond})
	sched.SetFleet(f)
	f.EnableTelemetry(reg)
	srv := newServerFor(t, sched, reg)

	var fs FleetStatus
	if code := getJSON(t, srv.URL+"/v1/fleet", &fs); code != http.StatusOK {
		t.Fatalf("/v1/fleet: %d", code)
	}
	if len(fs.Peers) != 2 || fs.Reachable != 1 {
		t.Fatalf("peers %d reachable %d, want 2/1: %+v", len(fs.Peers), fs.Reachable, fs.Peers)
	}
	if !fs.Peers[0].Reachable || fs.Peers[0].Status == nil {
		t.Errorf("live peer not reported: %+v", fs.Peers[0])
	}
	if fs.Peers[1].Reachable || fs.Peers[1].Error == "" {
		t.Errorf("dead peer not marked down: %+v", fs.Peers[1])
	}
	if fs.Jobs.Done != 1 {
		t.Errorf("fleet job census %+v, want the peer's 1 done job", fs.Jobs)
	}
	if fs.Cache.Requests != fs.Self.Cache.Requests+fs.Peers[0].Status.Cache.Requests {
		t.Errorf("cache totals not summed: %+v", fs.Cache)
	}

	scrape := httpGetBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		"xpscalar_fleet_peers 2",
		"xpscalar_fleet_peers_reachable 1",
		"xpscalar_fleet_jobs_running 0",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// newServerFor wires an already-configured scheduler into a test server.
func newServerFor(t *testing.T, sched *Scheduler, reg *telemetry.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(sched.Handler(reg))
	t.Cleanup(func() {
		srv.Close()
		sched.Shutdown()
	})
	return srv
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetSelfOnly: /v1/fleet without an attached poller degrades to a
// self-only view with the same shape.
func TestFleetSelfOnly(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	var fs FleetStatus
	if code := getJSON(t, srv.URL+"/v1/fleet", &fs); code != http.StatusOK {
		t.Fatalf("/v1/fleet: %d", code)
	}
	if fs.Self.Tool != "xpserved" || len(fs.Peers) != 0 {
		t.Errorf("self-only view: %+v", fs)
	}
}

// TestReadiness: /readyz is 200 on an idle process, 503 with reasons once
// the backlog saturates or a dependency probe fails, and 503 after
// shutdown — all while /healthz (liveness) stays 200.
func TestReadiness(t *testing.T) {
	srv, sched := newTestServer(t, Options{MaxJobs: 1, Backlog: 1})

	var rd Readiness
	if code := getJSON(t, srv.URL+"/readyz", &rd); code != http.StatusOK || !rd.Ready {
		t.Fatalf("idle readiness: %d %+v", code, rd)
	}

	// Saturate: one running job plus one occupying the single queue slot.
	slow := tinyExplore()
	slow.Iterations = 100000
	a := submit(t, srv, slow)
	b := submit(t, srv, slow)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rd = Readiness{}
		code := getJSON(t, srv.URL+"/readyz", &rd)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readiness never flipped with a full backlog: %+v", rd)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(rd.Reasons) == 0 || !strings.Contains(rd.Reasons[0], "backlog") {
		t.Errorf("saturated reasons %v, want backlog", rd.Reasons)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("liveness should stay green while saturated")
	} else {
		resp.Body.Close()
	}
	for _, id := range []string{a.ID, b.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		await(t, srv, id)
	}

	// A failing dependency probe flips readiness with its name attached.
	sched.SetReadinessProbes(ReadyProbe{Name: "disk", Check: func() error { return io.ErrClosedPipe }})
	rd = Readiness{}
	if code := getJSON(t, srv.URL+"/readyz", &rd); code != http.StatusServiceUnavailable {
		t.Fatalf("failing probe: %d %+v", code, rd)
	}
	if len(rd.Reasons) != 1 || !strings.HasPrefix(rd.Reasons[0], "disk:") {
		t.Errorf("probe reasons %v", rd.Reasons)
	}
	sched.SetReadinessProbes()
	if code := getJSON(t, srv.URL+"/readyz", &rd); code != http.StatusOK {
		t.Fatalf("probe cleared: %d", code)
	}

	sched.Shutdown()
	rd = Readiness{}
	if code := getJSON(t, srv.URL+"/readyz", &rd); code != http.StatusServiceUnavailable {
		t.Fatalf("after shutdown: %d %+v", code, rd)
	}
}

// TestJobTraceStamping: every job gets a fleet-unique trace ID that shows
// up in its status, on every JSONL event envelope, and — when the session
// records spans — on a root "job" span that parents the work's spans.
func TestJobTraceStamping(t *testing.T) {
	rec := tracing.NewRecorder()
	sess := session.New(session.Options{Recorder: rec})
	sched := New(sess, Options{})
	srv := newServerFor(t, sched, telemetry.NewRegistry())

	st := submit(t, srv, tinyExplore())
	if len(st.TraceID) != 16 {
		t.Fatalf("trace ID %q, want 16 hex chars", st.TraceID)
	}
	done := await(t, srv, st.ID)
	if done.TraceID != st.TraceID {
		t.Errorf("trace ID changed across states: %q -> %q", st.TraceID, done.TraceID)
	}

	// Every event envelope carries the job's trace.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var env struct {
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("event line %d: %v", lines, err)
		}
		if env.Trace != st.TraceID {
			t.Fatalf("event line %d trace %q, want %q", lines, env.Trace, st.TraceID)
		}
	}
	if lines == 0 {
		t.Fatal("no events emitted")
	}

	// The job span roots the work under the job's trace ID.
	var job *tracing.Span
	byID := map[tracing.SpanID]tracing.Span{}
	for _, s := range rec.Spans() {
		byID[s.ID] = s
		if s.Kind == tracing.KindJob {
			sp := s
			job = &sp
		}
	}
	if job == nil {
		t.Fatal("no job span recorded")
	}
	if job.Trace != st.TraceID || job.Job != st.ID || job.Name != KindExplore {
		t.Errorf("job span %+v, want trace %s job %s", job, st.TraceID, st.ID)
	}
	// At least one explore-layer span parents up to the job span.
	descends := func(s tracing.Span) bool {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return false
			}
			if p.ID == job.ID {
				return true
			}
			s = p
		}
		return false
	}
	found := false
	for _, s := range rec.Spans() {
		if s.ID != job.ID && descends(s) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no span descends from the job span")
	}
}
