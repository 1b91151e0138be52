// The service exercised over real HTTP (httptest): the job lifecycle,
// the live event stream, cancellation, error mapping, and the
// multi-tenant property the service exists for — a second identical job
// served from the shared cache without new simulations.

package xpserve

import (
	"bytes"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xpscalar/internal/session"
	"xpscalar/internal/telemetry"
)

// tinyExplore is a seconds-scale exploration request.
func tinyExplore() JobRequest {
	return JobRequest{
		Kind:        KindExplore,
		Workloads:   []string{"gzip"},
		Iterations:  3,
		Chains:      1,
		ShortBudget: 1000,
		LongBudget:  1000,
	}
}

// newTestServer starts a scheduler + HTTP server over a fresh session.
func newTestServer(t *testing.T, o Options) (*httptest.Server, *Scheduler) {
	t.Helper()
	sess := session.New(session.Options{})
	sched := New(sess, o)
	srv := httptest.NewServer(sched.Handler(telemetry.NewRegistry()))
	t.Cleanup(func() {
		srv.Close()
		sched.Shutdown()
	})
	return srv, sched
}

// submit POSTs a job and decodes the accepted status.
func submit(t *testing.T, srv *httptest.Server, req JobRequest) JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("accepted status %+v, want queued with an ID", st)
	}
	return st
}

// await polls a job until it reaches a terminal state.
func await(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLifecycle: a tiny explore job runs to done, its result is the
// outcomes artifact, and its event stream is a valid trace containing the
// search's steps.
func TestJobLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	st := submit(t, srv, tinyExplore())
	final := await(t, srv, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("terminal status missing timestamps: %+v", final)
	}

	var result struct {
		Format   string `json:"format"`
		Outcomes []struct {
			Workload string  `json:"workload"`
			IPT      float64 `json:"ipt"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(final.Result, &result); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if result.Format != "xpscalar-outcomes-v1" {
		t.Fatalf("result format %q, want the outcomes artifact", result.Format)
	}
	if len(result.Outcomes) != 1 || result.Outcomes[0].Workload != "gzip" || result.Outcomes[0].IPT <= 0 {
		t.Fatalf("outcomes %+v, want one gzip outcome with positive IPT", result.Outcomes)
	}

	// The event stream replays as a well-formed trace with anneal steps.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	envs, err := telemetry.ReadEvents(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, env := range envs {
		if env.Event == "anneal_step" {
			steps++
		}
	}
	if steps == 0 {
		t.Fatalf("event stream has no anneal steps (%d events)", len(envs))
	}
	if final.Events != uint64(len(envs)) {
		t.Fatalf("status reports %d events, stream has %d", final.Events, len(envs))
	}
}

// TestEventStreamTailsLive: a client connected while the job runs
// receives events and the stream terminates when the job does.
func TestEventStreamTailsLive(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	req := tinyExplore()
	req.Iterations = 20
	st := submit(t, srv, req)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Reading to EOF only succeeds because job completion closes the
	// stream; a hang here is the regression this test exists for.
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "anneal_step") {
		t.Fatalf("tailed stream carried no anneal steps (%d bytes)", len(body))
	}
	if final := await(t, srv, st.ID); final.State != StateDone {
		t.Fatalf("job ended %s, want done", final.State)
	}
}

// TestSecondTenantServedFromCache: the multi-tenant contract — an
// identical job from a second client is answered from the shared
// session's cache, with zero new simulations and a byte-identical
// result.
func TestSecondTenantServedFromCache(t *testing.T) {
	srv, sched := newTestServer(t, Options{})
	first := await(t, srv, submit(t, srv, tinyExplore()).ID)
	if first.State != StateDone {
		t.Fatalf("first job ended %s", first.State)
	}
	sched.Session().ResetStats()

	second := await(t, srv, submit(t, srv, tinyExplore()).ID)
	if second.State != StateDone {
		t.Fatalf("second job ended %s", second.State)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("identical jobs returned different results:\n%s\nvs\n%s", first.Result, second.Result)
	}
	s := sched.Session().Stats()
	if s.Misses != 0 {
		t.Fatalf("second tenant simulated %d points; want all served from cache (%s)", s.Misses, s.String())
	}
	if s.Requests == 0 || s.Hits == 0 {
		t.Fatalf("second tenant's requests did not hit the cache: %s", s.String())
	}
}

// TestCancelRunningJob: DELETE on a long job flips it to cancelled and
// ends its event stream.
func TestCancelRunningJob(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	req := tinyExplore()
	req.Iterations = 100000 // minutes of work if not cancelled
	st := submit(t, srv, req)

	// Wait until it is actually running (first event emitted).
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var s JobStatus
		json.NewDecoder(cur.Body).Decode(&s)
		cur.Body.Close()
		if s.State == StateRunning && s.Events > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", s.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final := await(t, srv, st.ID); final.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.State)
	}
}

// TestErrorMapping: malformed submissions and unknown IDs map to their
// conventional status codes.
func TestErrorMapping(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"kind": "mine-bitcoin"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", code)
	}
	if code := post(`{"kind": "explore", "workloads": ["nonesuch"]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown workload: status %d, want 400", code)
	}
	if code := post(`{"kind": "explore", "bogus_field": 1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", code)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/job-9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestOversizeJobBodyRejected: a submission over the 1 MiB body bound is
// refused with 400 and creates no job, even when it is otherwise valid
// JSON (here an explore request padded with whitespace).
func TestOversizeJobBodyRejected(t *testing.T) {
	srv, sched := newTestServer(t, Options{})
	body := `{"kind": "explore",` + strings.Repeat(" ", maxJobBodyBytes) + `"seed": 1}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize body: status %d, want 400", resp.StatusCode)
	}
	if jobs := sched.List(); len(jobs) != 0 {
		t.Fatalf("oversize body created %d jobs, want 0", len(jobs))
	}
}

// TestBacklogBound: submits beyond MaxJobs+Backlog are rejected with the
// backlog error while earlier jobs still complete.
func TestBacklogBound(t *testing.T) {
	srv, _ := newTestServer(t, Options{MaxJobs: 1, Backlog: 1})
	// Occupy the worker and the one backlog slot with slow jobs.
	slow := tinyExplore()
	slow.Iterations = 100000
	a := submit(t, srv, slow)
	b := submit(t, srv, slow)

	body, _ := json.Marshal(tinyExplore())
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-backlog submit: status %d, want 429", resp.StatusCode)
	}

	for _, id := range []string{a.ID, b.ID} {
		del, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st := await(t, srv, id); st.State != StateCancelled {
			t.Fatalf("job %s ended %s, want cancelled", id, st.State)
		}
	}
}

// TestListOrder: GET /v1/jobs returns submission order.
func TestListOrder(t *testing.T) {
	srv, _ := newTestServer(t, Options{MaxJobs: 1, Backlog: 8})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, srv, tinyExplore()).ID)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for i, st := range list.Jobs {
		if st.ID != ids[i] {
			t.Fatalf("list order %v, want %v", list.Jobs, ids)
		}
	}
	for _, id := range ids {
		await(t, srv, id)
	}
}

// TestSubsettingJob: the third job kind end to end.
func TestSubsettingJob(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts characteristics for the whole suite")
	}
	srv, _ := newTestServer(t, Options{})
	st := submit(t, srv, JobRequest{Kind: KindSubsetting, Instructions: 2000, KMeans: 3})
	final := await(t, srv, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	var doc struct {
		Format   string     `json:"format"`
		Names    []string   `json:"names"`
		Clusters [][]string `json:"clusters"`
	}
	if err := json.Unmarshal(final.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Format != "xpscalar-subsets-v1" || len(doc.Names) == 0 {
		t.Fatalf("subsetting result %+v malformed", doc)
	}
	members := 0
	for _, c := range doc.Clusters {
		members += len(c)
	}
	if members != len(doc.Names) {
		t.Fatalf("%d workloads across clusters, want %d", members, len(doc.Names))
	}
}

// TestShutdownCancelsQueued: Shutdown flips queued jobs to cancelled and
// returns once workers drain.
func TestShutdownCancelsQueued(t *testing.T) {
	sess := session.New(session.Options{})
	sched := New(sess, Options{MaxJobs: 1, Backlog: 4})
	slow := tinyExplore()
	slow.Iterations = 100000
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := sched.Submit(slow)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	done := make(chan struct{})
	go func() { sched.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Shutdown did not drain")
	}
	for _, id := range ids {
		st, err := sched.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCancelled {
			t.Fatalf("job %s ended %s after shutdown, want cancelled", id, st.State)
		}
	}
	if _, err := sched.Submit(tinyExplore()); err == nil {
		t.Fatal("submit accepted after shutdown")
	}
}

// TestMatrixJob: a two-workload matrix job returns the matrix artifact
// with matrix-cell events on the stream.
func TestMatrixJob(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	req := JobRequest{
		Kind:         KindMatrix,
		Workloads:    []string{"gzip", "mcf"},
		Iterations:   2,
		Chains:       1,
		ShortBudget:  1000,
		LongBudget:   1000,
		Instructions: 1500,
	}
	st := submit(t, srv, req)
	final := await(t, srv, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	var m struct {
		Format string      `json:"format"`
		Names  []string    `json:"names"`
		IPT    [][]float64 `json:"ipt"`
	}
	if err := json.Unmarshal(final.Result, &m); err != nil {
		t.Fatal(err)
	}
	if m.Format != "xpscalar-matrix-v1" || len(m.Names) != 2 || len(m.IPT) != 2 {
		t.Fatalf("matrix result %+v, want a 2x2 matrix artifact", m)
	}
	for i := range m.IPT {
		for j := range m.IPT[i] {
			if m.IPT[i][j] <= 0 {
				t.Fatalf("matrix cell [%d][%d] = %v, want positive IPT", i, j, m.IPT[i][j])
			}
		}
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	envs, err := telemetry.ReadEvents(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, env := range envs {
		if env.Event == "matrix_cell" {
			cells++
		}
	}
	if cells != 4 {
		t.Fatalf("stream carried %d matrix-cell events, want 4", cells)
	}
}
