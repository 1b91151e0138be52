package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalremote"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/session"
	"xpscalar/internal/sim"
	"xpscalar/internal/store"
	"xpscalar/internal/tech"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
	"xpscalar/internal/xpserve"
)

// serveClients is the closed loop's client count: one per vCPU of the
// 2-vCPU host the benchmark was sized on, each with one connection.
const serveClients = 2

// serveWorkloads is how many suite profiles one job explores.
const serveWorkloads = 3

// serveSetupReps is how often serve-mixed's set-up (starting a
// memory-only xpserved) is repeated. Each takes a few
// milliseconds, so many are cheap and steady the median.
const serveSetupReps = 25

// serveParams sizes one served job: under the closed loop's load on a
// 2-vCPU Xeon a fresh explore job takes 0.3–0.5 s and a fresh matrix job,
// the median job, a little less. A shorter matrix job made the median a
// burst of work short enough to swing with the host's wake-up latency.
var serveParams = params{Iterations: 20, Chains: 2, ShortBudget: 4000, LongBudget: 8000, MatrixInstr: 150000}

// jobSpec is one job of the closed loop and whether it repeats an
// earlier request of the same client.
type jobSpec struct {
	req    xpserve.JobRequest
	repeat bool
}

// key identifies a request; equal keys must produce equal results.
func (j jobSpec) key() string {
	b, _ := json.Marshal(j.req) // a JobRequest always marshals
	return string(b)
}

// servePass is how many rounds a pass holds. Every pass runs on a fresh
// server with an empty memory tier and holds the same jobs, so every
// pass does the same work, whatever the run's seed or the host's speed; a
// pass takes about five seconds on a 2-vCPU Xeon.
const servePass = 4

// clientRound is one client's jobs in round r of its pass: a fresh
// explore job, the matrix job over the same exploration (its annealing is
// all memory hits, its cells are fresh), both repeated, then a second
// fresh explore job. Two of five jobs repeat, so the median job is the
// fresh matrix job and the 90th percentile a fresh exploration.
//
// A pass's jobs do not depend on the run's seed, which only picks the
// round the pass starts at; a run's i-th pass starts i rounds later than
// its first, so its passes cycle through the orders. The cost of a fresh
// search varies with its seed by more than the benchmark's bounds, and
// this keeps that variation out of the run-to-run spread. The profiles are fixed per client and
// slot, and a round's four fresh explorations cover the whole suite.
func clientRound(p params, seed int64, r, c int) []jobSpec {
	slot := ((seed%servePass+servePass)%servePass + int64(r)) % servePass
	rng := rand.New(rand.NewSource(slot*serveClients + int64(c)))
	names := append(workload.SuiteNames(), workload.SuiteNames()...)
	mk := func(kind string, s int64, wl []string) xpserve.JobRequest {
		return xpserve.JobRequest{Kind: kind, Workloads: wl, Seed: &s, Iterations: p.Iterations, Chains: p.Chains,
			ShortBudget: p.ShortBudget, LongBudget: p.LongBudget, Instructions: p.MatrixInstr}
	}
	s1, s2 := rng.Int63n(1<<40), rng.Int63n(1<<40)
	at := 2 * serveWorkloads * c
	w1, w2 := names[at:at+serveWorkloads], names[at+serveWorkloads:at+2*serveWorkloads]
	e1, m1 := mk(xpserve.KindExplore, s1, w1), mk(xpserve.KindMatrix, s1, w1)
	return []jobSpec{{e1, false}, {m1, false}, {e1, true}, {m1, true}, {mk(xpserve.KindExplore, s2, w2), false}}
}

// jobRecord is one completed job as the client saw it.
type jobRecord struct {
	spec      jobSpec
	latency   time.Duration // POST sent to the finished state observed
	submit    time.Duration // POST round trip
	queueWait time.Duration // JobStatus StartedAt - CreatedAt
	run       time.Duration // JobStatus FinishedAt - StartedAt
	rejected  int           // 429 answers before the job was accepted
	state     string
	result    []byte // compacted result document
}

// jobClient is one closed-loop client with its own single connection.
type jobClient struct {
	base string
	http *http.Client
}

func newJobClient(base string) *jobClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &jobClient{base: base, http: &http.Client{Transport: tr}}
}

// do posts one job and waits for it to finish by tailing its event
// stream, which the server ends when the job reaches a final state.
func (c *jobClient) do(ctx context.Context, spec jobSpec) (jobRecord, error) {
	rec := jobRecord{spec: spec}
	body, err := json.Marshal(spec.req)
	if err != nil {
		return rec, err
	}
	start := time.Now()
	var st xpserve.JobStatus
	for {
		code, err := c.call(ctx, http.MethodPost, "/v1/jobs", body, &st)
		if err != nil {
			return rec, err
		}
		if code == http.StatusAccepted {
			break
		}
		if code != http.StatusTooManyRequests {
			return rec, fmt.Errorf("POST /v1/jobs: status %d", code)
		}
		rec.rejected++
		select {
		case <-ctx.Done():
			return rec, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	rec.submit = time.Since(start)
	if _, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil, nil); err != nil {
		return rec, err
	}
	rec.latency = time.Since(start)
	if _, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err != nil {
		return rec, err
	}
	rec.state = st.State
	if st.StartedAt != nil && st.FinishedAt != nil {
		rec.queueWait = st.StartedAt.Sub(st.CreatedAt)
		rec.run = st.FinishedAt.Sub(*st.StartedAt)
	}
	var buf bytes.Buffer
	if len(st.Result) > 0 {
		if err := json.Compact(&buf, st.Result); err != nil {
			return rec, err
		}
	}
	rec.result = buf.Bytes()
	return rec, nil
}

// call sends one request and decodes a JSON answer into out (the body is
// drained either way). It returns the status code.
func (c *jobClient) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// loopResult is one pass of the closed loop: every job, every round's
// wall time and the pass's wall time.
type loopResult struct {
	jobs   []jobRecord
	rounds []time.Duration
	wall   time.Duration
}

// roundWall is the pass's mean round time. A pass's total work does not
// depend on the order of its rounds; which round pays for a simulation
// that two of them share does.
func (l loopResult) roundWall() float64 { return l.wall.Seconds() / float64(len(l.rounds)) }

// closedLoop runs one pass of the clients against base in lockstep: at
// each step every client posts its next job and waits for it to finish,
// and the next step starts when all have. Each job therefore always shares
// the server with the other clients' jobs of the same kind, rather than
// with whichever job free-running clients happen to overlap, which would
// change from run to run.
func closedLoop(ctx context.Context, base string, p params, seed int64) (loopResult, error) {
	var res loopResult
	clients := make([]*jobClient, serveClients)
	for c := range clients {
		clients[c] = newJobClient(base)
		defer clients[c].http.CloseIdleConnections()
	}
	begin := time.Now()
	for r := 0; r < servePass; r++ {
		start := time.Now()
		specs := make([][]jobSpec, serveClients)
		for c := range specs {
			specs[c] = clientRound(p, seed, r, c)
		}
		for step := range specs[0] {
			recs := make([]jobRecord, serveClients)
			errs := make([]error, serveClients)
			var wg sync.WaitGroup
			for c := range clients {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					recs[c], errs[c] = clients[c].do(ctx, specs[c][step])
				}(c)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return res, err
			}
			res.jobs = append(res.jobs, recs...)
		}
		res.rounds = append(res.rounds, time.Since(start))
	}
	res.wall = time.Since(begin)
	return res, nil
}

// morePasses reports whether another pass, projected from the n passes
// that took elapsed, still ends within d. The first pass always runs.
func morePasses(n int, elapsed, d time.Duration) bool {
	return n == 0 || elapsed+elapsed/time.Duration(n) <= d
}

// replicas are the direct, in-process answers to a closed loop's
// requests, and the work the server should have done to give them.
type replicas struct {
	results  map[string][]byte // by request key; compacted, comparable with jobRecord.result
	requests uint64            // evaluation requests the jobs make, repeats included
	misses   uint64            // distinct evaluations among them
	simInstr uint64            // instruction budgets of those distinct evaluations
}

// replay runs every distinct request of one pass directly, in order, on
// one fresh session. The session plays the server's role: every
// evaluation it simulates is one the server must simulate once, whichever
// job asks first, and every repeat is a hit.
func replay(ctx context.Context, jobs []jobRecord) (replicas, error) {
	want := replicas{results: map[string][]byte{}}
	sess := session.New(session.Options{})
	defer sess.Close()
	ic := &instrCounter{}
	sess.SetEvalObserver(ic)
	perKey := map[string]uint64{}
	for _, j := range jobs {
		key := j.spec.key()
		if _, ok := want.results[key]; !ok {
			req0 := sess.Stats().Requests
			doc, err := directJob(ctx, sess, j.spec.req)
			if err != nil {
				return want, err
			}
			want.results[key], perKey[key] = doc, sess.Stats().Requests-req0
		}
		want.requests += perKey[key]
	}
	want.misses, want.simInstr = sess.Stats().Misses, ic.simulated.Load()
	return want, nil
}

// checkJobs compares every job of a pass with its direct answer, and
// counts the pass's attempted and failed operations.
func checkJobs(rep *report, jobs []jobRecord, want replicas) {
	for _, j := range jobs {
		rep.attempted += int64(1 + j.rejected)
		rep.failed += int64(j.rejected)
		if j.state != xpserve.StateDone {
			rep.failed++
			rep.mismatch("job %s ended %s", j.spec.req.Kind, j.state)
		} else if !bytes.Equal(j.result, want.results[j.spec.key()]) {
			rep.mismatch("%s job (seed %d) result differs from a direct run", j.spec.req.Kind, *j.spec.req.Seed)
		}
	}
}

// directJob computes a job's result document the way xpserve does, but
// through session calls made here.
func directJob(ctx context.Context, sess *session.Session, req xpserve.JobRequest) ([]byte, error) {
	var ps []workload.Profile
	for _, name := range req.Workloads {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ps = append(ps, p)
	}
	p := params{Iterations: req.Iterations, Chains: req.Chains, ShortBudget: req.ShortBudget, LongBudget: req.LongBudget}
	outs, err := sess.ExploreSuite(ctx, ps, p.exploreOptions(*req.Seed))
	if err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	if req.Kind == xpserve.KindExplore {
		err = store.WriteOutcomes(&doc, outs)
	} else {
		configs := make([]sim.Config, len(outs))
		for i, o := range outs {
			configs[i] = o.Best
		}
		m, merr := sess.CrossMatrix(ctx, ps, configs, req.Instructions, tech.Default())
		if merr != nil {
			return nil, merr
		}
		err = store.WriteMatrix(&doc, m)
	}
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Compact(&out, doc.Bytes()); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// totalAlloc reads the cumulative heap allocation from the
// runtime.MemStats section of a Go server's /debug/pprof/heap?debug=1 page.
func totalAlloc(ctx context.Context, base string) (float64, error) {
	vals, err := scrape(ctx, base+"/debug/pprof/heap?debug=1", "# ", " = ")
	return vals["TotalAlloc"], err
}

// evalCounts reads the engine's request and simulation counters from
// /metrics.
func evalCounts(ctx context.Context, base string) (requests, misses float64, err error) {
	vals, err := scrape(ctx, base+"/metrics", "", " ")
	return vals["xpscalar_eval_requests_total"], vals["xpscalar_eval_misses_total"], err
}

// scrape fetches url and parses its "<prefix>name<sep>number" lines.
func scrape(ctx context.Context, url, prefix, sep string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		if k, v, ok := strings.Cut(line, sep); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				vals[k] = f
			}
		}
	}
	return vals, sc.Err()
}

// runServe runs serve-mixed. Untraced, the jobs go to memory-only
// cmd/xpserved children, a fresh one per pass; traced, to the same
// composition built in this process, so the session's recorder and
// observer can see inside it.
//
// The servers have no disk tier. Its write-behind fsyncs each record, and
// under the burst of writes a fresh exploration makes, the jobs waited on
// the host disk's flush latency, which moves with the disk's other users:
// in alternating runs on a 2-vCPU Xeon VM, a pass took 0-25% longer with
// the cache directory on disk than on tmpfs. fleet-warm measures the disk
// writes instead, in its set-up.
func runServe(ctx context.Context, e *env) (*report, error) {
	if e.trace {
		return runServeTraced(ctx, e)
	}
	rep := &report{}
	bin := filepath.Join(e.bin, "xpserved")
	var setups []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	start := func() error {
		if srv != nil {
			srv.stop(10 * time.Second)
			srv = nil
		}
		t := time.Now()
		s, err := startServer(ctx, bin, "", e.tmp)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		srv = s
		return nil
	}
	// The last set-up's server runs the first pass.
	for i := 0; i < serveSetupReps; i++ {
		if err := start(); err != nil {
			return nil, err
		}
	}

	var passes []servedPass
	begin := time.Now()
	for i := 0; morePasses(i, time.Since(begin), e.seconds); i++ {
		if i > 0 {
			if err := start(); err != nil {
				return nil, err
			}
		}
		sp, err := measurePass(ctx, srv, e.serve, e.seed+int64(i))
		if err != nil {
			return nil, err
		}
		srv.stop(10 * time.Second)
		srv = nil
		passes = append(passes, sp)
	}

	// Every pass holds the same jobs on an empty server, so one direct
	// replay answers them all.
	want, err := replay(ctx, passes[0].loop.jobs)
	if err != nil {
		return nil, err
	}
	// Each metric is a median over passes of the pass's value, so a burst
	// of load from outside that slows one pass does not move it.
	var walls, table4, p50, p90, jobRate, evalRate, simRate, alloc, rss []float64
	for _, sp := range passes {
		checkJobs(rep, sp.loop.jobs, want)
		if served := uint64(sp.requests); served != want.requests {
			rep.mismatch("server answered %d evaluation requests, direct runs of the same jobs make %d", served, want.requests)
		}
		if simulated := uint64(sp.misses); simulated != want.misses {
			rep.mismatch("server simulated %d evaluations, direct runs of the same jobs simulate %d", simulated, want.misses)
		}
		var lat, explore []float64
		for _, j := range sp.loop.jobs {
			s := j.latency.Seconds()
			lat = append(lat, s)
			if !j.spec.repeat && j.spec.req.Kind == xpserve.KindExplore {
				explore = append(explore, s)
			}
		}
		wall := sp.loop.wall.Seconds()
		walls = append(walls, sp.loop.roundWall())
		table4 = append(table4, median(explore))
		p50 = append(p50, median(lat))
		p90 = append(p90, quantile(lat, 0.9))
		jobRate = append(jobRate, float64(len(lat))/wall)
		evalRate = append(evalRate, sp.requests/wall)
		simRate = append(simRate, float64(want.simInstr)/1e6/wall)
		alloc = append(alloc, sp.alloc/float64(len(sp.loop.rounds))/(1<<20))
		rss = append(rss, sp.rss...)
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("wall_s", median(walls), "s")
	rep.set("table4_s", median(table4), "s")
	rep.set("job_p50_s", median(p50), "s")
	rep.set("job_p90_s", median(p90), "s")
	rep.set("jobs_per_s", median(jobRate), "1/s")
	rep.set("evals_per_s", median(evalRate), "1/s")
	rep.set("sim_minstr_per_s", median(simRate), "Minstr/s")
	rep.set("alloc_mb", median(alloc), "MB")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("ok_ratio", okRatio(rep), "ratio")
	return rep, nil
}

// servedPass is one pass on an xpserved child and what the child's
// counters and memory showed over it.
type servedPass struct {
	loop             loopResult
	requests, misses float64   // evaluation requests answered and simulated
	alloc            float64   // heap bytes allocated
	rss              []float64 // peak resident set per sampling window, MB
}

// measurePass runs one pass, starting at seed's round, against srv, reading its counters around it.
func measurePass(ctx context.Context, srv *server, p params, seed int64) (servedPass, error) {
	var sp servedPass
	req0, miss0, err := evalCounts(ctx, srv.url)
	if err != nil {
		return sp, err
	}
	alloc0, err := totalAlloc(ctx, srv.url)
	if err != nil {
		return sp, err
	}
	stopRSS := sampleRSS(srv.child, 500*time.Millisecond)
	sp.loop, err = closedLoop(ctx, srv.url, p, seed)
	sp.rss = stopRSS()
	if err != nil {
		return sp, err
	}
	req1, miss1, err := evalCounts(ctx, srv.url)
	if err != nil {
		return sp, err
	}
	alloc1, err := totalAlloc(ctx, srv.url)
	if err != nil {
		return sp, err
	}
	sp.requests, sp.misses, sp.alloc = req1-req0, miss1-miss0, alloc1-alloc0
	return sp, nil
}

// sampleRSS records the child's peak resident set size over consecutive
// windows of length every, until the returned stop function is called; stop
// returns the per-window peaks in MB, the last window cut short by stop. A
// median over windows is steadier than the peak of a whole run, which
// hinges on one GC cycle's timing.
func sampleRSS(c *child, every time.Duration) (stop func() []float64) {
	done := make(chan struct{})
	var peaks []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		c.resetPeakRSS()
		for {
			var last bool
			select {
			case <-done:
				last = true
			case <-tick.C:
			}
			if mb, err := c.peakRSSMB(); err == nil {
				peaks = append(peaks, mb)
			}
			if last {
				return
			}
			c.resetPeakRSS()
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return peaks
	}
}

// inProcServer is cmd/xpserved's composition — session over a disk tier,
// scheduler, job API and fleet cache routes on one loopback listener —
// built in this process.
type inProcServer struct {
	url   string
	sess  *session.Session
	sched *xpserve.Scheduler
	http  *http.Server
	done  chan struct{}
}

// startInProc starts the composition over the disk tier dir, or memory
// only when dir is empty; rec and timer, when non-nil, record spans and
// time the disk tier.
func startInProc(dir string, rec *tracing.Recorder, timer *tierTimer) (*inProcServer, error) {
	var be evalengine.CacheBackend
	if dir != "" {
		st, err := evalstore.Open(dir)
		if err != nil {
			return nil, err
		}
		be = st
		if timer != nil {
			be = timeTier(st, timer)
		}
	}
	sess := session.New(session.Options{Engine: evalengine.Options{Backend: be}, Recorder: rec})
	reg := telemetry.NewRegistry()
	sess.EnableTelemetry(reg)
	sched := xpserve.New(sess, xpserve.Options{MaxJobs: 2, Backlog: 16})
	sched.EnableTelemetry(reg)
	mux := http.NewServeMux()
	evalremote.Register(mux, evalremote.EngineSource{Engine: sess.Engine(), Disk: be}, rec)
	mux.Handle("/", sched.Handler(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Shutdown()
		sess.Close()
		return nil, err
	}
	s := &inProcServer{url: "http://" + ln.Addr().String(), sess: sess, sched: sched,
		http: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // ends with ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts down in xpserved's order — scheduler, HTTP, then the
// session, flushing its disk tier — and waits for the server goroutine.
func (s *inProcServer) stop() error {
	s.sched.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	if ferr := s.sess.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// runServeTraced alternates untraced and traced passes, each on a fresh
// in-process server, and reports the median over traced passes of their
// layers (totals over the pass), with the overhead ratio of their round
// walls.
func runServeTraced(ctx context.Context, e *env) (*report, error) {
	rep := &report{}
	var srv *inProcServer
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var all, first []jobRecord
	var samples []layerSample
	var tw, uw []float64
	begin := time.Now()
	for i := 0; i < 2 || morePasses(i, time.Since(begin), e.seconds); i++ {
		traced := i%2 == 1
		var rec *tracing.Recorder
		if traced {
			rec = tracing.NewRecorder()
		}
		var err error
		if srv, err = startInProc("", rec, nil); err != nil {
			return nil, err
		}
		gc0, pause0 := gcSnapshot()
		loop, err := closedLoop(ctx, srv.url, e.serve, e.seed+int64(i))
		if err != nil {
			return nil, err
		}
		gc1, pause1 := gcSnapshot()
		all = append(all, loop.jobs...)
		if i == 0 {
			first = loop.jobs
		}
		if !traced {
			uw = append(uw, loop.roundWall())
		} else {
			s := layerSample{}
			spanLayers(s, rec.Spans(), loop.wall, workers())
			statsLayers(s, srv.sess.Stats())
			jobLayers(s, loop.jobs)
			s["runtime.gc_cycles"] = float64(gc1 - gc0)
			s["runtime.gc_pause_ms"] = float64((pause1 - pause0).Microseconds()) / 1e3
			samples = append(samples, s)
			tw = append(tw, loop.roundWall())
		}
		s := srv
		srv = nil
		if err := s.stop(); err != nil {
			return nil, err
		}
	}

	want, err := replay(ctx, first)
	if err != nil {
		return nil, err
	}
	checkJobs(rep, all, want)
	setLayers(rep, samples, tw, uw)
	return rep, nil
}

// jobLayers sets the job scheduler's layer metrics from one pass's jobs.
func jobLayers(s layerSample, jobs []jobRecord) {
	var waits, runs, submits, matrix []float64
	for _, j := range jobs {
		if !j.spec.repeat && j.spec.req.Kind == xpserve.KindMatrix {
			matrix = append(matrix, j.latency.Seconds())
		}
		s["xpserve.rejected"] += float64(j.rejected)
		waits = append(waits, j.queueWait.Seconds())
		runs = append(runs, j.run.Seconds())
		submits = append(submits, float64(j.submit.Microseconds())/1e3)
	}
	s["core.matrix_s"] = median(matrix)
	s["xpserve.queue_wait_s_p50"] = median(waits)
	s["xpserve.run_s_p50"] = median(runs)
	s["xpserve.submit_ms_p50"] = median(submits)
}
