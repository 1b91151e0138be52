// Failure semantics of the remote tier: whatever the network does — dead
// peer, slow peer, corrupt or stale-format record bodies, saturation —
// the client must degrade to a cache miss and a counter, never an error
// into the evaluation path, and Flush/Close must stay nil so no run's
// exit code ever depends on fleet health.

package evalremote

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/sim"
)

// synthKey derives a distinct, uniformly distributed key per index.
func synthKey(i int) evalengine.Key {
	return evalengine.Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
}

func testEval(score float64) evalengine.Eval {
	r := sim.Result{Workload: "unit"}
	r.Instructions = 5000
	r.Cycles = 7321
	r.LoadsL1 = 1200
	return evalengine.Eval{Result: r, Score: score}
}

// mapSource is an in-memory Source for handler tests.
type mapSource struct {
	mu sync.Mutex
	m  map[evalengine.Key]evalengine.Eval
}

func newMapSource() *mapSource {
	return &mapSource{m: make(map[evalengine.Key]evalengine.Eval)}
}

func (s *mapSource) Lookup(k evalengine.Key) (evalengine.Eval, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

func (s *mapSource) Store(k evalengine.Key, v evalengine.Eval) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = v
}

func (s *mapSource) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// startPeer serves a Source over the real routes on a loopback listener.
func startPeer(t *testing.T, src Source) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	Register(mux, src, nil)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestClient(t *testing.T, peers []string, o Options) *Client {
	t.Helper()
	if o.Timeout == 0 {
		o.Timeout = time.Second
	}
	if o.Backoff == 0 {
		o.Backoff = time.Millisecond
	}
	c, err := NewClient(peers, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRingOwnership: ownership is a pure function of the peer set — the
// list order must not matter — and every peer of a small fleet owns a
// healthy share of a uniform key population.
func TestRingOwnership(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	ringA := buildRing(peers)
	ringB := buildRing([]string{peers[0], peers[1], peers[2]})
	counts := make([]int, len(peers))
	const n = 4096
	for i := 0; i < n; i++ {
		k := synthKey(i)
		a := ownerOf(ringA, k)
		if b := ownerOf(ringB, k); peers[a] != peers[b] {
			t.Fatalf("key %d: owner %q vs %q for identical peer sets", i, peers[a], peers[b])
		}
		counts[a]++
	}
	for i, c := range counts {
		if c < n/10 {
			t.Fatalf("peer %d owns %d/%d keys — ring badly unbalanced: %v", i, c, n, counts)
		}
	}
}

// TestRoundTrip: Put → Flush → Get through a real HTTP peer returns the
// exact value and counts one write and one hit.
func TestRoundTrip(t *testing.T) {
	src := newMapSource()
	srv := startPeer(t, src)
	c := newTestClient(t, []string{srv.URL}, Options{})

	k := synthKey(1)
	want := testEval(1.25)
	c.Put(k, want)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if src.len() != 1 {
		t.Fatalf("server holds %d records after flush, want 1", src.len())
	}
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("Get missed a flushed record")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := c.Get(synthKey(2)); ok {
		t.Fatal("Get hit an absent key")
	}
	st := c.Stats()
	if st.RemoteWrites != 1 || st.RemoteHits != 1 || st.RemoteMisses != 1 || st.RemoteErrors != 0 {
		t.Fatalf("stats %+v, want 1 write, 1 hit, 1 miss, 0 errors", st)
	}
}

// TestGetBatch: a mixed batch resolves exactly the present keys in one
// lookup per peer, and the absent ones count as misses.
func TestGetBatch(t *testing.T) {
	src := newMapSource()
	srv := startPeer(t, src)
	c := newTestClient(t, []string{srv.URL}, Options{})

	var keys []evalengine.Key
	want := make(map[evalengine.Key]evalengine.Eval)
	for i := 0; i < 8; i++ {
		k := synthKey(i)
		keys = append(keys, k)
		if i%2 == 0 {
			v := testEval(float64(i))
			src.Store(k, v)
			want[k] = v
		}
	}
	got := c.GetBatch(keys)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch diverged:\n got %+v\nwant %+v", got, want)
	}
	st := c.Stats()
	if st.RemoteHits != 4 || st.RemoteMisses != 4 {
		t.Fatalf("stats %+v, want 4 hits, 4 misses", st)
	}
}

// TestPeerDown: a dead peer yields misses and nil Flush/Close — never an
// error — and after the breaker trips, lookups stop paying the dial.
func TestPeerDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens here anymore
	c := newTestClient(t, []string{url}, Options{
		Timeout: 200 * time.Millisecond, FailThreshold: 2, Cooldown: time.Minute,
	})

	for i := 0; i < 5; i++ {
		if _, ok := c.Get(synthKey(i)); ok {
			t.Fatal("Get hit against a dead peer")
		}
	}
	c.Put(synthKey(9), testEval(1))
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush against a dead peer: %v", err)
	}
	st := c.Stats()
	if st.RemoteMisses != 5 || st.RemoteErrors == 0 || st.RemoteDropped == 0 {
		t.Fatalf("stats %+v, want 5 misses, some errors, the write dropped", st)
	}
	// The breaker is open now (threshold 2, cooldown 1m): a batch against
	// the dead peer must fast-miss without touching the network.
	if got := c.GetBatch([]evalengine.Key{synthKey(20), synthKey(21)}); len(got) != 0 {
		t.Fatalf("batch hit against a dead peer: %v", got)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close against a dead peer: %v", err)
	}
}

// TestPeerSlow: a peer slower than the request timeout is a miss, not a
// stall — the lookup returns within a few timeouts, never the server's
// sleep.
func TestPeerSlow(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	c := newTestClient(t, []string{srv.URL}, Options{Timeout: 50 * time.Millisecond, RetryBudget: 1})

	start := time.Now()
	if _, ok := c.Get(synthKey(1)); ok {
		t.Fatal("Get hit against a hung peer")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("slow-peer lookup took %v, want bounded by the timeout", wall)
	}
	if st := c.Stats(); st.RemoteErrors == 0 || st.RemoteMisses == 0 {
		t.Fatalf("stats %+v, want the timeout counted as error+miss", st)
	}
}

// TestCorruptAndWrongVersionRecords: a body that is not a valid current-
// format record — garbage or a stale format version — is a miss, exactly
// like a quarantined disk record, for both the single and batched reads.
func TestCorruptAndWrongVersionRecords(t *testing.T) {
	for name, body := range map[string]string{
		"garbage":       "not a record at all",
		"wrong_version": "xpeval-record-v0\nstale payload",
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/lookup") {
					fmt.Fprintf(w, `{"hits":{"%s":"%s"}}`, synthKey(1).String(), "AAAA")
					return
				}
				fmt.Fprint(w, body)
			}))
			t.Cleanup(srv.Close)
			c := newTestClient(t, []string{srv.URL}, Options{})
			if _, ok := c.Get(synthKey(1)); ok {
				t.Fatal("Get decoded a corrupt record")
			}
			if got := c.GetBatch([]evalengine.Key{synthKey(1)}); len(got) != 0 {
				t.Fatalf("batch decoded a corrupt record: %v", got)
			}
			st := c.Stats()
			if st.RemoteHits != 0 || st.RemoteMisses != 2 || st.RemoteErrors == 0 {
				t.Fatalf("stats %+v, want 0 hits, 2 misses, errors counted", st)
			}
		})
	}
}

// foreignRecordPeer answers every GET and every lookup with a
// well-formed record of another key — a misrouted or tampered answer.
func foreignRecordPeer(t *testing.T) *httptest.Server {
	t.Helper()
	rec := evalstore.EncodeRecord(synthKey(99), testEval(9))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/lookup") {
			json.NewEncoder(w).Encode(lookupResponse{Hits: map[string][]byte{synthKey(1).String(): rec}})
			return
		}
		w.Write(rec)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestGetRejectsForeignRecord: a GET answered with the record of another
// key is an error and a miss, not a hit for the requested key.
func TestGetRejectsForeignRecord(t *testing.T) {
	c := newTestClient(t, []string{foreignRecordPeer(t).URL}, Options{})
	if _, ok := c.Get(synthKey(1)); ok {
		t.Fatal("Get served the record of another key")
	}
	if st := c.Stats(); st.RemoteHits != 0 || st.RemoteMisses != 1 || st.RemoteErrors != 1 {
		t.Fatalf("stats %+v, want 0 hits, 1 miss, 1 error", st)
	}
}

// TestLookupRejectsForeignRecord: a batched lookup whose answer for a key
// is the record of another key counts that key as an error and a miss.
func TestLookupRejectsForeignRecord(t *testing.T) {
	c := newTestClient(t, []string{foreignRecordPeer(t).URL}, Options{})
	if got := c.GetBatch([]evalengine.Key{synthKey(1)}); len(got) != 0 {
		t.Fatalf("lookup served the record of another key: %v", got)
	}
	if st := c.Stats(); st.RemoteHits != 0 || st.RemoteMisses != 1 || st.RemoteErrors != 1 {
		t.Fatalf("stats %+v, want 0 hits, 1 miss, 1 error", st)
	}
}

// TestPutRejectsForeignRecord: a PUT whose body is a well-formed record
// of another key than its path names is a 400 and stores nothing, so a
// peer never files a record under a key it was not produced for.
func TestPutRejectsForeignRecord(t *testing.T) {
	src := newMapSource()
	srv := startPeer(t, src)
	body := evalstore.EncodeRecord(synthKey(2), testEval(2))
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/cache/"+synthKey(1).String(), bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT of another key's record: %d, want 400", resp.StatusCode)
	}
	if src.len() != 0 {
		t.Fatal("PUT of another key's record stored it")
	}
}

// TestSaturationFailsOpen: at the in-flight cap a lookup misses
// immediately instead of queuing behind the slow requests holding the
// slots.
func TestSaturationFailsOpen(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	src := newMapSource()
	src.Store(synthKey(2), testEval(2))
	mux := http.NewServeMux()
	Register(mux, src, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
			<-release // first request parks, holding the only slot
		default:
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	c := newTestClient(t, []string{srv.URL}, Options{MaxInflight: 1, Timeout: 5 * time.Second})

	done := make(chan struct{})
	go func() { defer close(done); c.Get(synthKey(1)) }()
	<-entered
	start := time.Now()
	if _, ok := c.Get(synthKey(2)); ok {
		t.Fatal("saturated Get should fail open to a miss")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("saturated Get took %v, want immediate", wall)
	}
	release <- struct{}{}
	<-done
}

// TestQueueOverflowDrops: Puts past the queue bound are dropped and
// counted, never blocking the caller.
func TestQueueOverflowDrops(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	c := newTestClient(t, []string{srv.URL}, Options{QueueDepth: 2, Timeout: 50 * time.Millisecond})

	for i := 0; i < 32; i++ {
		c.Put(synthKey(i), testEval(1)) // must never block
	}
	if st := c.Stats(); st.RemoteDropped == 0 {
		t.Fatalf("stats %+v, want overflow drops counted", st)
	}
}

// TestServerRejects: malformed requests get 4xx, never a panic or a
// stored record.
func TestServerRejects(t *testing.T) {
	src := newMapSource()
	srv := startPeer(t, src)

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/cache/nothex"); code != http.StatusBadRequest {
		t.Fatalf("bad key GET: %d, want 400", code)
	}
	if code := get("/v1/cache/" + synthKey(1).String()); code != http.StatusNotFound {
		t.Fatalf("absent key GET: %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/cache/"+synthKey(1).String(),
		strings.NewReader("not a record"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt PUT: %d, want 400", resp.StatusCode)
	}
	if src.len() != 0 {
		t.Fatal("corrupt PUT stored a record")
	}
	resp, err = http.Post(srv.URL+"/v1/cache/lookup", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated lookup: %d, want 400", resp.StatusCode)
	}
}

// TestSharding: with two peers, every key's record lands on exactly its
// ring owner, and a two-peer GetBatch resolves keys from both.
func TestSharding(t *testing.T) {
	srcA, srcB := newMapSource(), newMapSource()
	srvA, srvB := startPeer(t, srcA), startPeer(t, srcB)
	c := newTestClient(t, []string{srvA.URL, srvB.URL}, Options{})

	var keys []evalengine.Key
	for i := 0; i < 64; i++ {
		k := synthKey(i)
		keys = append(keys, k)
		c.Put(k, testEval(float64(i)))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if srcA.len() == 0 || srcB.len() == 0 {
		t.Fatalf("sharding sent everything one way: %d vs %d", srcA.len(), srcB.len())
	}
	if total := srcA.len() + srcB.len(); total != 64 {
		t.Fatalf("peers hold %d records, want 64", total)
	}
	for _, k := range keys {
		owner := ownerOf(c.ring, k)
		src := []*mapSource{srcA, srcB}[owner]
		if _, ok := src.Lookup(k); !ok {
			t.Fatalf("key %s missing from its ring owner (peer %d)", k, owner)
		}
	}
	got := c.GetBatch(keys)
	if len(got) != 64 {
		t.Fatalf("two-peer batch resolved %d/64 keys", len(got))
	}
}
