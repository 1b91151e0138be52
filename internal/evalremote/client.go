package evalremote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
)

// Options tunes a Client. The zero value selects defaults sized so that
// a healthy LAN peer answers well inside a simulation's wall time and an
// unhealthy one is cut loose fast.
type Options struct {
	// Timeout bounds each HTTP request end to end (default 2s).
	Timeout time.Duration
	// MaxInflight caps concurrent lookups; past the cap a lookup is an
	// immediate miss, never a queued wait (default 32).
	MaxInflight int
	// QueueDepth bounds the write-behind queue; a full queue drops the
	// record (default 256).
	QueueDepth int
	// RetryBudget is the shared pool of transport-error retries,
	// refilled by successes up to this cap (default 8).
	RetryBudget int
	// Backoff is the pause before a retry (default 25ms).
	Backoff time.Duration
	// FailThreshold consecutive failures trip a peer's breaker
	// (default 3).
	FailThreshold int
	// Cooldown is how long a tripped peer is skipped (default 3s).
	Cooldown time.Duration
	// MaxRecordBytes bounds a response or request body (default 16MB).
	MaxRecordBytes int64
}

func (o *Options) fill() {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 32
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 8
	}
	if o.Backoff <= 0 {
		o.Backoff = 25 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 3 * time.Second
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 16 << 20
	}
}

// peer is one remote cache server plus its breaker state.
type peer struct {
	base string // normalized base URL, no trailing slash

	fails     atomic.Int32 // consecutive failures since last success
	downUntil atomic.Int64 // UnixNano until which the peer is skipped
}

func (p *peer) available() bool {
	return time.Now().UnixNano() >= p.downUntil.Load()
}

func (p *peer) noteSuccess() { p.fails.Store(0) }

func (p *peer) noteFailure(threshold int32, cooldown time.Duration) {
	if p.fails.Add(1) >= threshold {
		p.fails.Store(0)
		p.downUntil.Store(time.Now().Add(cooldown).UnixNano())
	}
}

// putReq is one unit of work for the write-behind goroutine.
type putReq struct {
	key     evalengine.Key
	val     evalengine.Eval
	barrier chan struct{} // non-nil: flush marker, close when reached
}

// Client is the fleet-side face of the remote cache tier: an
// evalengine.CacheBackend that shards keys over its peers by consistent
// hash and fails open to a miss on every failure mode. Safe for
// concurrent use.
type Client struct {
	peers     []*peer
	ring      []ringPoint
	o         Options
	transport *http.Transport
	http      *http.Client

	inflight chan struct{} // lookup concurrency semaphore
	budget   atomic.Int64  // shared retry tokens

	queue chan putReq
	wg    sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	hits    atomic.Uint64
	misses  atomic.Uint64
	errors  atomic.Uint64
	writes  atomic.Uint64
	dropped atomic.Uint64

	hist atomic.Pointer[telemetry.Histogram]
}

// NewClient builds a client over the given peer base URLs (e.g.
// "http://host:9090"). The peer list order is irrelevant to ownership —
// the ring hashes the URLs — but every fleet member must be configured
// with the same set for the sharding to line up.
func NewClient(peers []string, o Options) (*Client, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("evalremote: no peers")
	}
	o.fill()
	bases := make([]string, len(peers))
	for i, raw := range peers {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("evalremote: peer %q: need a scheme://host base URL", raw)
		}
		bases[i] = strings.TrimRight(u.String(), "/")
	}
	tr := &http.Transport{
		MaxIdleConnsPerHost: o.MaxInflight,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &Client{
		ring:      buildRing(bases),
		o:         o,
		transport: tr,
		http:      &http.Client{Transport: tr},
		inflight:  make(chan struct{}, o.MaxInflight),
		queue:     make(chan putReq, o.QueueDepth),
	}
	c.peers = make([]*peer, len(bases))
	for i, b := range bases {
		c.peers[i] = &peer{base: b}
	}
	c.budget.Store(int64(o.RetryBudget))
	c.wg.Add(1)
	go c.writer()
	return c, nil
}

// retryToken takes one retry from the shared budget; refill returns one
// on success, capped at the configured budget (the cap check is racy by
// a token or two, which only bounds retries slightly loosely).
func (c *Client) retryToken() bool {
	if c.budget.Add(-1) >= 0 {
		return true
	}
	c.budget.Add(1)
	return false
}

func (c *Client) refill() {
	if c.budget.Load() < int64(c.o.RetryBudget) {
		c.budget.Add(1)
	}
}

// acquire takes a lookup slot without blocking; a false return means the
// tier is saturated and the lookup should miss immediately.
func (c *Client) acquire() bool {
	select {
	case c.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (c *Client) release() { <-c.inflight }

func (c *Client) observe(start time.Time) {
	if h := c.hist.Load(); h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Get implements evalengine.CacheBackend: one GET to the key's owning
// peer. Every failure — breaker open, saturation, transport error past
// the retry budget, undecodable record — is a miss, never an error.
func (c *Client) Get(k evalengine.Key) (evalengine.Eval, bool) {
	return c.GetCtx(context.Background(), k)
}

// GetCtx implements evalengine.CtxGetter: the same lookup, but the
// caller's trace context flows in — the round trip gets a remote.get span
// under the context's current span, and the request carries propagation
// headers so the owning peer's handler spans join the same trace. With
// tracing off the context costs one branch and nothing else.
func (c *Client) GetCtx(ctx context.Context, k evalengine.Key) (evalengine.Eval, bool) {
	p := c.peers[ownerOf(c.ring, k)]
	if !p.available() || !c.acquire() {
		c.misses.Add(1)
		return evalengine.Eval{}, false
	}
	defer c.release()
	th := tracing.FromContext(ctx)
	sp := th.Begin(tracing.KindRemoteGet, p.base, 1)
	defer th.End(sp)
	ctx = tracing.ChildContext(ctx, sp)
	start := time.Now()
	val, found, err := c.getOnce(ctx, p, k)
	if err != nil && c.retryToken() {
		time.Sleep(c.o.Backoff)
		val, found, err = c.getOnce(ctx, p, k)
	}
	c.observe(start)
	if err != nil {
		p.noteFailure(int32(c.o.FailThreshold), c.o.Cooldown)
		c.errors.Add(1)
		c.misses.Add(1)
		return evalengine.Eval{}, false
	}
	p.noteSuccess()
	c.refill()
	if !found {
		c.misses.Add(1)
		return evalengine.Eval{}, false
	}
	c.hits.Add(1)
	return val, true
}

func (c *Client) getOnce(ctx context.Context, p *peer, k evalengine.Key) (evalengine.Eval, bool, error) {
	// The HTTP deadline stays detached from the run context on purpose —
	// cache lookups must never inherit a nearly expired run deadline and
	// turn it into a peer failure — but the trace context still rides
	// along as headers.
	rctx, cancel := context.WithTimeout(context.Background(), c.o.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, p.base+"/v1/cache/"+k.String(), nil)
	if err != nil {
		return evalengine.Eval{}, false, err
	}
	tracing.Inject(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return evalengine.Eval{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, c.o.MaxRecordBytes))
		if err != nil {
			return evalengine.Eval{}, false, err
		}
		val, err := evalstore.DecodeRecord(body, k)
		if err != nil {
			return evalengine.Eval{}, false, err
		}
		return val, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return evalengine.Eval{}, false, nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return evalengine.Eval{}, false, fmt.Errorf("evalremote: %s: status %d", p.base, resp.StatusCode)
	}
}

// lookupRequest and lookupResponse are the POST /v1/cache/lookup wire
// shape: hex keys in, a hex-key → record-bytes map out (records base64
// under encoding/json's []byte rule).
type lookupRequest struct {
	Keys []string `json:"keys"`
}

type lookupResponse struct {
	Hits map[string][]byte `json:"hits"`
}

// GetBatch implements evalengine.BatchGetter: the keys are grouped by
// owning peer and each group is one POST /v1/cache/lookup. Failure
// semantics match Get — a peer that cannot answer contributes misses.
func (c *Client) GetBatch(keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	return c.GetBatchCtx(context.Background(), keys)
}

// GetBatchCtx implements evalengine.CtxBatchGetter: one remote.lookup
// span and one set of propagation headers per owning-peer group.
func (c *Client) GetBatchCtx(ctx context.Context, keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	found := make(map[evalengine.Key]evalengine.Eval)
	groups := make(map[int][]evalengine.Key)
	for _, k := range keys {
		pi := ownerOf(c.ring, k)
		groups[pi] = append(groups[pi], k)
	}
	th := tracing.FromContext(ctx)
	for pi, group := range groups {
		p := c.peers[pi]
		if !p.available() || !c.acquire() {
			c.misses.Add(uint64(len(group)))
			continue
		}
		sp := th.Begin(tracing.KindRemoteLookup, p.base, int64(len(group)))
		gctx := tracing.ChildContext(ctx, sp)
		start := time.Now()
		hits, err := c.lookupOnce(gctx, p, group)
		if err != nil && c.retryToken() {
			time.Sleep(c.o.Backoff)
			hits, err = c.lookupOnce(gctx, p, group)
		}
		c.observe(start)
		c.release()
		th.End(sp)
		if err != nil {
			p.noteFailure(int32(c.o.FailThreshold), c.o.Cooldown)
			c.errors.Add(1)
			c.misses.Add(uint64(len(group)))
			continue
		}
		p.noteSuccess()
		c.refill()
		for _, k := range group {
			body, ok := hits[k.String()]
			if !ok {
				c.misses.Add(1)
				continue
			}
			val, err := evalstore.DecodeRecord(body, k)
			if err != nil {
				// One bad record — undecodable, or the record of another
				// key or epoch — is that record's problem, not the batch's.
				c.errors.Add(1)
				c.misses.Add(1)
				continue
			}
			c.hits.Add(1)
			found[k] = val
		}
	}
	return found
}

func (c *Client) lookupOnce(ctx context.Context, p *peer, keys []evalengine.Key) (map[string][]byte, error) {
	hexKeys := make([]string, len(keys))
	for i, k := range keys {
		hexKeys[i] = k.String()
	}
	body, err := json.Marshal(lookupRequest{Keys: hexKeys})
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithTimeout(context.Background(), c.o.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, p.base+"/v1/cache/lookup", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	tracing.Inject(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("evalremote: %s: lookup status %d", p.base, resp.StatusCode)
	}
	var lr lookupResponse
	dec := json.NewDecoder(io.LimitReader(resp.Body, c.o.MaxRecordBytes))
	if err := dec.Decode(&lr); err != nil {
		return nil, err
	}
	return lr.Hits, nil
}

// Put implements evalengine.CacheBackend: the record is enqueued for the
// write-behind goroutine; a full queue or a closed client drops it
// (counted). Remote record loss is harmless — the faster tiers already
// hold the evaluation.
func (c *Client) Put(k evalengine.Key, val evalengine.Eval) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		c.dropped.Add(1)
		return
	}
	select {
	case c.queue <- putReq{key: k, val: val}:
	default:
		c.dropped.Add(1)
	}
}

func (c *Client) writer() {
	defer c.wg.Done()
	for req := range c.queue {
		if req.barrier != nil {
			close(req.barrier)
			continue
		}
		c.writeNow(req.key, req.val)
	}
}

func (c *Client) writeNow(k evalengine.Key, val evalengine.Eval) {
	p := c.peers[ownerOf(c.ring, k)]
	if !p.available() {
		c.dropped.Add(1)
		return
	}
	body := evalstore.EncodeRecord(k, val)
	err := c.putOnce(p, k, body)
	if err != nil && c.retryToken() {
		time.Sleep(c.o.Backoff)
		err = c.putOnce(p, k, body)
	}
	if err != nil {
		p.noteFailure(int32(c.o.FailThreshold), c.o.Cooldown)
		c.errors.Add(1)
		c.dropped.Add(1)
		return
	}
	p.noteSuccess()
	c.refill()
	c.writes.Add(1)
}

func (c *Client) putOnce(p *peer, k evalengine.Key, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.o.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.base+"/v1/cache/"+k.String(), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("evalremote: %s: put status %d", p.base, resp.StatusCode)
	}
	return nil
}

// Flush implements evalengine.CacheBackend: it blocks until every Put
// accepted before the call has been delivered or dropped. It always
// returns nil — remote delivery failures are counters, never run
// failures.
func (c *Client) Flush() error {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil
	}
	b := make(chan struct{})
	c.queue <- putReq{barrier: b}
	c.mu.RUnlock()
	<-b
	return nil
}

// Close implements evalengine.CacheBackend: it drains the queue, stops
// the writer, and releases idle connections. Always nil, for the same
// reason as Flush. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.queue)
	c.wg.Wait()
	c.transport.CloseIdleConnections()
	return nil
}

// Stats implements evalengine.CacheBackend, populating only the Remote*
// family so a Tiered sum stays a disjoint merge.
func (c *Client) Stats() evalengine.BackendStats {
	return evalengine.BackendStats{
		RemoteHits:    c.hits.Load(),
		RemoteMisses:  c.misses.Load(),
		RemoteErrors:  c.errors.Load(),
		RemoteWrites:  c.writes.Load(),
		RemoteDropped: c.dropped.Load(),
	}
}

// Peers returns the configured peer base URLs, in construction order.
func (c *Client) Peers() []string {
	out := make([]string, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.base
	}
	return out
}

// Down reports how many peers are currently skipped by the failure
// breaker, alongside the configured total — the readiness probe's view of
// remote-tier availability.
func (c *Client) Down() (down, total int) {
	for _, p := range c.peers {
		if !p.available() {
			down++
		}
	}
	return down, len(c.peers)
}

// EnableTelemetry registers the client's own metrics: the per-request
// latency histogram and peer-health gauges. The Remote* counters are
// exported by the engine from BackendStats, so they are not duplicated
// here.
func (c *Client) EnableTelemetry(reg *telemetry.Registry) {
	c.hist.Store(reg.Histogram("xpscalar_eval_remote_seconds",
		"wall time of remote cache requests", telemetry.ExpBuckets(1e-5, 2, 16)))
	reg.Func("xpscalar_eval_remote_peers", "configured remote cache peers",
		"gauge", func() float64 { return float64(len(c.peers)) })
	reg.Func("xpscalar_eval_remote_peers_down", "peers currently skipped by the failure breaker",
		"gauge", func() float64 {
			var n int
			for _, p := range c.peers {
				if !p.available() {
					n++
				}
			}
			return float64(n)
		})
}
