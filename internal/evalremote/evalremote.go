// Package evalremote is the network tier of the evaluation cache: it lets
// a fleet of processes share one content-addressed eval corpus at wire
// speed. The server side mounts three routes beside xpserved's job API —
//
//	GET  /v1/cache/{key}   one record (200 + record body, or 404)
//	PUT  /v1/cache/{key}   store one record (204; 400 if the record
//	                       names another key or model epoch)
//	POST /v1/cache/lookup  batched multi-get ({"keys": [hex...]} →
//	                       {"hits": {hex: base64 record}})
//
// — serving the process's memory LRU plus its local disk store with the
// exact record encoding evalstore writes to disk (versioned header, model
// epoch, key, field-encoded evaluation), so the two persistent tiers stay byte-compatible by construction. The
// client side is an evalengine.CacheBackend that composes behind the
// in-memory LRU and the local disk tier (memory → disk → remote): a
// remote hit costs one HTTP round trip instead of a multi-millisecond
// simulation, and is promoted onto local disk on the way through.
//
// Key ownership is sharded: every evalengine.Key maps onto exactly one
// peer of the -cache-peers list through a consistent-hash ring (64
// virtual nodes per peer over the key's leading digest bytes), so N
// xpserved processes partition the keyspace with no coordination and a
// fleet member asks exactly one peer per key. The ring is a pure
// function of the peer list, so every process pointed at the same list
// computes the same ownership.
//
// The cache is an optimization, never a dependency — the client fails
// open to a miss on every failure mode:
//
//   - requests are bounded by a per-request timeout and a cap on
//     concurrent lookups; at the cap a lookup is answered "miss"
//     immediately rather than queued behind a slow peer
//   - transport errors draw retries from a shared budget (refilled by
//     successes) with a short backoff; past the budget they miss
//   - a peer that fails repeatedly trips a breaker and is skipped for a
//     cooldown, so a dead peer costs nothing per key
//   - a corrupt or wrong-version record body, or the record of another
//     key or model epoch, is a decode failure and a miss, exactly like a
//     quarantined disk record
//
// Writes are write-behind like the disk tier's — Put enqueues and
// returns, a writer goroutine delivers, Flush is a FIFO barrier — but a
// full queue or a failed delivery DROPS the record (counted, never
// retried into the hot path): unlike the disk tier, losing a remote
// write costs nothing, because the evaluation is already memoized in the
// faster tiers and any peer can re-derive it. A slow or dead peer can
// therefore never stall the simulate hot path, only lower the hit rate.
package evalremote

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"xpscalar/internal/evalengine"
)

// vnodes is the number of ring points per peer. 64 keeps the ownership
// split within a few percent of even for small fleets while the ring
// stays tiny (a few KB).
const vnodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by
// one peer.
type ringPoint struct {
	point uint64
	peer  int // index into Client.peers
}

// buildRing places vnodes points per peer on the circle, hashed from the
// peer's base URL — a pure function of the peer list, so every fleet
// member computes identical ownership.
func buildRing(peers []string) []ringPoint {
	ring := make([]ringPoint, 0, len(peers)*vnodes)
	for i, p := range peers {
		for v := 0; v < vnodes; v++ {
			h := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", p, v)))
			ring = append(ring, ringPoint{point: binary.BigEndian.Uint64(h[:8]), peer: i})
		}
	}
	sort.Slice(ring, func(a, b int) bool { return ring[a].point < ring[b].point })
	return ring
}

// ownerOf maps a key onto the peer owning it: the first ring point at or
// after the key's position, wrapping at the top of the circle. The key's
// leading digest bytes are already uniform (SHA-256), so no second hash
// is needed.
func ownerOf(ring []ringPoint, k evalengine.Key) int {
	p := binary.BigEndian.Uint64(k[:8])
	i := sort.Search(len(ring), func(i int) bool { return ring[i].point >= p })
	if i == len(ring) {
		i = 0
	}
	return ring[i].peer
}
