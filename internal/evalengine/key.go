// The cache identity of an evaluation request. The engine's original
// identity was a %#v rendering of the request tuple — collision-free over
// value-type structs and automatic for fields added later, but it cost a
// reflective formatting pass and a few hundred bytes of text on every
// lookup, hits included, and the string is unusable as an on-disk
// filename. Key keeps both properties and drops the cost: the preimage is
// the internal/fieldcodec binary encoding of the tuple (the same field
// walker that lays out persistent records, so it covers later fields
// automatically and is exact over floats), opened by ModelEpoch, and the
// identity is its SHA-256 digest: fixed-size, stable across processes and
// builds of one epoch, safe as a content address in a persistent store,
// and uniformly distributed so cache sharding and directory fanout both
// fall out of the first bytes.

package evalengine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// ModelEpoch names the simulator's behaviour: every result the current
// kernel, cache, predictor and stream models produce belongs to this
// epoch. It opens every key preimage and is stored in every persistent
// record, so a change that moves any simulation result — which
// TestModelEpochPinsGoldens refuses until the epoch is bumped — orphans
// every cached evaluation of the old models instead of serving it.
const ModelEpoch uint64 = 1

// Key is the canonical identity of one evaluation request: the SHA-256
// digest of the request's Fingerprint preimage. Two requests have equal
// keys exactly when every field of (config, profile, budget, technology,
// objective) is equal; the digest is stable across processes, so a Key
// computed today addresses the same design point in any later run's
// persistent store. The zero Key is not a valid identity.
type Key [sha256.Size]byte

// KeyOf derives the request's key: the SHA-256 digest of its Fingerprint
// preimage, built in a stack buffer.
func KeyOf(cfg sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective) Key {
	var buf [fingerprintCap]byte
	return Key(sha256.Sum256(appendFingerprint(buf[:0], cfg, p, budget, t, obj)))
}

// String returns the key as 64 lowercase hex digits — the form used for
// on-disk content addressing and log lines.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Prefix returns the first two hex digits, the persistent store's
// directory-fanout component (256-way).
func (k Key) Prefix() string { return hex.EncodeToString(k[:1]) }

// shardIndex maps the key onto one of n cache shards using the digest's
// leading bytes; SHA-256 output is uniform, so no second hash is needed.
func (k Key) shardIndex(n int) int {
	return int(binary.BigEndian.Uint32(k[:4]) % uint32(n))
}

// ParseKey parses the 64-hex-digit form back into a Key (the persistent
// store uses it to recover identities from filenames). Only the canonical
// lowercase form String produces is accepted, so every key has exactly
// one spelling — one filename, one URL.
func ParseKey(s string) (Key, bool) {
	var k Key
	if len(s) != hex.EncodedLen(len(k)) || strings.ToLower(s) != s {
		return Key{}, false
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return Key{}, false
	}
	return k, true
}
