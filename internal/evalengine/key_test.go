// The cache key's contract: a canonical digest of the full request tuple
// — stable across processes (it feeds on-disk filenames), unique per
// distinct request, and round-trippable through its hex form.

package evalengine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xpscalar/internal/fieldcodec"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// TestKeyOfIsFingerprintDigest: the key is the SHA-256 digest of the
// byte preimage, the preimage opens with ModelEpoch and is exactly the
// field encoding of the tuple, and both are deterministic.
func TestKeyOfIsFingerprintDigest(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(1)
	fp := Fingerprint(cfg, p, 5000, tp, power.ObjIPT)
	k := KeyOf(cfg, p, 5000, tp, power.ObjIPT)
	if want := Key(sha256.Sum256(fp)); k != want {
		t.Fatalf("KeyOf diverged from the digest of its own preimage")
	}
	if k2 := KeyOf(cfg, p, 5000, tp, power.ObjIPT); k2 != k {
		t.Fatalf("KeyOf not deterministic: %s vs %s", k, k2)
	}
	want := binary.LittleEndian.AppendUint64(nil, ModelEpoch)
	want = fieldcodec.Append(want, &cfg)
	want = fieldcodec.Append(want, &p)
	want = binary.LittleEndian.AppendUint64(want, 5000)
	want = fieldcodec.Append(want, &tp)
	want = binary.LittleEndian.AppendUint64(want, uint64(power.ObjIPT))
	if !bytes.Equal(fp, want) {
		t.Fatalf("preimage is not epoch + field encoding of the tuple:\n got %x\nwant %x", fp, want)
	}
}

// request is one evaluation request tuple, for the randomized preimage
// test.
type request struct {
	Cfg    sim.Config
	P      workload.Profile
	Budget int
	T      tech.Params
	Obj    power.Objective
}

// leaves returns settable handles on every leaf field of the request.
func leaves(v reflect.Value, out []reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = leaves(v.Field(i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = leaves(v.Index(i), out)
		}
	default:
		out = append(out, v)
	}
	return out
}

// perturb sets one random leaf field to one of a few values, so that a
// pair of perturbed requests is often, but not always, equal.
func perturb(rng *rand.Rand, r *request) {
	fs := leaves(reflect.ValueOf(r).Elem(), nil)
	f := fs[rng.Intn(len(fs))]
	pick := rng.Intn(3)
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt([]int64{0, 1, -7}[pick])
	case reflect.Float64:
		f.SetFloat([]float64{0, 0.1 + 0.2, math.Copysign(0, -1)}[pick])
	case reflect.String:
		f.SetString([]string{"", "a", "ab"}[pick])
	default:
		panic("perturb: no values for " + f.Type().String())
	}
}

// TestFingerprintEqualIffGoEqual: over random requests, two preimages
// are equal exactly when the requests' %#v renderings — the engine's
// former preimage, exact over every field — are equal. Pairs differ in
// zero, one or two fields, drawn from small value sets so that equal
// pairs are common.
func TestFingerprintEqualIffGoEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tp := tech.Default()
	base := request{Cfg: sim.InitialConfig(tp), P: testProfile(1), Budget: 5000, T: tp, Obj: power.ObjIPT}
	var equal, distinct int
	for i := 0; i < 4000; i++ {
		a, b := base, base
		for n := rng.Intn(3); n > 0; n-- {
			perturb(rng, &a)
		}
		for n := rng.Intn(3); n > 0; n-- {
			perturb(rng, &b)
		}
		fa := Fingerprint(a.Cfg, a.P, a.Budget, a.T, a.Obj)
		fb := Fingerprint(b.Cfg, b.P, b.Budget, b.T, b.Obj)
		goEq := fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
		if bytes.Equal(fa, fb) != goEq {
			t.Fatalf("preimages equal=%v but %%#v equal=%v:\n a %#v\n b %#v", bytes.Equal(fa, fb), goEq, a, b)
		}
		if goEq {
			equal++
		} else {
			distinct++
		}
	}
	if equal < 100 || distinct < 100 {
		t.Fatalf("draw too lopsided to test both directions: %d equal, %d distinct pairs", equal, distinct)
	}
}

// BenchmarkKeyOf is the hit path's key derivation: the preimage field
// walk plus its digest, paid by every request before any tier is probed.
func BenchmarkKeyOf(b *testing.B) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KeyOf(cfg, p, 5000, tp, power.ObjIPT)
	}
}

func TestKeySeparatesRequests(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(1)
	base := KeyOf(cfg, p, 5000, tp, power.ObjIPT)

	cfg2 := cfg
	cfg2.ROBSize++
	p2 := testProfile(2)
	variants := map[string]Key{
		"config":    KeyOf(cfg2, p, 5000, tp, power.ObjIPT),
		"profile":   KeyOf(cfg, p2, 5000, tp, power.ObjIPT),
		"budget":    KeyOf(cfg, p, 5001, tp, power.ObjIPT),
		"objective": KeyOf(cfg, p, 5000, tp, power.ObjIPTPerWatt),
	}
	for dim, k := range variants {
		if k == base {
			t.Errorf("changing the %s did not change the key", dim)
		}
	}
}

func TestKeyStringAndParse(t *testing.T) {
	tp := tech.Default()
	k := KeyOf(sim.InitialConfig(tp), testProfile(3), 5000, tp, power.ObjIPT)

	s := k.String()
	if len(s) != 64 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 64 lowercase hex digits", s)
	}
	if !strings.HasPrefix(s, k.Prefix()) || len(k.Prefix()) != 2 {
		t.Fatalf("Prefix() = %q does not open String() = %q", k.Prefix(), s)
	}

	got, ok := ParseKey(s)
	if !ok || got != k {
		t.Fatalf("ParseKey(%q) = %v, %v; want the original key", s, got, ok)
	}
	for _, bad := range []string{"", "xyz", s[:63], s + "0", strings.Replace(s, s[:1], "g", 1), strings.ToUpper(s)} {
		if _, ok := ParseKey(bad); ok {
			t.Errorf("ParseKey(%q) accepted a malformed key", bad)
		}
	}
}

func TestKeyShardIndexSpreads(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	const shards = 16
	seen := make(map[int]bool)
	for budget := 1000; budget < 1000+64; budget++ {
		k := KeyOf(cfg, testProfile(7), budget, tp, power.ObjIPT)
		idx := k.shardIndex(shards)
		if idx < 0 || idx >= shards {
			t.Fatalf("shardIndex out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) < shards/2 {
		t.Errorf("64 distinct keys landed on only %d/%d shards", len(seen), shards)
	}
}

// FuzzParseKey: parsing never panics, and a string it accepts is exactly
// the canonical spelling of the key it yields.
func FuzzParseKey(f *testing.F) {
	tp := tech.Default()
	k := KeyOf(sim.InitialConfig(tp), testProfile(1), 5000, tp, power.ObjIPT)
	f.Add(k.String())
	f.Add(strings.ToUpper(k.String()))
	f.Add(k.String()[:63])
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		k, ok := ParseKey(s)
		if ok && k.String() != s {
			t.Fatalf("ParseKey accepted %q, which re-encodes as %q", s, k.String())
		}
	})
}
