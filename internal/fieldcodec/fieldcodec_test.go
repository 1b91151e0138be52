package fieldcodec

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	F32 float32
	B   bool
}

type sample struct {
	I   int
	I8  int8
	U   uint64
	F   float64
	S   string
	In  inner
	Arr [2]uint16
}

// TestLayout pins the byte layout of every kind the walker supports.
func TestLayout(t *testing.T) {
	v := sample{I: -2, I8: 5, U: 7, F: math.Copysign(0, -1), S: "ab", In: inner{F32: 1.5, B: true}, Arr: [2]uint16{3, 4}}
	var want []byte
	le := binary.LittleEndian
	want = le.AppendUint64(want, uint64(0xfffffffffffffffe))
	want = le.AppendUint64(want, 5)
	want = le.AppendUint64(want, 7)
	want = le.AppendUint64(want, math.Float64bits(math.Copysign(0, -1)))
	want = le.AppendUint64(want, 2)
	want = append(want, "ab"...)
	want = le.AppendUint64(want, math.Float64bits(1.5))
	want = le.AppendUint64(want, 1)
	want = le.AppendUint64(want, 3)
	want = le.AppendUint64(want, 4)
	got := Append(nil, &v)
	if !bytes.Equal(got, want) {
		t.Fatalf("layout:\n got %x\nwant %x", got, want)
	}
	var back sample
	rest, err := Decode(got, &back)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(back, v) {
		t.Fatalf("round trip: %+v, rest %d, %v", back, len(rest), err)
	}
}

// TestDecodeRejects: inputs Append cannot produce are errors, never a
// silently different value. Offsets index the encoding of
// sample{S: "abc"}: I8 at 8, S's length at 32, In.F32 at 43, In.B at 51.
func TestDecodeRejects(t *testing.T) {
	v := sample{S: "abc"}
	good := Append(nil, &v)
	edit := func(off int, x uint64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[off:], x)
		return b
	}
	cases := map[string]struct {
		in   []byte
		want string
	}{
		"short":           {good[:len(good)-1], "short"},
		"int8 overflow":   {edit(8, 300), "overflows int8"},
		"string past end": {edit(32, 1<<62), "short"},
		"inexact float32": {edit(43, math.Float64bits(0.1)), "not exact in float32"},
		"bool 2":          {edit(51, 2), "bool 2"},
	}
	for name, c := range cases {
		var s sample
		if _, err := Decode(c.in, &s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", name, err, c.want)
		}
	}
}

// TestUnsupportedKindPanics: a kind without a canonical layout is a
// programming error caught on first use.
func TestUnsupportedKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a slice field encoded without complaint")
		}
	}()
	v := struct{ S []int }{}
	Append(nil, &v)
}
