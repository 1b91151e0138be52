package evalstore

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"xpscalar/internal/evalengine"
)

// FuzzDecodeRecord: whatever bytes a disk file or a peer hands over,
// decoding never panics, never allocates more than the input's length
// beyond the decoded value itself and an error message, and accepts only
// what EncodeRecord produces — an accepted input re-encodes byte for byte.
func FuzzDecodeRecord(f *testing.F) {
	// The seed corpus under testdata/fuzz/FuzzDecodeRecord adds a valid
	// record, its truncations, the v1 gob fixture and edited lengths.
	f.Add(EncodeRecord(testKey(1), testEval(1.25)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide and the fuzzing engine allocates
		// from its own goroutines, so one reading over the bound may be
		// theirs; an allocation of the decoder's own repeats every time.
		const slack = uint64(unsafe.Sizeof(evalengine.Eval{})) + 1024
		var grew uint64
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodeRecord(data)
			runtime.ReadMemStats(&after)
			if grew = after.TotalAlloc - before.TotalAlloc; grew <= uint64(len(data))+slack {
				break
			}
		}
		if grew > uint64(len(data))+slack {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		k, val, err := decodeRecord(data)
		if err != nil {
			return
		}
		if re := EncodeRecord(k, val); !bytes.Equal(re, data) {
			t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", data, re)
		}
		if _, err := DecodeRecord(data, k); err != nil {
			t.Fatalf("DecodeRecord rejects a record under its own key: %v", err)
		}
	})
}
