// Crash and corruption semantics of the persistent tier: whatever is on
// disk — truncated records, stale format versions, half-written temp
// files — opening the store and reading through it must recover with at
// worst a quarantined entry and a re-simulation, never an error.

package evalstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/fieldcodec"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// testProfile is a small, valid synthetic workload.
func testProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name:            "unit",
		LoadFrac:        0.30,
		StoreFrac:       0.10,
		BranchFrac:      0.15,
		MulFrac:         0.02,
		DivFrac:         0.01,
		WorkingSetBytes: 1 << 16,
		HotSetBytes:     1 << 12,
		HotFrac:         0.7,
		SeqFrac:         0.4,
		StrideBytes:     8,
		BranchSites:     32,
		LoopFrac:        0.5,
		LoopTrip:        8,
		TakenBias:       0.7,
		RandomEntropy:   0.2,
		DepDensity:      0.5,
		DepDistMean:     6,
		Seed:            seed,
	}
}

func testEval(score float64) evalengine.Eval {
	r := sim.Result{Workload: "unit"}
	r.Instructions = 5000
	r.Cycles = 7321
	r.LoadsL1 = 1200
	return evalengine.Eval{Result: r, Score: score}
}

func testKey(seed int64) evalengine.Key {
	tp := tech.Default()
	return evalengine.KeyOf(sim.InitialConfig(tp), testProfile(seed), 5000, tp, power.ObjIPT)
}

// TestRoundTrip: Put → Flush → Get returns the exact value, and a fresh
// Open of the same directory still serves it (process-restart survival).
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	want := testEval(1.25)
	s.Put(k, want)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed a flushed record")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if st := s.Stats(); st.Entries != 1 || st.Writes != 1 || st.WriteErrors != 0 {
		t.Fatalf("stats %+v, want 1 entry, 1 write, 0 errors", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process (new Store) over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok = s2.Get(k)
	if !ok {
		t.Fatal("record did not survive reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened value diverged:\n got %+v\nwant %+v", got, want)
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened entry count %d, want 1", st.Entries)
	}
}

// recordPath writes a flushed record for key and returns its file path.
func plantRecord(t *testing.T, s *Store, k evalengine.Key) string {
	t.Helper()
	s.Put(k, testEval(2))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s.path(k)
}

// TestTruncatedRecordQuarantined: a record cut mid-payload (the classic
// crash artifact if atomicity were ever violated) reads as a miss, is
// moved to quarantine, and never comes back.
func TestTruncatedRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(2)
	path := plantRecord(t, s, k)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("truncated record served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 quarantined, 0 entries", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt record still at %s", path)
	}
	q := filepath.Join(dir, quarantineDir, k.String())
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("corrupt record not in quarantine: %v", err)
	}
	// The miss is permanent until re-written, not an error loop.
	if _, ok := s.Get(k); ok {
		t.Fatal("quarantined record resurrected")
	}
}

// TestWrongVersionQuarantined: a record from a future (or past) format
// version is quarantined on read, so a format bump cleanly invalidates an
// old directory instead of misdecoding it. The stale header is derived
// from the current one, so the test keeps asserting this across bumps.
func TestWrongVersionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(3)
	path := plantRecord(t, s, k)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), header) {
		t.Fatalf("record does not open with %q", header)
	}
	stale := strings.TrimSuffix(header, "\n") + "-stale\n"
	if err := os.WriteFile(path, append([]byte(stale), raw[len(header):]...), 0o666); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("wrong-version record served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 quarantined", st)
	}
}

// TestV1GobRecordQuarantined: a record written by the gob-encoded v1
// format (testdata/record-v1.gob, produced by that format's
// EncodeRecord) is rejected at its header — nothing after it is decoded —
// and a store that finds one quarantines it as a miss.
func TestV1GobRecordQuarantined(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "record-v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(v1), "xpeval-record-v1\n") {
		t.Fatalf("fixture is not a v1 record: %q", v1[:20])
	}
	k := testKey(6)
	if _, err := DecodeRecord(v1, k); !errors.Is(err, errHeader) {
		t.Fatalf("v1 record: err %v, want a header rejection", err)
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	path := plantRecord(t, s, k)
	if err := os.WriteFile(path, v1, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("v1 record served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 quarantined, 0 entries", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, k.String())); err != nil {
		t.Fatalf("v1 record not in quarantine: %v", err)
	}
}

// TestForeignRecordQuarantined: a record is self-verifying. A well-formed
// record found under another key's name — a misplaced file, a copy
// between directories — and a record of another model epoch both
// quarantine as misses instead of being served for the requested key.
func TestForeignRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k, other := testKey(7), testKey(8)

	path := plantRecord(t, s, k)
	if err := os.WriteFile(path, EncodeRecord(other, testEval(3)), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("record of another key served as a hit")
	}

	path = plantRecord(t, s, k)
	rec := EncodeRecord(k, testEval(3))
	binary.LittleEndian.PutUint64(rec[len(header):], evalengine.ModelEpoch+1)
	if err := os.WriteFile(path, rec, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("record of another model epoch served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Fatalf("stats %+v, want 2 quarantined", st)
	}
}

// TestRecordLayout: the record is the documented fixed layout — header,
// epoch, key, field-encoded evaluation — and any byte short of it or past
// it is a decode error.
func TestRecordLayout(t *testing.T) {
	k := testKey(9)
	val := testEval(1.5)
	rec := EncodeRecord(k, val)
	want := []byte(header)
	want = binary.LittleEndian.AppendUint64(want, evalengine.ModelEpoch)
	want = append(want, k[:]...)
	want = fieldcodec.Append(want, &val)
	if !bytes.Equal(rec, want) {
		t.Fatalf("record layout:\n got %x\nwant %x", rec, want)
	}
	if got, err := DecodeRecord(rec, k); err != nil || !reflect.DeepEqual(got, val) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for n := 0; n < len(rec); n++ {
		if _, err := DecodeRecord(rec[:n], k); err == nil {
			t.Fatalf("record cut to %d of %d bytes decoded", n, len(rec))
		}
	}
	if _, err := DecodeRecord(append(rec, 0), k); err == nil {
		t.Fatal("record with a trailing byte decoded")
	}
}

// TestGarbagePayloadQuarantined: a record with a valid header but an
// undecodable payload quarantines too — header checks alone are not
// trusted.
func TestGarbagePayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(4)
	path := plantRecord(t, s, k)
	if err := os.WriteFile(path, []byte(header+"not a record at all"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("garbage payload served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 quarantined", st)
	}
}

// TestLeftoverTempSwept: a partial temp file from a crashed writer is
// removed at Open, is not counted as an entry, and does not shadow the
// record slot — the next Put lands cleanly.
func TestLeftoverTempSwept(t *testing.T) {
	dir := t.TempDir()
	k := testKey(5)
	sub := filepath.Join(dir, k.Prefix())
	if err := os.MkdirAll(sub, 0o777); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, k.String()+".tmp-123456")
	if err := os.WriteFile(tmp, []byte("half a record"), 0o666); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover temp file survived Open")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("temp file counted as an entry: %+v", st)
	}

	want := testEval(9)
	s.Put(k, want)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Put after sweep: got %+v ok=%v, want %+v", got, ok, want)
	}
}

// TestBackpressureAndClose: more Puts than the queue holds all land (full
// queue degrades to synchronous writes), and Put after Close still
// persists.
func TestBackpressureAndClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		s.Put(testKey(int64(100+i)), testEval(float64(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != n {
		t.Fatalf("entries %d after close, want %d", st.Entries, n)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Late Put (engine detach raced with a completing evaluation): still
	// written, synchronously.
	late := testKey(999)
	s.Put(late, testEval(99))
	if _, ok := s.Get(late); !ok {
		t.Fatal("Put after Close was dropped")
	}
}

// TestEngineReadThrough: the full composition — an engine with a Store
// backend persists its misses, and a second engine over the same
// directory (fresh memory tier, new process in effect) serves the same
// request from disk without simulating, bit-identically.
func TestEngineReadThrough(t *testing.T) {
	dir := t.TempDir()
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(7)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := evalengine.New(evalengine.Options{Backend: s})
	want, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Misses != 1 || st.DiskMisses != 1 {
		t.Fatalf("cold stats %+v, want 1 miss / 1 disk miss", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	eng2 := evalengine.New(evalengine.Options{Backend: s2})
	got, err := eng2.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk-served evaluation diverged:\n got %+v\nwant %+v", got, want)
	}
	st := eng2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats %+v, want 1 disk hit and 0 simulations", st)
	}
	if st.Disk.Entries != 1 {
		t.Fatalf("backend stats %+v, want 1 entry", st.Disk)
	}
}

// BenchmarkEvalDiskHit measures the disk-tier read-through path: a warm
// on-disk record served into a cold memory tier (read file, header, epoch
// and key checks, field decode). This is the latency a restarted process pays per cached
// evaluation instead of a simulation.
func BenchmarkEvalDiskHit(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	k := testKey(1)
	s.Put(k, testEval(1.5))
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(k); !ok {
			b.Fatal("miss on a flushed record")
		}
	}
}

// BenchmarkRecordRoundTrip is the codec alone: encode one record and
// decode it back, the CPU a disk or remote hit pays beyond its I/O.
func BenchmarkRecordRoundTrip(b *testing.B) {
	k := testKey(1)
	val := testEval(1.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRecord(EncodeRecord(k, val), k); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBytesGauge: the byte gauge tracks what is actually on disk —
// counted at write time, recounted by a fresh Open, and released when a
// record is quarantined.
func TestBytesGauge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		s.Put(testKey(i), testEval(float64(i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	onDisk := func() uint64 {
		var total uint64
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && !strings.Contains(path, quarantineDir) {
				total += uint64(info.Size())
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	want := onDisk()
	if want == 0 {
		t.Fatal("no bytes on disk after three flushed writes")
	}
	if got := s.Stats().Bytes; got != want {
		t.Fatalf("Bytes %d, want %d (actual disk usage)", got, want)
	}

	// Overwriting a record must not double count.
	s.Put(testKey(0), testEval(9))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().Bytes, onDisk(); got != want {
		t.Fatalf("Bytes %d after overwrite, want %d", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh Open recounts from the directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := s2.Stats().Bytes, onDisk(); got != want {
		t.Fatalf("reopened Bytes %d, want %d", got, want)
	}

	// Quarantining a record releases its bytes. The corruption flips bits
	// in place (same size): the gauge tracks sizes it counted at write
	// time, so a same-size corruption is the in-contract case.
	path := s2.path(testKey(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(testKey(1)); ok {
		t.Fatal("corrupt record served")
	}
	if got, want := s2.Stats().Bytes, onDisk(); got != want {
		t.Fatalf("Bytes %d after quarantine, want %d", got, want)
	}
}
