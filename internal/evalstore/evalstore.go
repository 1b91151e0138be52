// Package evalstore is the persistent tier of the evaluation cache: a
// content-addressed on-disk store of memoized evaluations, keyed by the
// engine's SHA-256 request Key and composed behind the in-memory LRU as
// evalengine.CacheBackend. It is what makes a design-space exploration's
// most expensive asset — the (config, workload) → outcome corpus — survive
// process restarts and get shared across sessions, tools and server
// tenants: a rerun of yesterday's Table 5 build starts with every
// evaluation already on disk.
//
// Layout and discipline:
//
//   - One record per evaluation at <dir>/<hh>/<64-hex-key>, where <hh> is
//     the key's first two hex digits (256-way fanout, so no directory
//     grows pathological).
//   - Every record is written with internal/store's atomic discipline
//     (temp file in the same directory, fsync, rename), so a crash mid
//     write can never expose a truncated record under a valid name.
//   - Every record opens with a versioned header; bumping the format
//     version orphans old records cleanly instead of misreading them.
//   - Every record carries the key it was stored under and the model
//     epoch (evalengine.ModelEpoch) of the simulator that produced it, so
//     a record is self-verifying: one found under the wrong name, or
//     produced by other models, is rejected like a corrupt one.
//   - A record that fails to read — truncated, wrong version, wrong key
//     or epoch, undecodable, trailing bytes — is moved to
//     <dir>/quarantine/ and reported as a miss, never as an error:
//     corruption costs one re-simulation, not a failed run.
//   - Writes are write-behind: Put enqueues and returns; a single writer
//     goroutine drains the queue. Flush (and Close) block until everything
//     accepted so far is durable. A full queue applies backpressure by
//     writing synchronously in the caller rather than dropping.
//
// Record layout (xpeval-record-v2), all integers little-endian:
//
//	header  17 bytes   "xpeval-record-v2\n"
//	epoch    8 bytes   evalengine.ModelEpoch of the producing simulator
//	key     32 bytes   the evalengine.Key the record is stored under
//	eval     rest      the internal/fieldcodec encoding of evalengine.Eval:
//	                   every field in declaration order, 8 bytes per
//	                   int, uint and float (floats as math.Float64bits),
//	                   the Workload string as an 8-byte length and its
//	                   bytes
//
// The layout is fixed by the Go types, so a record has exactly one valid
// length for its Workload name: a short record or trailing bytes are a
// decode error. The same bytes are the body of every internal/evalremote
// record transfer.
package evalstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/fieldcodec"
	"xpscalar/internal/store"
)

// header opens every record. The trailing version is the on-disk format
// version: bump it when the record encoding changes shape and every record
// written under the old format quarantines on first read instead of
// decoding wrong.
const header = "xpeval-record-v2\n"

// errHeader reports a record that does not open with the current header:
// another format version, or not a record at all. Nothing past the header
// is read.
var errHeader = errors.New("evalstore: not an " + header[:len(header)-1] + " record")

// quarantineDir collects records that failed to read.
const quarantineDir = "quarantine"

// defaultQueueDepth bounds the write-behind queue.
const defaultQueueDepth = 256

// Options tunes a Store. The zero value selects defaults.
type Options struct {
	// QueueDepth bounds the write-behind queue (default 256). A full
	// queue never drops: Put degrades to a synchronous write instead.
	QueueDepth int
}

// writeReq is one unit of work for the writer goroutine: either a record
// to persist or a flush barrier to acknowledge.
type writeReq struct {
	key     evalengine.Key
	val     evalengine.Eval
	barrier chan struct{} // non-nil: flush marker, close when reached
}

// Store is a content-addressed persistent evaluation cache rooted at one
// directory. Safe for concurrent use. It implements
// evalengine.CacheBackend.
type Store struct {
	dir   string
	queue chan writeReq
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	err    error // sticky first write error, surfaced by Flush/Close

	entries     atomic.Int64
	bytes       atomic.Int64
	writes      atomic.Uint64
	writeErrs   atomic.Uint64
	quarantined atomic.Uint64
	hits        atomic.Uint64
	misses      atomic.Uint64
}

// Open opens (creating if needed) the store rooted at dir with default
// options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens the store with explicit options. Leftover temporary
// files from a crashed writer are swept, and the current record count is
// taken, before the store accepts traffic.
func OpenOptions(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("evalstore: empty directory")
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = defaultQueueDepth
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o777); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	s := &Store{dir: dir, queue: make(chan writeReq, o.QueueDepth)}
	if err := s.sweep(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// sweep removes temp files a crash left behind and counts the records —
// and bytes — present, so both occupancy gauges are truthful from the
// first scrape. A half-written temp file is an artifact of the
// atomic-write discipline — it was never visible under a record name — so
// deleting it is recovery, not data loss.
func (s *Store) sweep() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("evalstore: %w", err)
	}
	var n, bytes int64
	for _, de := range des {
		if !de.IsDir() || de.Name() == quarantineDir {
			continue
		}
		sub := filepath.Join(s.dir, de.Name())
		files, err := os.ReadDir(sub)
		if err != nil {
			return fmt.Errorf("evalstore: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			if strings.Contains(f.Name(), ".tmp-") {
				os.Remove(filepath.Join(sub, f.Name()))
				continue
			}
			n++
			if info, err := f.Info(); err == nil {
				bytes += info.Size()
			}
		}
	}
	s.entries.Store(n)
	s.bytes.Store(bytes)
	return nil
}

// path returns the record file for a key: <dir>/<hh>/<64-hex>.
func (s *Store) path(k evalengine.Key) string {
	return filepath.Join(s.dir, k.Prefix(), k.String())
}

// Get implements evalengine.CacheBackend: it returns the stored
// evaluation, or a miss. Any read failure — absent file aside — moves the
// record to quarantine and reports a miss, and so does a record that
// names another key or model epoch than the one requested.
func (s *Store) Get(k evalengine.Key) (evalengine.Eval, bool) {
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return evalengine.Eval{}, false
	}
	val, err := DecodeRecord(data, k)
	if err != nil {
		s.quarantine(path, err)
		s.misses.Add(1)
		return evalengine.Eval{}, false
	}
	s.hits.Add(1)
	return val, true
}

// recordCap covers a record whose workload name fits in a few dozen
// bytes, so encoding it is one allocation.
const recordCap = 512

// EncodeRecord returns the record of val stored under k — versioned
// header, model epoch, key, field-encoded evaluation (see the package
// doc) — the inverse of DecodeRecord and the store's exact on-disk
// encoding.
func EncodeRecord(k evalengine.Key, val evalengine.Eval) []byte {
	b := append(make([]byte, 0, recordCap), header...)
	b = binary.LittleEndian.AppendUint64(b, evalengine.ModelEpoch)
	b = append(b, k[:]...)
	return fieldcodec.Append(b, &val)
}

// DecodeRecord decodes one record and checks that it is the record of
// key k under the current model epoch. It is the single reader of the
// record wire format: the disk tier uses it on files, the remote tier
// (internal/evalremote) on HTTP bodies, so the two tiers stay
// byte-compatible by construction and a version bump orphans both at
// once.
func DecodeRecord(b []byte, k evalengine.Key) (evalengine.Eval, error) {
	got, val, err := decodeRecord(b)
	if err != nil {
		return evalengine.Eval{}, err
	}
	if got != k {
		return evalengine.Eval{}, fmt.Errorf("evalstore: record of key %s requested as %s", got, k)
	}
	return val, nil
}

// decodeRecord parses one record of the current version and epoch,
// returning the key it names. It accepts exactly the byte strings
// EncodeRecord produces.
func decodeRecord(b []byte) (evalengine.Key, evalengine.Eval, error) {
	var k evalengine.Key
	if !bytes.HasPrefix(b, []byte(header)) {
		return k, evalengine.Eval{}, errHeader
	}
	b = b[len(header):]
	if len(b) < 8+len(k) {
		return k, evalengine.Eval{}, errors.New("evalstore: short record")
	}
	if epoch := binary.LittleEndian.Uint64(b); epoch != evalengine.ModelEpoch {
		return k, evalengine.Eval{}, fmt.Errorf("evalstore: record of model epoch %d, want %d", epoch, evalengine.ModelEpoch)
	}
	copy(k[:], b[8:])
	var val evalengine.Eval
	rest, err := fieldcodec.Decode(b[8+len(k):], &val)
	if err != nil {
		return k, evalengine.Eval{}, fmt.Errorf("evalstore: decode: %w", err)
	}
	if len(rest) != 0 {
		return k, evalengine.Eval{}, fmt.Errorf("evalstore: %d trailing bytes", len(rest))
	}
	return k, val, nil
}

// GetBatch implements evalengine.BatchGetter with one sequential pass
// over the requested keys — the disk tier's multi-get is a read loop, but
// exposing it batched keeps the engine's group read-through a single
// call into every tier shape.
func (s *Store) GetBatch(keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	found := make(map[evalengine.Key]evalengine.Eval)
	for _, k := range keys {
		if v, ok := s.Get(k); ok {
			found[k] = v
		}
	}
	return found
}

// quarantine moves a bad record aside so it is examined once, not
// re-parsed on every request; if even the move fails the record is
// removed.
func (s *Store) quarantine(path string, reason error) {
	if info, err := os.Lstat(path); err == nil {
		s.bytes.Add(-info.Size())
	}
	dst := filepath.Join(s.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarantined.Add(1)
	s.entries.Add(-1)
}

// Put implements evalengine.CacheBackend: it enqueues the record for the
// write-behind goroutine, degrading to a synchronous write when the queue
// is full (backpressure, never loss) or the store is closed.
func (s *Store) Put(k evalengine.Key, val evalengine.Eval) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.writeNow(k, val)
		return
	}
	select {
	case s.queue <- writeReq{key: k, val: val}:
	default:
		s.writeNow(k, val)
	}
}

// writer drains the write-behind queue until Close closes it.
func (s *Store) writer() {
	defer s.wg.Done()
	for req := range s.queue {
		if req.barrier != nil {
			close(req.barrier)
			continue
		}
		s.writeNow(req.key, req.val)
	}
}

// writeNow persists one record with the atomic temp+fsync+rename
// discipline. Write failures are counted and held as the sticky error;
// the evaluation itself already succeeded and is served from memory, so
// nothing upstream fails.
func (s *Store) writeNow(k evalengine.Key, val evalengine.Eval) {
	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		s.noteWriteErr(err)
		return
	}
	var oldSize int64
	info, statErr := os.Lstat(path)
	existed := statErr == nil
	if existed {
		oldSize = info.Size()
	}
	rec := EncodeRecord(k, val)
	err := store.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(rec)
		return err
	})
	if err != nil {
		s.noteWriteErr(err)
		return
	}
	s.writes.Add(1)
	s.bytes.Add(int64(len(rec)) - oldSize)
	if !existed {
		s.entries.Add(1)
	}
}

func (s *Store) noteWriteErr(err error) {
	s.writeErrs.Add(1)
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Flush implements evalengine.CacheBackend: it blocks until every Put
// accepted before the call is durable, and returns the sticky write error
// if any write has failed so far.
func (s *Store) Flush() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		// A barrier rides the FIFO queue behind every prior record.
		b := make(chan struct{})
		s.queue <- writeReq{barrier: b}
		<-b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close implements evalengine.CacheBackend: it flushes the queue, stops
// the writer, and returns the sticky error. Puts arriving after Close
// write synchronously, so nothing is lost either way. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats implements evalengine.CacheBackend.
func (s *Store) Stats() evalengine.BackendStats {
	n := s.entries.Load()
	if n < 0 {
		n = 0
	}
	b := s.bytes.Load()
	if b < 0 {
		b = 0
	}
	return evalengine.BackendStats{
		Entries:     uint64(n),
		Bytes:       uint64(b),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrs.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }
