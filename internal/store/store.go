// Package store is the durable tier beneath the solve caches: an
// append-only, checksummed write-ahead log plus a periodically compacted
// snapshot of proved-optimal canonical results, keyed by canonical
// fingerprint. The job journal (journal.go) runs on the same log engine
// (engine.go) with its own records and compaction policy.
//
// The workload is ideal for an append-only design: results are
// proved-optimal and budget-independent (an optimal depth is the binary
// rank, a property of the matrix alone), so records never invalidate and
// the only mutations are appends and compaction. The full index lives in
// memory — records are a few hundred bytes of rectangle indices — so reads
// are O(1) map lookups and the disk is written, never read, outside of
// Open.
//
// Crash safety:
//
//   - Every append is written through to the file descriptor immediately
//     (no userspace buffering), so a kill -9 loses nothing: the page cache
//     survives the process. fsync — which defends against machine crashes
//     and power loss — is governed by the configurable SyncPolicy.
//   - Each record is framed with a magic marker, length, and CRC-32C.
//     Recovery tolerates a torn/truncated tail (truncated back to the last
//     whole frame) and skips corrupt records by scanning to the next
//     marker, so one flipped bit costs one record, not the corpus.
//   - Snapshot rotation is atomic: write to a temp file, fsync, rename over
//     the old snapshot, fsync the directory, then truncate the WAL. A crash
//     between rename and truncate merely replays WAL records that are
//     already in the snapshot — deduplicated harmlessly on load.
package store

import (
	"errors"
	"io"
	"io/fs"
	"log"
	"os"
	"time"
)

// File is the subset of *os.File the store writes through. It exists so
// tests can inject disk faults (short writes, write errors, failed syncs)
// without touching a real filesystem's failure modes.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// SyncPolicy says when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval fsyncs dirty data every Options.SyncEvery from a
	// background flusher (default 100ms): bounded data loss on power
	// failure, negligible append latency. The default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs inside every Append: zero loss on power failure at
	// the cost of one fsync per fresh result (fresh solves are rare and
	// expensive; the fsync is noise next to the SAT time).
	SyncAlways
	// SyncNever leaves syncing to the OS (and Close/Compact, which always
	// sync). kill -9 still loses nothing; only machine crashes can.
	SyncNever
)

// Log file names inside the store directory.
const (
	walName      = "wal.log"
	snapshotName = "snapshot.log"
	snapTempName = "snapshot.tmp"
)

// Options tunes a Store or a Journal. The zero value means "all defaults".
type Options struct {
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the background flush period under SyncInterval
	// (default 100ms).
	SyncEvery time.Duration
	// CompactAfterBytes triggers a snapshot compaction once the WAL — the
	// bytes appended since the last compaction — grows past this size
	// (default 8 MiB; negative disables auto-compaction).
	CompactAfterBytes int64
	// OpenFile opens the log files for writing (default os.OpenFile).
	// Fault-injection hook: tests wrap it to fail writes and syncs.
	OpenFile func(path string, flag int, perm fs.FileMode) (File, error)
	// ReadFile reads a log file on Open (default os.ReadFile). Missing
	// files must report fs.ErrNotExist.
	ReadFile func(path string) ([]byte, error)
	// Logger receives recovery and compaction reports (default: discard).
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.CompactAfterBytes == 0 {
		o.CompactAfterBytes = 8 << 20
	}
	if o.OpenFile == nil {
		o.OpenFile = func(path string, flag int, perm fs.FileMode) (File, error) {
			return os.OpenFile(path, flag, perm)
		}
	}
	if o.ReadFile == nil {
		o.ReadFile = os.ReadFile
	}
	if o.Logger == nil {
		o.Logger = log.New(io.Discard, "", 0)
	}
	return o
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Records is the current in-memory index size.
	Records int `json:"records"`
	// LoadedSnapshot and LoadedWAL count records replayed on Open from the
	// snapshot and the WAL respectively (WAL records are the ones a crash
	// would have cost without the log).
	LoadedSnapshot int64 `json:"loaded_snapshot"`
	LoadedWAL      int64 `json:"loaded_wal"`
	// SkippedCorrupt counts records dropped during recovery for CRC,
	// framing, decode or validation failures.
	SkippedCorrupt int64 `json:"skipped_corrupt"`
	// TruncatedBytes counts torn-tail and resync-scan bytes discarded
	// during recovery.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Appends counts records durably appended; AppendErrors counts appends
	// that failed at the disk layer (the record stays in memory).
	Appends      int64 `json:"appends"`
	AppendErrors int64 `json:"append_errors"`
	// WALBytes is the current WAL length; SnapshotBytes the snapshot's.
	WALBytes      int64 `json:"wal_bytes"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Flushes counts fsyncs; FlushNS their cumulative latency and
	// LastFlushNS the most recent one's.
	Flushes     int64 `json:"flushes"`
	FlushNS     int64 `json:"flush_ns"`
	LastFlushNS int64 `json:"last_flush_ns"`
	// Compactions counts snapshot rotations.
	Compactions int64 `json:"compactions"`
	// Deletes counts collision-insurance drops (entries that failed
	// re-validation at hit time; expected to stay 0).
	Deletes int64 `json:"deletes"`
}

// Store is a durable map of canonical fingerprint → proved-optimal result.
// Safe for concurrent use. Create with Open; always Close (it performs the
// final flush).
type Store struct {
	logEngine
	index map[string]*Record
	order []string // insertion order, for deterministic compaction
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Open loads the snapshot and WAL from dir (creating it if needed),
// recovers what is recoverable, truncates any torn WAL tail, and returns a
// store ready for appends. Replay is last-write-wins, so WAL records a
// crash left behind a fresh snapshot load as harmless duplicates.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{index: make(map[string]*Record)}
	err := s.open(dir, opts, logPolicy{
		wal: walName, snapshot: snapshotName, temp: snapTempName,
		errClosed: ErrClosed,
		decode:    decodeInto(s.insert),
		live: func(emit func(any) error) error {
			for _, hash := range s.order {
				if err := emit(s.index[hash]); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// insert puts a record into the in-memory index (last write wins).
func (s *Store) insert(rec *Record) {
	if _, ok := s.index[rec.Hash]; !ok {
		s.order = append(s.order, rec.Hash)
	}
	s.index[rec.Hash] = rec
}

// Get returns the record for a canonical fingerprint. The returned record
// is shared and must be treated as read-only.
func (s *Store) Get(hash string) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.index[hash]
	return rec, ok
}

// Len returns the number of durable records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	st.WALBytes = s.walBytes
	return st
}

// Put appends one record durably. A record that fails Validate is an
// error; a duplicate hash is a no-op (results never change, so the first
// record is as good as the last). Disk failures are counted and reported
// but leave the record queryable in memory — the current process keeps its
// warm cache; only restart durability is degraded.
func (s *Store) Put(rec *Record) error {
	return s.appendRecord(rec, func() bool {
		if _, ok := s.index[rec.Hash]; ok {
			return false
		}
		s.insert(rec)
		return true
	})
}

// Delete drops a record from the in-memory index (collision insurance: a
// cache hit that failed re-validation). The WAL is append-only, so the
// record physically disappears at the next compaction; until then a reload
// would resurrect it — and its next hit would fail validation and be
// deleted again, so correctness never depends on the physical removal.
func (s *Store) Delete(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[hash]; !ok {
		return
	}
	delete(s.index, hash)
	for i, h := range s.order {
		if h == hash {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.stats.Deletes++
}
