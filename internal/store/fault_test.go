package store

// Disk fault injection: the OpenFile/ReadFile hooks let tests fail writes,
// syncs and reads deterministically, without needing a faulty filesystem.
// The invariant under every injected fault, for the store and the journal
// alike: the log never serves a wrong record, never loses already-durable
// records, and keeps the current process's records in memory even when the
// disk is gone.

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

var errInjected = errors.New("injected disk fault")

// faultFile wraps a real file and fails operations on command.
type faultFile struct {
	f *os.File

	mu         sync.Mutex
	failWrites bool
	failSyncs  bool
	shortWrite bool // write half the bytes, then error: a torn append
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shortWrite {
		n, _ := f.f.Write(p[:len(p)/2])
		return n, errInjected
	}
	if f.failWrites {
		return 0, errInjected
	}
	return f.f.Write(p)
}

func (f *faultFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failSyncs {
		return errInjected
	}
	return f.f.Sync()
}

func (f *faultFile) Truncate(size int64) error { return f.f.Truncate(size) }
func (f *faultFile) Close() error              { return f.f.Close() }
func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}

// logOwner is one of the two owners of the log engine, opened behind the
// interface the lifecycle tests drive, so each case runs against both.
type logOwner struct {
	name string
	wal  string // the owner's WAL file name
	open func(dir string, opts Options) (ownerLog, error)
}

// ownerLog is an open store or journal as the lifecycle tests see it.
type ownerLog interface {
	add(i int) error // appends the owner's i'th test record
	has(i int) bool  // reports whether record i is held in memory
	size() int       // records held: store records, pending journal jobs
	stats() Stats    // the engine's counters, in the store's shape
	Close() error
}

type storeLog struct{ *Store }

func (s storeLog) add(i int) error { return s.Put(testRecord(i)) }
func (s storeLog) has(i int) bool  { _, ok := s.Get(testRecord(i).Hash); return ok }
func (s storeLog) size() int       { return s.Len() }
func (s storeLog) stats() Stats    { return s.Stats() }

type journalLog struct{ *Journal }

func (j journalLog) add(i int) error { return j.Append(submitRec(i, "")) }
func (j journalLog) has(i int) bool {
	return slices.Contains(pendingIDs(j.Replay()), submitRec(i, "").ID)
}
func (j journalLog) size() int { return j.Stats().Pending }
func (j journalLog) stats() Stats {
	st := j.Stats()
	return Stats{SkippedCorrupt: st.SkippedCorrupt, TruncatedBytes: st.TruncatedBytes,
		Appends: st.Appends, AppendErrors: st.AppendErrors,
		Flushes: st.Flushes, FlushNS: st.FlushNS, LastFlushNS: st.LastFlushNS}
}

var logOwners = []logOwner{
	{"store", walName, func(dir string, opts Options) (ownerLog, error) {
		s, err := Open(dir, opts)
		return storeLog{s}, err
	}},
	{"journal", journalName, func(dir string, opts Options) (ownerLog, error) {
		j, err := OpenJournal(dir, opts)
		return journalLog{j}, err
	}},
}

// forEachOwner runs f as one subtest per owner.
func forEachOwner(t *testing.T, f func(t *testing.T, o logOwner)) {
	for _, o := range logOwners {
		t.Run(o.name, func(t *testing.T) { f(t, o) })
	}
}

func (o logOwner) mustOpen(t *testing.T, dir string, opts Options) ownerLog {
	t.Helper()
	l, err := o.open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func mustAdd(t *testing.T, l ownerLog, recs ...int) {
	t.Helper()
	for _, i := range recs {
		if err := l.add(i); err != nil {
			t.Fatal(err)
		}
	}
}

// faultyLog opens an owner whose WAL file is a faultFile; the returned
// handle arms the faults.
func faultyLog(t *testing.T, o logOwner, dir string, opts Options) (ownerLog, *faultFile) {
	t.Helper()
	var ff *faultFile
	opts.OpenFile = func(path string, flag int, perm fs.FileMode) (File, error) {
		f, err := os.OpenFile(path, flag, perm)
		if err != nil {
			return nil, err
		}
		wrapped := &faultFile{f: f}
		if filepath.Base(path) == o.wal {
			ff = wrapped
		}
		return wrapped, nil
	}
	l := o.mustOpen(t, dir, opts)
	if ff == nil {
		t.Fatal("WAL file never opened through the hook")
	}
	return l, ff
}

func TestWriteErrorKeepsRecordInMemory(t *testing.T) {
	forEachOwner(t, func(t *testing.T, o logOwner) {
		dir := t.TempDir()
		l, ff := faultyLog(t, o, dir, Options{Sync: SyncNever})
		mustAdd(t, l, 0)

		ff.mu.Lock()
		ff.failWrites = true
		ff.mu.Unlock()

		if err := l.add(1); !errors.Is(err, errInjected) {
			t.Fatalf("append with failing disk: %v, want injected fault", err)
		}
		// The record is lost to durability but not to this process.
		if !l.has(1) {
			t.Fatal("record vanished from memory after disk failure")
		}
		if st := l.stats(); st.AppendErrors != 1 || st.Appends != 1 {
			t.Fatalf("stats after write fault: %+v", st)
		}

		// Disk heals: later appends work and a reopen sees everything durable.
		ff.mu.Lock()
		ff.failWrites = false
		ff.mu.Unlock()
		mustAdd(t, l, 2)
		l.Close()

		l2 := o.mustOpen(t, dir, Options{})
		if !l2.has(0) {
			t.Fatal("pre-fault record lost")
		}
		if !l2.has(2) {
			t.Fatal("post-fault record lost")
		}
		if st := l2.stats(); st.SkippedCorrupt != 0 || st.TruncatedBytes != 0 {
			t.Fatalf("healed log reports damage: %+v", st)
		}
	})
}

func TestShortWriteTornFrameRecovered(t *testing.T) {
	forEachOwner(t, func(t *testing.T, o logOwner) {
		dir := t.TempDir()
		l, ff := faultyLog(t, o, dir, Options{Sync: SyncNever})
		mustAdd(t, l, 0)

		ff.mu.Lock()
		ff.shortWrite = true
		ff.mu.Unlock()
		if err := l.add(1); !errors.Is(err, errInjected) {
			t.Fatalf("short write not reported: %v", err)
		}
		ff.mu.Lock()
		ff.shortWrite = false
		ff.mu.Unlock()

		// The torn half-frame was truncated away; the next append must land
		// cleanly and both durable records must survive a reopen.
		mustAdd(t, l, 2)
		l.Close()

		l2 := o.mustOpen(t, dir, Options{})
		if l2.size() != 2 {
			t.Fatalf("recovered %d records, want 2", l2.size())
		}
		for _, i := range []int{0, 2} {
			if !l2.has(i) {
				t.Fatalf("record %d lost to torn frame", i)
			}
		}
		if st := l2.stats(); st.SkippedCorrupt != 0 || st.TruncatedBytes != 0 {
			t.Fatalf("torn half-frame was not cut back: %+v", st)
		}
	})
}

func TestSyncErrorSurfacesUnderSyncAlways(t *testing.T) {
	forEachOwner(t, func(t *testing.T, o logOwner) {
		l, ff := faultyLog(t, o, t.TempDir(), Options{Sync: SyncAlways})
		ff.mu.Lock()
		ff.failSyncs = true
		ff.mu.Unlock()
		if err := l.add(0); !errors.Is(err, errInjected) {
			t.Fatalf("SyncAlways swallowed an fsync failure: %v", err)
		}
		// The bytes are written (only the fsync failed): the record is in
		// memory and durable against process death, just not power loss.
		if !l.has(0) {
			t.Fatal("record lost after fsync failure")
		}
	})
}

func TestReadErrorFailsOpen(t *testing.T) {
	forEachOwner(t, func(t *testing.T, o logOwner) {
		dir := t.TempDir()
		l := o.mustOpen(t, dir, Options{Sync: SyncNever})
		mustAdd(t, l, 0)
		l.Close()

		_, err := o.open(dir, Options{
			ReadFile: func(path string) ([]byte, error) { return nil, errInjected },
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("unreadable log must fail Open loudly, got %v", err)
		}
	})
}
