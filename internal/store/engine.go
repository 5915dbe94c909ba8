package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// logPolicy is what an owner tells the engine about its records.
type logPolicy struct {
	// wal, snapshot and temp name the owner's files inside its directory.
	wal, snapshot, temp string
	// errClosed is what operations return after Close.
	errClosed error
	// decode folds one replayed payload into the owner's memory and reports
	// whether it held a valid record.
	decode func(payload []byte) bool
	// live writes the owner's live set, in replay order, when the log
	// compacts. The engine calls it with mu held.
	live func(emit func(rec any) error) error
}

// logEngine is the append-only log the result store and the job journal
// both run on: a snapshot of the live set, replayed first on Open, then a
// WAL of everything appended since that snapshot was written. It owns the
// lifecycle (replay with torn-tail truncation, framed appends, fsync by
// SyncPolicy, compaction, Close); its owner supplies a logPolicy and keeps
// only what its records mean. Owners embed it, so mu guards their state too.
type logEngine struct {
	dir  string
	opts Options
	pol  logPolicy

	mu       sync.Mutex
	wal      File  // nil after Close or an unrecoverable write failure
	walBytes int64 // the WAL's length: bytes appended since the last compaction
	dirty    bool  // bytes written since the last fsync
	closed   bool
	stats    Stats // Records and Deletes are the store's to fill in

	flusherStop chan struct{}
	flusherDone chan struct{}
}

// open loads the snapshot and then the WAL from dir (creating it if needed)
// through pol.decode, truncates any torn WAL tail so new appends never land
// after garbage, and opens the WAL for appending. WAL records are newer: a
// crash between snapshot rotation and WAL truncation replays records the
// snapshot already holds, which the owner's fold must absorb.
func (e *logEngine) open(dir string, opts Options, pol logPolicy) error {
	e.dir, e.opts, e.pol = dir, opts.withDefaults(), pol
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}
	snap, err := e.replay(pol.snapshot)
	if err != nil {
		return err
	}
	wal, err := e.replay(pol.wal)
	if err != nil {
		return err
	}
	e.stats.LoadedSnapshot, e.stats.LoadedWAL = snap.records, wal.records
	e.stats.SnapshotBytes = snap.size
	e.stats.SkippedCorrupt = snap.skippedRecords + wal.skippedRecords
	e.stats.TruncatedBytes = snap.skippedBytes + snap.tornBytes + wal.skippedBytes + wal.tornBytes

	f, err := e.opts.OpenFile(filepath.Join(dir, pol.wal), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", pol.wal, err)
	}
	if err := f.Truncate(wal.validEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: truncate torn %s tail: %w", pol.wal, err)
	}
	if _, err := seekEnd(f); err != nil {
		f.Close()
		return fmt.Errorf("store: seek %s: %w", pol.wal, err)
	}
	e.wal, e.walBytes = f, wal.validEnd

	if e.stats.SkippedCorrupt > 0 || e.stats.TruncatedBytes > 0 {
		e.opts.Logger.Printf("store: %s: recovered %d records (%d snapshot, %d wal), skipped %d corrupt, discarded %d bytes",
			dir, snap.records+wal.records, snap.records, wal.records,
			e.stats.SkippedCorrupt, e.stats.TruncatedBytes)
	}
	if e.opts.Sync == SyncInterval {
		e.flusherStop = make(chan struct{})
		e.flusherDone = make(chan struct{})
		go e.flusher()
	}
	return nil
}

// replay reads one log file through pol.decode; a missing file is an empty
// log.
func (e *logEngine) replay(name string) (frameScan, error) {
	data, err := e.opts.ReadFile(filepath.Join(e.dir, name))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return frameScan{}, fmt.Errorf("store: read %s: %w", name, err)
	}
	return scanFrames(data, e.pol.decode), nil
}

// seekEnd positions an appendable File at its end when it supports seeking
// (fault-injection Files may not; they are expected to open at the end).
func seekEnd(f File) (int64, error) {
	if sk, ok := f.(io.Seeker); ok {
		return sk.Seek(0, io.SeekEnd)
	}
	return 0, nil
}

// appendRecord validates and frames rec, then, holding mu, calls apply to
// fold it into the owner's memory and writes it to the WAL unless apply
// reports that it needs no logging. Disk failures are counted and reported
// but leave the record applied in memory: the running process keeps
// working; only restart durability is degraded.
func (e *logEngine) appendRecord(rec interface{ Validate() error }, apply func() bool) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return e.pol.errClosed
	}
	if !apply() {
		return nil
	}
	if e.wal == nil {
		e.stats.AppendErrors++
		return fmt.Errorf("store: %s unavailable", e.pol.wal)
	}
	n, err := e.wal.Write(frame)
	if err == nil && n != len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// A partial frame may be on disk; recovery's torn-tail handling
		// absorbs it. Try to cut it off now so the file stays clean, and
		// stop appending if the offset can no longer be trusted.
		e.stats.AppendErrors++
		if e.wal.Truncate(e.walBytes) != nil {
			e.wal = nil
		} else if _, serr := seekEnd(e.wal); serr != nil {
			e.wal = nil
		}
		e.opts.Logger.Printf("store: append to %s failed: %v", e.pol.wal, err)
		return fmt.Errorf("store: append: %w", err)
	}
	e.walBytes += int64(n)
	e.dirty = true
	e.stats.Appends++
	if e.opts.Sync == SyncAlways {
		if err := e.syncLocked(); err != nil {
			return fmt.Errorf("store: fsync: %w", err)
		}
	}
	if e.opts.CompactAfterBytes > 0 && e.walBytes > e.opts.CompactAfterBytes {
		if err := e.compactLocked(); err != nil {
			e.opts.Logger.Printf("store: auto-compaction failed: %v", err)
		}
	}
	return nil
}

// Flush fsyncs any unsynced appends.
func (e *logEngine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return e.pol.errClosed
	}
	return e.syncLocked()
}

// syncLocked fsyncs the WAL if dirty. Caller holds mu.
func (e *logEngine) syncLocked() error {
	if !e.dirty || e.wal == nil {
		return nil
	}
	t0 := time.Now()
	err := e.wal.Sync()
	d := time.Since(t0).Nanoseconds()
	e.stats.Flushes++
	e.stats.FlushNS += d
	e.stats.LastFlushNS = d
	if err != nil {
		e.opts.Logger.Printf("store: fsync %s failed: %v", e.pol.wal, err)
		return err
	}
	e.dirty = false
	return nil
}

// flusher is the SyncInterval background loop.
func (e *logEngine) flusher() {
	defer close(e.flusherDone)
	t := time.NewTicker(e.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-e.flusherStop:
			return
		case <-t.C:
			e.mu.Lock()
			if !e.closed {
				e.syncLocked()
			}
			e.mu.Unlock()
		}
	}
}

// Compact rewrites the live set as a fresh snapshot and truncates the WAL.
// Rotation is atomic (temp + fsync + rename + dir fsync), so a crash at any
// point leaves either the old snapshot plus the full WAL or the new
// snapshot plus a possibly stale WAL — both replay to the same state.
func (e *logEngine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return e.pol.errClosed
	}
	return e.compactLocked()
}

func (e *logEngine) compactLocked() error {
	tmpPath := filepath.Join(e.dir, e.pol.temp)
	tmp, err := e.opts.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", e.pol.temp, err)
	}
	var records, size int64
	err = e.pol.live(func(rec any) error {
		frame, err := encodeFrame(rec)
		if err != nil {
			return err
		}
		n, err := tmp.Write(frame)
		if err == nil && n != len(frame) {
			err = io.ErrShortWrite
		}
		records++
		size += int64(n)
		return err
	})
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, filepath.Join(e.dir, e.pol.snapshot))
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: write %s: %w", e.pol.snapshot, err)
	}
	syncDir(e.dir)

	// The snapshot now holds the live set; restart the WAL. If truncation
	// fails the WAL merely replays records the snapshot already has.
	if e.wal != nil {
		if err := e.wal.Truncate(0); err == nil {
			if _, err := seekEnd(e.wal); err != nil {
				e.wal = nil
			} else {
				e.walBytes = 0
				e.dirty = false
			}
		}
	}
	e.stats.Compactions++
	e.stats.SnapshotBytes = size
	e.opts.Logger.Printf("store: compacted %d records into %d-byte %s", records, size, e.pol.snapshot)
	return nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close flushes and closes the log. Further operations return the owner's
// closed error.
func (e *logEngine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	err := e.syncLocked()
	if e.wal != nil {
		if cerr := e.wal.Close(); err == nil {
			err = cerr
		}
		e.wal = nil
	}
	e.mu.Unlock()
	if e.flusherStop != nil {
		close(e.flusherStop)
		<-e.flusherDone
	}
	return err
}
