package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// testRecord builds a small valid record with a distinguishable hash.
func testRecord(i int) *Record {
	return &Record{
		Hash:  fmt.Sprintf("%064x", i+1),
		Rows:  2,
		Cols:  2,
		Depth: 2,
		Rects: []RectRecord{
			{Rows: []int{0}, Cols: []int{0, 1}},
			{Rows: []int{1}, Cols: []int{0}},
		},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, recs ...*Record) {
	t.Helper()
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	for i := 0; i < 10; i++ {
		mustPut(t, s, testRecord(i))
	}
	// Abandon without Close: a kill -9 leaves exactly this state (appends
	// are written through to the fd; only fsync is skipped, and the page
	// cache survives the process).
	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 10 {
		t.Fatalf("recovered %d records, want 10", s2.Len())
	}
	st := s2.Stats()
	if st.LoadedWAL != 10 || st.LoadedSnapshot != 0 {
		t.Fatalf("loaded snapshot=%d wal=%d, want 0/10", st.LoadedSnapshot, st.LoadedWAL)
	}
	if st.SkippedCorrupt != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("clean log reported damage: %+v", st)
	}
	for i := 0; i < 10; i++ {
		want := testRecord(i)
		got, ok := s2.Get(want.Hash)
		if !ok || got.Depth != want.Depth || len(got.Rects) != 2 {
			t.Fatalf("record %d: got %+v ok=%v", i, got, ok)
		}
	}
}

func TestDuplicatePutIsNoOp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	mustPut(t, s, testRecord(0), testRecord(0), testRecord(0))
	if st := s.Stats(); st.Appends != 1 {
		t.Fatalf("appends = %d, want 1", st.Appends)
	}
}

func TestPutRejectsInvalidRecords(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	bad := []*Record{
		{},                                      // no hash
		{Hash: "a", Rows: 0, Cols: 2},           // bad dims
		{Hash: "a", Rows: 2, Cols: 2, Depth: 1}, // depth != rects
		{Hash: "a", Rows: 2, Cols: 2, Depth: 1,
			Rects: []RectRecord{{Rows: []int{5}, Cols: []int{0}}}}, // out of range
		{Hash: "a", Rows: 2, Cols: 2, Depth: 1,
			Rects: []RectRecord{{Rows: nil, Cols: []int{0}}}}, // empty rect
	}
	for i, rec := range bad {
		if err := s.Put(rec); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("invalid records entered the index")
	}
}

// corrupt flips bytes in the WAL at the given offset.
func corrupt(t *testing.T, dir string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestCorruptMiddleRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	frameLens := make([]int64, 3)
	for i := 0; i < 3; i++ {
		before := s.Stats().WALBytes
		mustPut(t, s, testRecord(i))
		frameLens[i] = s.Stats().WALBytes - before
	}
	s.Close()

	// Flip a payload byte inside the middle record: its CRC fails, the
	// parser resyncs to record 2's magic, and records 0 and 2 survive.
	corrupt(t, dir, frameLens[0]+frameHeader+4, []byte{0xFF})

	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", s2.Len())
	}
	if _, ok := s2.Get(testRecord(1).Hash); ok {
		t.Fatal("corrupt record served")
	}
	for _, i := range []int{0, 2} {
		if _, ok := s2.Get(testRecord(i).Hash); !ok {
			t.Fatalf("record %d lost to a neighbour's corruption", i)
		}
	}
	if st := s2.Stats(); st.SkippedCorrupt < 1 {
		t.Fatalf("skipped_corrupt = %d, want >= 1", st.SkippedCorrupt)
	}
}

func TestCorruptLengthFieldSkipped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	var firstLen int64
	for i := 0; i < 3; i++ {
		mustPut(t, s, testRecord(i))
		if i == 0 {
			firstLen = s.Stats().WALBytes
		}
	}
	s.Close()

	// Clobber record 1's length field with an absurd value.
	var lenBytes [4]byte
	binary.LittleEndian.PutUint32(lenBytes[:], 0x7FFFFFFF)
	corrupt(t, dir, firstLen+4, lenBytes[:])

	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", s2.Len())
	}
	for _, i := range []int{0, 2} {
		if _, ok := s2.Get(testRecord(i).Hash); !ok {
			t.Fatalf("record %d lost", i)
		}
	}
}

func TestTruncatedTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	for i := 0; i < 3; i++ {
		mustPut(t, s, testRecord(i))
	}
	s.Close()

	// Chop the file mid-frame: the classic torn append.
	size := walSize(t, dir)
	if err := os.Truncate(filepath.Join(dir, walName), size-7); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{Sync: SyncNever})
	if s2.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", s2.Len())
	}
	if st := s2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The tail must have been physically truncated so new appends land on a
	// frame boundary; a third reopen must see old records plus the new one.
	mustPut(t, s2, testRecord(3))
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	if s3.Len() != 3 {
		t.Fatalf("after post-recovery append: %d records, want 3", s3.Len())
	}
	if st := s3.Stats(); st.SkippedCorrupt != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("recovered log still reports damage: %+v", st)
	}
}

func TestGarbageTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	mustPut(t, s, testRecord(0))
	s.Close()

	// Append a partial header of garbage (a torn append that wrote junk).
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03})
	f.Close()

	s2 := mustOpen(t, dir, Options{Sync: SyncNever})
	if s2.Len() != 1 {
		t.Fatalf("recovered %d records, want 1", s2.Len())
	}
	mustPut(t, s2, testRecord(1))
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	if s3.Len() != 2 {
		t.Fatalf("append after garbage tail: %d records, want 2", s3.Len())
	}
}

func TestWholeFileGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), bytes.Repeat([]byte{0x5A}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	if s.Len() != 0 {
		t.Fatalf("garbage produced %d records", s.Len())
	}
	mustPut(t, s, testRecord(0))
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 1 {
		t.Fatalf("append after garbage file: %d records, want 1", s2.Len())
	}
}

func TestCompactionRotatesSnapshotAtomically(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	for i := 0; i < 20; i++ {
		mustPut(t, s, testRecord(i))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions != 1 || st.WALBytes != 0 || st.SnapshotBytes == 0 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, snapTempName)); !os.IsNotExist(err) {
		t.Fatal("snapshot temp file left behind")
	}
	// Appends continue into the truncated WAL.
	mustPut(t, s, testRecord(20))
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 21 {
		t.Fatalf("recovered %d records, want 21", s2.Len())
	}
	st = s2.Stats()
	if st.LoadedSnapshot != 20 || st.LoadedWAL != 1 {
		t.Fatalf("loaded snapshot=%d wal=%d, want 20/1", st.LoadedSnapshot, st.LoadedWAL)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactAfterBytes: 256})
	for i := 0; i < 10; i++ {
		mustPut(t, s, testRecord(i))
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("WAL grew past CompactAfterBytes without compaction")
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 10 {
		t.Fatalf("recovered %d records, want 10", s2.Len())
	}
}

func TestCrashBetweenRotateAndTruncateDeduplicates(t *testing.T) {
	// Simulate the one non-atomic window in compaction: the snapshot was
	// renamed into place but the crash landed before the WAL truncate. The
	// WAL then replays records the snapshot already holds.
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	for i := 0; i < 5; i++ {
		mustPut(t, s, testRecord(i))
	}
	s.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot := current WAL contents; WAL left as-is (stale duplicates).
	if err := os.WriteFile(filepath.Join(dir, snapshotName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 5 {
		t.Fatalf("deduplicated load got %d records, want 5", s2.Len())
	}
	st := s2.Stats()
	if st.SkippedCorrupt != 0 {
		t.Fatalf("duplicates counted as corruption: %+v", st)
	}
}

func TestDeleteSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	mustPut(t, s, testRecord(0), testRecord(1))
	s.Delete(testRecord(0).Hash)
	if _, ok := s.Get(testRecord(0).Hash); ok {
		t.Fatal("deleted record still served")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if _, ok := s2.Get(testRecord(0).Hash); ok {
		t.Fatal("deleted record resurrected after compaction")
	}
	if s2.Len() != 1 {
		t.Fatalf("recovered %d records, want 1", s2.Len())
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		forEachOwner(t, func(t *testing.T, o logOwner) {
			l := o.mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
			mustAdd(t, l, 0, 1)
			if st := l.stats(); st.Flushes != 2 || st.LastFlushNS <= 0 {
				t.Fatalf("SyncAlways stats: %+v", st)
			}
		})
	})
	t.Run("interval", func(t *testing.T) {
		forEachOwner(t, func(t *testing.T, o logOwner) {
			l := o.mustOpen(t, t.TempDir(), Options{Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
			mustAdd(t, l, 0)
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if l.stats().Flushes > 0 {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatal("interval flusher never synced")
		})
	})
	t.Run("never", func(t *testing.T) {
		forEachOwner(t, func(t *testing.T, o logOwner) {
			l := o.mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
			mustAdd(t, l, 0)
			if st := l.stats(); st.Flushes != 0 {
				t.Fatalf("SyncNever flushed: %+v", st)
			}
			// Close always performs the final flush.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if st := l.stats(); st.Flushes != 1 {
				t.Fatalf("Close did not flush: %+v", st)
			}
		})
	})
}

// TestStatsJSONKeys pins the /v1/metrics store and journal sections: loadbench
// decodes these keys and the smoke scripts grep for them.
func TestStatsJSONKeys(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{Stats{}, []string{"append_errors", "appends", "compactions", "deletes", "flush_ns", "flushes",
			"last_flush_ns", "loaded_snapshot", "loaded_wal", "records", "skipped_corrupt",
			"snapshot_bytes", "truncated_bytes", "wal_bytes"}},
		{JournalStats{}, []string{"append_errors", "appends", "bytes", "compactions", "flush_ns", "flushes",
			"last_flush_ns", "loaded", "pending", "skipped_corrupt", "truncated_bytes", "undelivered"}},
	} {
		b, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if got := slices.Sorted(maps.Keys(m)); !slices.Equal(got, tc.want) {
			t.Errorf("%T keys = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestClosedStoreRejectsOperations(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	s.Close()
	if err := s.Put(testRecord(0)); err != ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Fatalf("Compact after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncInterval, SyncEvery: time.Millisecond, CompactAfterBytes: 512})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := testRecord(g*50 + i)
				if err := s.Put(rec); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, ok := s.Get(rec.Hash); !ok {
					t.Errorf("own record invisible")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("index has %d records, want 400", s.Len())
	}
}

// FuzzParseLog feeds arbitrary bytes to the replay path Open and
// OpenJournal run on every log file, decoding them both as result records
// and as journal records (folded, then read back through Replay).
func FuzzParseLog(f *testing.F) {
	// Seeds: a valid two-record log, a corrupted one, raw garbage, and a
	// valid journal log.
	rec0, _ := encodeFrame(testRecord(0))
	rec1, _ := encodeFrame(testRecord(1))
	valid := append(append([]byte{}, rec0...), rec1...)
	f.Add(valid)
	damaged := append([]byte{}, valid...)
	damaged[frameHeader+3] ^= 0xFF
	f.Add(damaged)
	f.Add([]byte("not a log at all"))
	var jobs []byte
	for _, rec := range []*JobRecord{submitRec(0, "http://hook.internal/cb"), submitRec(1, ""),
		terminalRec(0, ""), {Kind: JobWebhook, ID: "j-0001"}} {
		frame, _ := encodeFrame(rec)
		jobs = append(jobs, frame...)
	}
	f.Add(jobs)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Store{index: make(map[string]*Record)}
		j := &Journal{entries: make(map[string]*journalEntry)}
		for _, decode := range []func([]byte) bool{decodeInto(s.insert), decodeInto(j.applyLocked)} {
			res := scanFrames(data, decode)
			if res.validEnd > int64(len(data)) || res.validEnd < 0 {
				t.Fatalf("validEnd %d out of range for %d bytes", res.validEnd, len(data))
			}
		}
		// Whatever comes back must be fully valid.
		for _, rec := range s.index {
			if err := rec.Validate(); err != nil {
				t.Fatalf("replay returned invalid record: %v", err)
			}
		}
		r := j.Replay()
		for _, rec := range append(r.Pending, r.Undelivered...) {
			if err := rec.Validate(); err != nil {
				t.Fatalf("replay returned invalid job record: %v", err)
			}
		}
	})
}
