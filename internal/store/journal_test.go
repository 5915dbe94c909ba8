package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// submitRec builds a valid submit record for job i.
func submitRec(i int, callback string) *JobRecord {
	return &JobRecord{
		Kind:     JobSubmit,
		ID:       fmt.Sprintf("j-%04x", i),
		Tenant:   "default",
		Matrix:   "10\n01",
		Options:  json.RawMessage(`{"timeout_ms":1000}`),
		Callback: callback,
	}
}

// terminalRec builds the matching terminal record.
func terminalRec(i int, callback string) *JobRecord {
	return &JobRecord{
		Kind:     JobTerminal,
		ID:       fmt.Sprintf("j-%04x", i),
		State:    "done",
		Callback: callback,
		Job:      json.RawMessage(fmt.Sprintf(`{"id":"j-%04x","state":"done"}`, i)),
	}
}

func mustOpenJournal(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func mustAppend(t *testing.T, j *Journal, recs ...*JobRecord) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func pendingIDs(r JournalReplay) []string {
	ids := make([]string, 0, len(r.Pending))
	for _, rec := range r.Pending {
		ids = append(ids, rec.ID)
	}
	return ids
}

func TestJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever})

	mustAppend(t, j, submitRec(0, "http://hook.internal/cb"))
	if r := j.Replay(); len(r.Pending) != 1 || r.Pending[0].ID != "j-0000" {
		t.Fatalf("after submit: %+v", r)
	}

	mustAppend(t, j, terminalRec(0, "http://hook.internal/cb"))
	r := j.Replay()
	if len(r.Pending) != 0 {
		t.Fatalf("terminal job still pending: %+v", r)
	}
	if len(r.Undelivered) != 1 || r.Undelivered[0].Callback != "http://hook.internal/cb" {
		t.Fatalf("terminal with callback not undelivered: %+v", r)
	}

	mustAppend(t, j, &JobRecord{Kind: JobWebhook, ID: "j-0000"})
	if r := j.Replay(); len(r.Pending) != 0 || len(r.Undelivered) != 0 {
		t.Fatalf("acked job still outstanding: %+v", r)
	}
}

// TestJournalCrashBetweenSubmitAndTerminal is the tentpole's core recovery
// property: a replay re-admits exactly the unfinished set, in submit order.
func TestJournalCrashBetweenSubmitAndTerminal(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever})
	// Jobs 0..4 submitted; 1 and 3 finished (no callback). Crash.
	for i := 0; i < 5; i++ {
		mustAppend(t, j, submitRec(i, ""))
	}
	mustAppend(t, j, terminalRec(1, ""), terminalRec(3, ""))
	// Abandon without Close: kill -9 leaves exactly these bytes.

	j2 := mustOpenJournal(t, dir, Options{})
	r := j2.Replay()
	got := pendingIDs(r)
	want := []string{"j-0000", "j-0002", "j-0004"}
	if len(got) != len(want) {
		t.Fatalf("pending after crash = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pending after crash = %v, want %v", got, want)
		}
	}
	if len(r.Undelivered) != 0 {
		t.Fatalf("callback-free terminals reported undelivered: %+v", r)
	}
	// The submit record must carry everything needed to re-admit.
	p := r.Pending[0]
	if p.Matrix == "" || p.Tenant != "default" || len(p.Options) == 0 {
		t.Fatalf("replayed submit lost fields: %+v", p)
	}
}

func TestJournalUndeliveredWebhookSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever})
	mustAppend(t, j, submitRec(0, "http://hook.internal/cb"))
	// Terminal journaled without its own callback copy: Replay must lift it
	// from the submit record so delivery can resume from either shape.
	mustAppend(t, j, terminalRec(0, ""))

	j2 := mustOpenJournal(t, dir, Options{})
	r := j2.Replay()
	if len(r.Undelivered) != 1 {
		t.Fatalf("undelivered after restart: %+v", r)
	}
	u := r.Undelivered[0]
	if u.Callback != "http://hook.internal/cb" || len(u.Job) == 0 {
		t.Fatalf("undelivered record incomplete: %+v", u)
	}

	// Ack, restart again: nothing outstanding and the file compacts empty.
	mustAppend(t, j2, &JobRecord{Kind: JobWebhook, ID: "j-0000"})
	j2.Close()
	j3 := mustOpenJournal(t, dir, Options{})
	if r := j3.Replay(); len(r.Pending) != 0 || len(r.Undelivered) != 0 {
		t.Fatalf("settled job resurfaced: %+v", r)
	}
	if st := j3.Stats(); st.Bytes != 0 {
		t.Fatalf("settled journal not compacted empty: %+v", st)
	}
}

// journalCorrupt flips bytes in the journal file at the given offset.
func journalCorrupt(t *testing.T, dir string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestJournalByteFlipSkipsOnlyDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever})
	var ends []int64
	for i := 0; i < 3; i++ {
		mustAppend(t, j, submitRec(i, ""))
		j.Flush()
		ends = append(ends, journalSize(t, dir))
	}
	j.Close()

	// Flip one payload byte inside the middle record.
	journalCorrupt(t, dir, ends[0]+frameHeader+4, []byte{0xFF})

	j2 := mustOpenJournal(t, dir, Options{})
	st := j2.Stats()
	if st.SkippedCorrupt != 1 {
		t.Fatalf("skipped = %d, want 1: %+v", st.SkippedCorrupt, st)
	}
	got := pendingIDs(j2.Replay())
	if len(got) != 2 || got[0] != "j-0000" || got[1] != "j-0002" {
		t.Fatalf("pending after byte flip = %v, want [j-0000 j-0002]", got)
	}
	// New appends after recovery must still be readable.
	mustAppend(t, j2, submitRec(7, ""))
	j2.Close()
	j3 := mustOpenJournal(t, dir, Options{})
	if got := pendingIDs(j3.Replay()); len(got) != 3 {
		t.Fatalf("pending after heal = %v, want 3 jobs", got)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever})
	mustAppend(t, j, submitRec(0, ""), submitRec(1, ""))
	j.Close()

	// Simulate a crash mid-append: chop the last record in half.
	full := journalSize(t, dir)
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(full - (full / 4)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := mustOpenJournal(t, dir, Options{})
	if st := j2.Stats(); st.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", st)
	}
	if got := pendingIDs(j2.Replay()); len(got) != 1 || got[0] != "j-0000" {
		t.Fatalf("pending after torn tail = %v, want [j-0000]", got)
	}
	// The tail was truncated away; appends land cleanly on the new end.
	mustAppend(t, j2, submitRec(9, ""))
	j2.Close()
	j3 := mustOpenJournal(t, dir, Options{})
	if st := j3.Stats(); st.SkippedCorrupt != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("healed journal reports damage: %+v", st)
	}
	if got := pendingIDs(j3.Replay()); len(got) != 2 {
		t.Fatalf("pending after heal = %v, want 2 jobs", got)
	}
}

func TestJournalCompactionDropsSettledJobs(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever})
	for i := 0; i < 20; i++ {
		mustAppend(t, j, submitRec(i, ""))
		if i%2 == 0 {
			mustAppend(t, j, terminalRec(i, ""))
		}
	}
	before := j.Stats().Bytes
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Bytes >= before {
		t.Fatalf("compaction did not shrink: %d -> %d", before, st.Bytes)
	}
	if st.Pending != 10 || st.Undelivered != 0 {
		t.Fatalf("outstanding set changed by compaction: %+v", st)
	}
	// Appends after the rotation land in the new file and survive reopen.
	mustAppend(t, j, submitRec(100, ""))
	j.Close()
	j2 := mustOpenJournal(t, dir, Options{})
	if got := pendingIDs(j2.Replay()); len(got) != 11 {
		t.Fatalf("pending after compaction+reopen = %v, want 11 jobs", got)
	}
}

func TestJournalAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever, CompactAfterBytes: 512})
	for i := 0; i < 50; i++ {
		mustAppend(t, j, submitRec(i, ""), terminalRec(i, ""))
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatalf("threshold never triggered compaction: %+v", st)
	}
	if st.Bytes > 512+256 {
		t.Fatalf("journal grew without bound: %+v", st)
	}
}

func TestJournalRejectsInvalidRecords(t *testing.T) {
	j := mustOpenJournal(t, t.TempDir(), Options{Sync: SyncNever})
	bad := []*JobRecord{
		{},                             // no ID
		{Kind: "bogus", ID: "j-1"},     // unknown kind
		{Kind: JobSubmit, ID: "j-1"},   // submit without matrix
		{Kind: JobTerminal, ID: "j-1"}, // terminal without state
	}
	for i, rec := range bad {
		if err := j.Append(rec); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	if st := j.Stats(); st.Appends != 0 {
		t.Fatalf("invalid records were appended: %+v", st)
	}
}

func TestJournalClosedRejectsOperations(t *testing.T) {
	j := mustOpenJournal(t, t.TempDir(), Options{Sync: SyncNever})
	j.Close()
	if err := j.Append(submitRec(0, "")); err != ErrJournalClose {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := j.Compact(); err != ErrJournalClose {
		t.Fatalf("Compact after Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestJournalCompactsPerKiBAppended pins the compaction trigger to WAL bytes
// appended since the last compaction. Outstanding jobs outgrowing the
// threshold must not make every append rewrite the whole journal: 200
// pending submits (about 22 KB) at 1 KiB compact about once per KiB.
func TestJournalCompactsPerKiBAppended(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever, CompactAfterBytes: 1024})
	for i := 0; i < 200; i++ {
		mustAppend(t, j, submitRec(i, ""))
	}
	st := j.Stats()
	if st.Compactions > 25 {
		t.Fatalf("%d compactions for %d appends: %+v", st.Compactions, st.Appends, st)
	}
	if st.Pending != 200 {
		t.Fatalf("pending = %d, want 200", st.Pending)
	}
	j.Close()
	if got := pendingIDs(mustOpenJournal(t, dir, Options{}).Replay()); len(got) != 200 {
		t.Fatalf("pending after reopen = %d jobs, want 200", len(got))
	}
}

// TestJournalCrashBetweenRotateAndTruncate simulates the one non-atomic
// window in compaction: the snapshot was renamed into place but the crash
// landed before jobs.log was truncated, so jobs.log replays records the
// snapshot already holds.
func TestJournalCrashBetweenRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, Options{Sync: SyncNever})
	const hook = "http://hook.internal/cb"
	for i := 0; i < 4; i++ {
		mustAppend(t, j, submitRec(i, hook))
	}
	// 0 pending, 1 undelivered, 2 settled, 3 undelivered after a lost ack.
	mustAppend(t, j, terminalRec(1, ""), terminalRec(2, hook), &JobRecord{Kind: JobWebhook, ID: "j-0002"},
		terminalRec(3, hook))
	want := j.Replay()
	j.Close()
	stale, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	// Reopening compacts into jobs.snapshot.log; then put the stale WAL back.
	mustOpenJournal(t, dir, Options{}).Close()
	if err := os.WriteFile(filepath.Join(dir, journalName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpenJournal(t, dir, Options{})
	if got := j2.Replay(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay over a stale jobs.log = %+v, want %+v", got, want)
	}
	if len(want.Pending) != 1 || len(want.Undelivered) != 2 {
		t.Fatalf("outstanding set before the crash: %+v", want)
	}
	if st := j2.Stats(); st.SkippedCorrupt != 0 {
		t.Fatalf("duplicates counted as corruption: %+v", st)
	}
}
