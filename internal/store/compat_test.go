package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/compat holds directories written by the code before the store
// and the journal shared one log engine, when the journal was a single
// jobs.log rewritten in place. They must keep opening unchanged.

// compatRecords are the store fixture's records, snapshot.log's five first,
// then wal.log's three.
const compatRecords = `{"hash":"00000000000000000000000000000000000000000000000000000000f00d0000","rows":2,"cols":3,"depth":2,"certificate":1,"rank_lb":2,"fooling_lb":1,"blocks":1,"heuristic_depth":2,"rects":[{"r":[0],"c":[0,1]},{"r":[1],"c":[1,2]}]}
{"hash":"00000000000000000000000000000000000000000000000000000000f00d0001","rows":3,"cols":3,"depth":3,"certificate":2,"rank_lb":2,"fooling_lb":2,"blocks":2,"heuristic_depth":4,"rects":[{"r":[0],"c":[0,1]},{"r":[1],"c":[1,2]},{"r":[2],"c":[2,0]}]}
{"hash":"00000000000000000000000000000000000000000000000000000000f00d0002","rows":2,"cols":3,"depth":2,"certificate":3,"rank_lb":2,"fooling_lb":1,"blocks":1,"heuristic_depth":2,"rects":[{"r":[0],"c":[0,1]},{"r":[1],"c":[1,2]}]}
{"hash":"00000000000000000000000000000000000000000000000000000000f00d0003","rows":3,"cols":3,"depth":3,"certificate":1,"rank_lb":2,"fooling_lb":2,"blocks":2,"heuristic_depth":4,"rects":[{"r":[0],"c":[0,1]},{"r":[1],"c":[1,2]},{"r":[2],"c":[2,0]}]}
{"hash":"00000000000000000000000000000000000000000000000000000000f00d0004","rows":2,"cols":3,"depth":2,"certificate":2,"rank_lb":2,"fooling_lb":1,"blocks":1,"heuristic_depth":2,"rects":[{"r":[0],"c":[0,1]},{"r":[1],"c":[1,2]}]}
{"hash":"00000000000000000000000000000000000000000000000000000000f00d0005","rows":3,"cols":3,"depth":3,"certificate":3,"rank_lb":2,"fooling_lb":2,"blocks":2,"heuristic_depth":4,"rects":[{"r":[0],"c":[0,1]},{"r":[1],"c":[1,2]},{"r":[2],"c":[2,0]}]}
{"hash":"00000000000000000000000000000000000000000000000000000000f00d0006","rows":2,"cols":3,"depth":2,"certificate":1,"rank_lb":2,"fooling_lb":1,"blocks":1,"heuristic_depth":2,"rects":[{"r":[0],"c":[0,1]},{"r":[1],"c":[1,2]}]}
{"hash":"00000000000000000000000000000000000000000000000000000000f00d0007","rows":3,"cols":3,"depth":3,"certificate":2,"rank_lb":2,"fooling_lb":2,"blocks":2,"heuristic_depth":4,"rects":[{"r":[0],"c":[0,1]},{"r":[1],"c":[1,2]},{"r":[2],"c":[2,0]}]}`

// compatOutstanding is the journal fixture's outstanding set. Its jobs.log
// also holds two settled jobs, one of them with a delivered webhook.
const compatOutstanding = `{"Pending":[{"kind":"submit","id":"job-pending","tenant":"default","matrix":"101\n010\n111","options":{"timeout_ms":1000},"cancel_on_disconnect":true}],` +
	`"Undelivered":[{"kind":"terminal","id":"job-undelivered","callback":"http://hooks.internal/done","state":"done","job":{"id":"job-undelivered","state":"done","tenant":"default","result":{"depth":2,"optimal":true}}}]}`

// compatCopy copies one fixture directory somewhere Open may write.
func compatCopy(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "compat", name))); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCompatStoreDirectoryOpens(t *testing.T) {
	s := mustOpen(t, compatCopy(t, "store"), Options{Sync: SyncNever})
	st := s.Stats()
	if st.LoadedSnapshot != 5 || st.LoadedWAL != 3 || st.Records != 8 || st.SkippedCorrupt != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("stats: %+v", st)
	}
	for _, want := range strings.Split(compatRecords, "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(want), &rec); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(rec.Hash)
		if !ok {
			t.Fatalf("record %s missing", rec.Hash)
		}
		if b, _ := json.Marshal(got); string(b) != want {
			t.Fatalf("record %s = %s, want %s", rec.Hash, b, want)
		}
	}
}

func TestCompatJournalDirectoryOpens(t *testing.T) {
	dir := compatCopy(t, "journal")
	// The first open replays jobs.log and compacts it into
	// jobs.snapshot.log; the second replays that snapshot.
	for _, loaded := range []int64{8, 3} {
		j := mustOpenJournal(t, dir, Options{Sync: SyncNever})
		if got, _ := json.Marshal(j.Replay()); string(got) != compatOutstanding {
			t.Fatalf("outstanding = %s, want %s", got, compatOutstanding)
		}
		st := j.Stats()
		if st.Loaded != loaded || st.Pending != 1 || st.Undelivered != 1 || st.SkippedCorrupt != 0 || st.TruncatedBytes != 0 {
			t.Fatalf("stats after loading %d records: %+v", loaded, st)
		}
		if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() != 0 {
			t.Fatalf("jobs.log not truncated by the boot compaction: %v %v", fi, err)
		}
		j.Close()
	}
}
