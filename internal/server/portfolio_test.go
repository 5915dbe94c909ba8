package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wire"
)

// TestPortfolioBadStrategy400: an unknown strategy name is a client error.
func TestPortfolioBadStrategy400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.SolveRequest{
		Matrix:  fig1b,
		Options: &wire.SolveOptions{PortfolioStrategies: []string{"bogus"}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestReplayRetiredRacingOptionFails: a job journaled before strategy racing
// was removed, with options that asked for a race, ends failed on replay
// with a journal replay error. It never runs solo in silence.
func TestReplayRetiredRacingOptionFails(t *testing.T) {
	dir := t.TempDir()
	jn := openTestJournal(t, dir)
	id := wire.NewJobID("j-")
	if err := jn.Append(&store.JobRecord{
		Kind:    store.JobSubmit,
		ID:      id,
		Tenant:  "default",
		Matrix:  fig1b,
		Options: json.RawMessage(`{"portfolio":3}`),
	}); err != nil {
		t.Fatal(err)
	}
	jn.Close()

	_, ts := newTestServer(t, Config{Journal: openTestJournal(t, dir)})
	j := waitJobState(t, ts.URL, "", id, func(j *wire.JobJSON) bool {
		return wire.JobTerminal(j.State)
	})
	if j.State != wire.JobFailed || !strings.HasPrefix(j.Error, "journal replay: ") || !strings.Contains(j.Error, "portfolio") {
		t.Fatalf("replayed racing job: state %q error %q, want failed with a journal replay error naming portfolio", j.State, j.Error)
	}
	if j.Result != nil {
		t.Fatalf("replayed racing job carries a result: %+v", j.Result)
	}
}
