package cluster

import (
	"net/http"
	"regexp"
	"testing"

	"repro/internal/wire"
)

// TestGatewayJobIDsUnguessable pins the gateway ID policy: 64 bits of
// crypto/rand, not a guessable counter.
func TestGatewayJobIDsUnguessable(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	format := regexp.MustCompile(`^gw-[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "",
			wire.JobRequest{Matrix: fig1b})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		j := decodeGWJob(t, body)
		if !format.MatchString(j.ID) {
			t.Fatalf("job ID %q not crypto-random format", j.ID)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate gateway job ID %q", j.ID)
		}
		seen[j.ID] = true
	}
}

// TestJobTableEvictsTerminalFirst is the satellite regression: a full table
// must shed finished jobs before live ones. The pre-fix FIFO eviction
// dropped the oldest entry regardless of state, killing the route of a
// still-streaming job whenever a submit burst arrived.
func TestJobTableEvictsTerminalFirst(t *testing.T) {
	tbl := newJobTable(2)
	live := &jobEntry{}
	doneE := &jobEntry{}
	liveID := tbl.add(live)
	doneID := tbl.add(doneE)
	doneE.markTerminal()

	newID := tbl.add(&jobEntry{})
	if tbl.get(liveID) == nil {
		t.Fatal("live (oldest) route evicted while a terminal route remained")
	}
	if tbl.get(doneID) != nil {
		t.Fatal("terminal route survived eviction")
	}
	if tbl.get(newID) == nil {
		t.Fatal("new route missing")
	}

	// With only live entries left, eviction falls back to FIFO.
	extraID := tbl.add(&jobEntry{})
	if tbl.get(liveID) != nil {
		t.Fatal("all-live table did not fall back to FIFO eviction")
	}
	if tbl.get(newID) == nil || tbl.get(extraID) == nil {
		t.Fatal("FIFO fallback evicted the wrong entries")
	}
}

// TestGatewayJobFloodKeepsLiveRoute floods the route table past its cap
// while a slow job is still running: every flood job is polled to terminal,
// so eviction has finished routes to shed and the live job stays reachable.
func TestGatewayJobFloodKeepsLiveRoute(t *testing.T) {
	tc := newTestCluster(t, 1, Config{MaxJobRoutes: 3})

	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "",
		wire.JobRequest{Matrix: gwHardMatrix().String()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit slow job: status %d: %s", resp.StatusCode, body)
	}
	slow := decodeGWJob(t, body)

	for i := 0; i < 6; i++ {
		fr, fb := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "",
			wire.JobRequest{Matrix: fig1b})
		if fr.StatusCode != http.StatusAccepted {
			t.Fatalf("flood submit %d: status %d: %s", i, fr.StatusCode, fb)
		}
		fj := decodeGWJob(t, fb)
		waitGWJob(t, tc.ts.URL, fj.ID, "") // poll to terminal: marks the route evictable
	}

	gr, gb := jobCall(t, http.MethodGet, tc.ts.URL+"/v1/jobs/"+slow.ID, "", nil)
	if gr.StatusCode != http.StatusOK {
		t.Fatalf("live job lost its route after flood: status %d: %s", gr.StatusCode, gb)
	}
	if done := waitGWJob(t, tc.ts.URL, slow.ID, ""); done.State != wire.JobDone {
		t.Fatalf("slow job after flood: %+v", done)
	}
}

// TestGatewayRehomesJobWhenHomeDies kills a job's home backend mid-solve
// and asserts a single gateway poll answers with a live re-homed snapshot
// (not 502), the job still reaches a terminal state under the same gateway
// ID, and the re-home is counted in /v1/metrics.
func TestGatewayRehomesJobWhenHomeDies(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})

	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "",
		wire.JobRequest{Matrix: gwHardMatrix().String()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	j := decodeGWJob(t, body)

	e := tc.gw.jobs.get(j.ID)
	if e == nil {
		t.Fatal("no route for accepted job")
	}
	home, _ := e.route()
	for i := range tc.backends {
		if tc.gw.backends[i] == home {
			tc.backends[i].Close() // kill -9 the home: refuses all connections
		}
	}

	// One poll must re-home and answer 200 with a live snapshot.
	gr, gb := jobCall(t, http.MethodGet, tc.ts.URL+"/v1/jobs/"+j.ID, "", nil)
	if gr.StatusCode != http.StatusOK {
		t.Fatalf("poll after home death: status %d: %s", gr.StatusCode, gb)
	}
	snap := decodeGWJob(t, gb)
	if !snap.Rehomed {
		t.Fatalf("snapshot after home death not flagged rehomed: %+v", snap)
	}
	if snap.ID != j.ID {
		t.Fatalf("re-home changed the gateway ID %q -> %q", j.ID, snap.ID)
	}
	nb, _ := e.route()
	if nb == home {
		t.Fatal("route still points at the dead backend")
	}

	done := waitGWJob(t, tc.ts.URL, j.ID, "")
	if done.State != wire.JobDone || done.Result == nil {
		t.Fatalf("re-homed job: %+v", done)
	}
	if !done.Rehomed {
		t.Fatalf("terminal snapshot lost the rehomed flag: %+v", done)
	}
	if m := tc.gw.MetricsSnapshot(); m.Jobs.Rehomed != 1 {
		t.Fatalf("jobs.rehomed = %d, want 1", m.Jobs.Rehomed)
	}
}

// TestGatewayRehomesJobEventsWhenHomeDies kills a job's home backend before
// its event stream opens: GET /events through the gateway must re-home the
// job and stream it to a done frame under the same gateway ID, flagged
// rehomed.
func TestGatewayRehomesJobEventsWhenHomeDies(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})

	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "",
		wire.JobRequest{Matrix: gwHardMatrix().String()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	j := decodeGWJob(t, body)

	e := tc.gw.jobs.get(j.ID)
	if e == nil {
		t.Fatal("no route for accepted job")
	}
	home, _ := e.route()
	for i := range tc.backends {
		if tc.gw.backends[i] == home {
			tc.backends[i].Close()
		}
	}

	ev := streamGWTerminal(t, tc.ts.URL, j.ID, "")
	if ev.Job.ID != j.ID || ev.Job.State != wire.JobDone || !ev.Job.Rehomed {
		t.Fatalf("terminal frame after home death: id %q state %s rehomed %v, want %q done true",
			ev.Job.ID, ev.Job.State, ev.Job.Rehomed, j.ID)
	}
	if nb, _ := e.route(); nb == home {
		t.Fatal("route still points at the dead backend")
	}
	if m := tc.gw.MetricsSnapshot(); m.Jobs.Rehomed != 1 {
		t.Fatalf("jobs.rehomed = %d, want 1", m.Jobs.Rehomed)
	}
}
