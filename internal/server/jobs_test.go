package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Test matrices, regenerated deterministically. The seeds were picked so the
// instances have the properties the tests rely on:
//
//   - hardMatrix: the exact solve takes on the order of a second (a wide
//     window for mid-solve cancellation; 0.6–0.8 s and 10 472 conflicts
//     on a 2-vCPU VM, about 5 s under -race, inside the tests' 30 s
//     waits), and is interruptible throughout — cancellation reaches the
//     CDCL search between conflicts.
//   - gapMatrix: the heuristic pipeline (SkipSAT) leaves the optimality gap
//     open — pack depth 9 against a best bound of 8 — so a degraded answer
//     is observably non-optimal.
//   - progressMatrix: hard enough (~150ms and 4 048 conflicts exact) to
//     emit live progress events, easy enough that the streaming test
//     finishes quickly.
func hardMatrix() *bitmat.Matrix {
	return benchgen.GapSuite(77, 18, 18, []int{4}, 8)[7].M
}

func gapMatrix() *bitmat.Matrix {
	return bitmat.Random(rand.New(rand.NewSource(6408)), 9, 9, 0.55)
}

func progressMatrix() *bitmat.Matrix {
	return benchgen.GapSuite(77, 18, 18, []int{4}, 8)[1].M
}

func decodeJob(t *testing.T, data []byte) *wire.JobJSON {
	t.Helper()
	var j wire.JobJSON
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatalf("bad job JSON: %v\n%s", err, data)
	}
	return &j
}

func decodeError(t *testing.T, data []byte) *wire.ErrorResponse {
	t.Helper()
	var e wire.ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, data)
	}
	return &e
}

// submitJob posts a job request with optional API key and returns the
// response.
func submitJob(t *testing.T, url, key string, req wire.JobRequest) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if key != "" {
		hreq.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(sb.String())
}

// jobRoundTrip GETs /v1/jobs/{id} with optional key.
func getJob(t *testing.T, url, key, id string) (*http.Response, []byte) {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodGet, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		hreq.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	bufio.NewReader(resp.Body).WriteTo(&sb)
	return resp, []byte(sb.String())
}

// waitJobState polls until the job reaches a state satisfying ok, failing
// the test after the deadline.
func waitJobState(t *testing.T, url, key, id string, ok func(*wire.JobJSON) bool) *wire.JobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := getJob(t, url, key, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll job %s: %d: %s", id, resp.StatusCode, body)
		}
		j := decodeJob(t, body)
		if ok(j) {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state", id)
	return nil
}

func TestJobSubmitPollDone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := submitJob(t, ts.URL, "", wire.JobRequest{API: wire.V1, Matrix: fig1b})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	j := decodeJob(t, body)
	if j.ID == "" || wire.JobTerminal(j.State) && j.Result == nil {
		t.Fatalf("submit snapshot: %+v", j)
	}
	if j.API != wire.V1 || j.Tenant != DefaultTenant {
		t.Fatalf("submit snapshot api=%d tenant=%q, want %d/%q", j.API, j.Tenant, wire.V1, DefaultTenant)
	}
	fin := waitJobState(t, ts.URL, "", j.ID, func(j *wire.JobJSON) bool { return wire.JobTerminal(j.State) })
	if fin.State != wire.JobDone || fin.Result == nil {
		t.Fatalf("final state: %+v", fin)
	}
	if fin.Result.Depth != 5 || !fin.Result.Optimal {
		t.Fatalf("job result depth=%d optimal=%v, want 5/true", fin.Result.Depth, fin.Result.Optimal)
	}
	if fin.Degraded {
		t.Fatalf("normally-admitted job marked degraded")
	}

	// The job's answer and the sync path must agree (the job populated the
	// cache, so the sync resubmission is a hit with the same fingerprint).
	sresp, sbody := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync solve: %d", sresp.StatusCode)
	}
	sync := decodeResult(t, sbody)
	if !sync.CacheHit || sync.Depth != fin.Result.Depth || sync.Fingerprint != fin.Result.Fingerprint {
		t.Fatalf("sync path disagrees with job result: %+v vs %+v", sync, fin.Result)
	}
}

func TestJobSubmitRejectsUnknownAPI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := submitJob(t, ts.URL, "", wire.JobRequest{API: 99, Matrix: fig1b})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, body); e.Code != wire.CodeUnsupportedAPI {
		t.Fatalf("code %q, want %q", e.Code, wire.CodeUnsupportedAPI)
	}
}

// sseFrame is one event read from a job's event stream.
type sseFrame struct {
	id    string
	name  string
	event wire.JobEvent
}

// streamEvents opens GET /v1/jobs/{id}/events (optionally resuming after
// lastID) and reads frames until the terminal event or the stream's end.
func streamEvents(t *testing.T, ctx context.Context, url, id string, lastID int64) []sseFrame {
	t.Helper()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		hreq.Header.Set("Last-Event-ID", fmt.Sprint(lastID))
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var frames []sseFrame
	rd := wire.NewEventReader(resp.Body, 1<<20)
	for len(frames) == 0 || frames[len(frames)-1].event.Job == nil {
		f, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		cur := sseFrame{id: f.ID, name: f.Event}
		if err := json.Unmarshal(f.Data, &cur.event); err != nil {
			t.Fatalf("bad SSE data %q: %v", f.Data, err)
		}
		frames = append(frames, cur)
	}
	return frames
}

// TestJobEventsStream covers the anytime-result contract: the SSE stream
// shows the lifecycle (queued → running → done), live solver progress whose
// per-block bounds only tighten, and a terminal snapshot whose result
// matches what the sync path returns for the same matrix.
func TestJobEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rows := progressMatrix().ToRows()
	resp, body := submitJob(t, ts.URL, "", wire.JobRequest{Rows: rows})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	id := decodeJob(t, body).ID

	frames := streamEvents(t, context.Background(), ts.URL, id, 0)
	if len(frames) < 3 {
		t.Fatalf("only %d events; want at least queued, running, done", len(frames))
	}
	var sawQueued, sawRunning, progress int
	var lastSeq int64
	bounds := map[int]int{} // block → last seen bound
	for _, f := range frames {
		if f.event.Seq <= lastSeq {
			t.Fatalf("event seq not strictly increasing: %d after %d", f.event.Seq, lastSeq)
		}
		lastSeq = f.event.Seq
		if f.id != fmt.Sprint(f.event.Seq) {
			t.Fatalf("SSE id %q != seq %d", f.id, f.event.Seq)
		}
		switch {
		case f.event.Job != nil:
			if f.name != wire.EventDone {
				t.Fatalf("terminal event named %q", f.name)
			}
		case f.event.Progress != nil:
			if f.name != wire.EventProgress {
				t.Fatalf("progress event named %q", f.name)
			}
			progress++
			p := f.event.Progress
			if prev, ok := bounds[p.Block]; ok && p.Bound > prev {
				t.Fatalf("block %d bound loosened: %d after %d", p.Block, p.Bound, prev)
			}
			bounds[p.Block] = p.Bound
			if p.LB > p.Bound {
				t.Fatalf("progress lb %d above bound %d", p.LB, p.Bound)
			}
		default:
			if f.event.State == wire.JobQueued {
				sawQueued++
			}
			if f.event.State == wire.JobRunning {
				sawRunning++
			}
		}
	}
	if sawQueued == 0 || sawRunning == 0 || progress == 0 {
		t.Fatalf("lifecycle incomplete: queued=%d running=%d progress=%d", sawQueued, sawRunning, progress)
	}
	term := frames[len(frames)-1].event
	if term.Job == nil || term.Job.State != wire.JobDone || term.Job.Result == nil {
		t.Fatalf("no terminal done event: %+v", term)
	}

	// Anytime bounds must land on the sync answer: resolving the same
	// matrix on the sync path yields the identical depth and fingerprint.
	sresp, sbody := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Rows: rows})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync solve: %d", sresp.StatusCode)
	}
	sync := decodeResult(t, sbody)
	if sync.Depth != term.Job.Result.Depth || sync.Fingerprint != term.Job.Result.Fingerprint {
		t.Fatalf("stream result disagrees with sync path: %+v vs %+v", term.Job.Result, sync)
	}

	// Resuming mid-stream with Last-Event-ID replays only the tail, still
	// ending in the same terminal snapshot.
	mid := frames[len(frames)/2].event.Seq
	tail := streamEvents(t, context.Background(), ts.URL, id, mid)
	if len(tail) == 0 || tail[0].event.Seq <= mid {
		t.Fatalf("resume from %d replayed seq %d", mid, tail[0].event.Seq)
	}
	last := tail[len(tail)-1].event
	if last.Job == nil || last.Job.State != wire.JobDone {
		t.Fatalf("resumed stream missing terminal event")
	}
}

// TestJobEventsResumeAfterTerminal: a finished job's stream resumed just
// before, at or past its terminal event carries exactly one frame, the done
// frame, and never replays the events at or before the cursor.
func TestJobEventsResumeAfterTerminal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := submitJob(t, ts.URL, "", wire.JobRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	id := decodeJob(t, body).ID
	waitJobState(t, ts.URL, "", id, func(j *wire.JobJSON) bool { return wire.JobTerminal(j.State) })

	all := streamEvents(t, context.Background(), ts.URL, id, 0)
	done := all[len(all)-1]
	if done.event.Job == nil || len(all) < 2 {
		t.Fatalf("full stream of %d frames, last %+v", len(all), done.event)
	}
	for _, lastID := range []int64{done.event.Seq - 1, done.event.Seq, done.event.Seq + 5} {
		frames := streamEvents(t, context.Background(), ts.URL, id, lastID)
		if len(frames) != 1 || frames[0].name != wire.EventDone || frames[0].event.Seq != done.event.Seq {
			var seqs []int64
			for _, f := range frames {
				seqs = append(seqs, f.event.Seq)
			}
			t.Fatalf("Last-Event-ID %d: frames with seq %v, want only the done frame (seq %d)", lastID, seqs, done.event.Seq)
		}
	}
}

// TestJobEventsWatchersConcurrently follows one job's ring from several
// watchers: each must be woken by every publish it waits on, see every
// event in order and end on the terminal one. The terminal event is
// published only once every watcher holds the wake channel of the last
// progress event, so it alone can wake them. The queued event, the burst
// and the terminal event just fill the ring, so no event ages out.
func TestJobEventsWatchersConcurrently(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	tenant, err := s.sched.tenantForKey("")
	if err != nil {
		t.Fatal(err)
	}
	j := s.newJob(tenant, &wire.JobRequest{}, bitmat.MustParse("1"))
	defer j.cancel()
	const watchers, progress = 4, jobEventRing - 2
	caughtUp := make(chan struct{}, watchers)
	finished := make(chan struct{}, watchers)
	for w := 0; w < watchers; w++ {
		go func() {
			defer func() { finished <- struct{}{} }()
			var after int64
			var batch []wire.JobEvent
			for {
				var wake <-chan struct{}
				batch, wake = j.eventsAfter(after, batch[:0])
				for _, ev := range batch {
					if ev.Seq != after+1 {
						t.Errorf("watcher saw seq %d after %d", ev.Seq, after)
						return
					}
					after = ev.Seq
				}
				if wake == nil {
					if last := batch[len(batch)-1]; last.Job == nil || after != progress+2 {
						t.Errorf("watcher ended on seq %d (terminal %v), want the terminal seq %d", after, last.Job != nil, progress+2)
					}
					return
				}
				if after == progress+1 {
					caughtUp <- struct{}{}
				}
				<-wake
			}
		}()
	}
	wait := func(ch chan struct{}, what string) {
		for w := 0; w < watchers; w++ {
			select {
			case <-ch:
			case <-time.After(30 * time.Second):
				t.Fatalf("a watcher never %s", what)
			}
		}
	}
	for i := 0; i < progress; i++ {
		j.publishProgress(obs.ProgressSample{Bound: progress - i})
	}
	wait(caughtUp, "caught up with the progress events")
	s.finishJob(j, wire.JobDone, nil, "", false)
	wait(finished, "woke for the terminal event")
}

// TestJobCancelMidSolveFreesSlot is the DELETE acceptance path: canceling a
// running job interrupts its CDCL search promptly and hands the freed slot
// to the next queued job.
func TestJobCancelMidSolveFreesSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	hard := hardMatrix().ToRows()

	resp, body := submitJob(t, ts.URL, "", wire.JobRequest{Rows: hard})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit hard: %d: %s", resp.StatusCode, body)
	}
	hardID := decodeJob(t, body).ID
	waitJobState(t, ts.URL, "", hardID, func(j *wire.JobJSON) bool { return j.State == wire.JobRunning })

	// Second job queues behind the only slot.
	resp, body = submitJob(t, ts.URL, "", wire.JobRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: %d: %s", resp.StatusCode, body)
	}
	queuedID := decodeJob(t, body).ID
	if st := decodeJob(t, body).State; st != wire.JobQueued {
		t.Fatalf("second job state %q, want queued", st)
	}

	// DELETE the running job: it must reach canceled (not sit until its
	// 30s default timeout), and the queued job must get the slot and finish.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+hardID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	canceled := waitJobState(t, ts.URL, "", hardID, func(j *wire.JobJSON) bool { return wire.JobTerminal(j.State) })
	if canceled.State != wire.JobCanceled {
		t.Fatalf("hard job state %q, want canceled", canceled.State)
	}
	if canceled.Result != nil && !canceled.Result.Canceled {
		t.Fatalf("canceled job carries a non-canceled result: %+v", canceled.Result)
	}
	fin := waitJobState(t, ts.URL, "", queuedID, func(j *wire.JobJSON) bool { return wire.JobTerminal(j.State) })
	if fin.State != wire.JobDone || fin.Result == nil || fin.Result.Depth != 5 {
		t.Fatalf("queued job after cancel: %+v", fin)
	}

	// Cancel is idempotent: deleting a terminal job re-answers the snapshot.
	dreq, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+hardID, nil)
	dresp, err = http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent cancel: %d", dresp.StatusCode)
	}
}

// TestJobCancelOnDisconnect: when the last /events watcher of an opted-in
// job disconnects mid-solve, the job is canceled and its goroutines drain —
// no runner or watcher leaks.
func TestJobCancelOnDisconnect(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	before := runtime.NumGoroutine()

	resp, body := submitJob(t, ts.URL, "", wire.JobRequest{
		Rows:               hardMatrix().ToRows(),
		CancelOnDisconnect: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	id := decodeJob(t, body).ID

	// Open the stream, read until the running event, then drop the
	// connection — the solve must be canceled, not left to burn the slot.
	ctx, cancel := context.WithCancel(context.Background())
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	sresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	rd := wire.NewEventReader(sresp.Body, 1<<20)
	for running := false; !running; {
		f, err := rd.Next()
		if err != nil {
			t.Fatalf("stream ended before the job ran: %v", err)
		}
		var ev wire.JobEvent
		running = json.Unmarshal(f.Data, &ev) == nil && ev.State == wire.JobRunning
	}
	cancel()
	sresp.Body.Close()

	fin := waitJobState(t, ts.URL, "", id, func(j *wire.JobJSON) bool { return wire.JobTerminal(j.State) })
	if fin.State != wire.JobCanceled {
		t.Fatalf("job state after disconnect %q, want canceled", fin.State)
	}

	// Goroutines must settle back: the runner exited with the canceled
	// solve and the SSE handler returned. Allow slack for the HTTP stack's
	// transient conns.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after disconnect-cancel", before, runtime.NumGoroutine())
}

// TestJobShedDegrade is the graceful-degradation acceptance: on a saturated
// queue an opted-in job gets a heuristic-only answer (optimal=false,
// degraded) instead of a 429, while a non-opted job still gets the coded
// 429.
func TestJobShedDegrade(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	release := holdSlot(t, s)
	defer release()

	rows := gapMatrix().ToRows()

	// Without the opt-in: coded queue_full rejection with Retry-After.
	resp, body := submitJob(t, ts.URL, "", wire.JobRequest{Rows: rows})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d, want 429", resp.StatusCode)
	}
	if e := decodeError(t, body); e.Code != wire.CodeQueueFull {
		t.Fatalf("code %q, want %q", e.Code, wire.CodeQueueFull)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	// With the opt-in: accepted, answered by the heuristic pipeline.
	resp, body = submitJob(t, ts.URL, "", wire.JobRequest{Rows: rows, Degrade: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("degrade submit: %d: %s", resp.StatusCode, body)
	}
	id := decodeJob(t, body).ID
	fin := waitJobState(t, ts.URL, "", id, func(j *wire.JobJSON) bool { return wire.JobTerminal(j.State) })
	if fin.State != wire.JobDone || !fin.Degraded || fin.Result == nil {
		t.Fatalf("degraded job: %+v", fin)
	}
	if fin.Result.Optimal {
		t.Fatalf("degraded answer claims optimality: %+v", fin.Result)
	}
	if fin.Result.SATCalls != 0 {
		t.Fatalf("degraded answer ran the SAT stage: %+v", fin.Result)
	}
	if len(fin.Result.Partition) != fin.Result.Depth || fin.Result.Depth == 0 {
		t.Fatalf("degraded partition inconsistent: %+v", fin.Result)
	}

	snap := s.metricsSnapshot()
	if snap.Jobs.Shed != 1 || snap.Jobs.Done != 1 {
		t.Fatalf("shed metrics: %+v", snap.Jobs)
	}
}

// TestJobQuotaAndVisibility: per-tenant quota rejections carry the
// machine-readable code, degrade still answers under quota pressure, and a
// job is only visible to its own tenant.
func TestJobQuotaAndVisibility(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		Tenants: []TenantConfig{
			{Name: "alpha", Keys: []string{"alpha-key"}, Quota: 1},
			{Name: "beta", Keys: []string{"beta-key"}},
		},
	})
	release := holdSlot(t, s)
	defer release()

	resp, body := submitJob(t, ts.URL, "alpha-key", wire.JobRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", resp.StatusCode, body)
	}
	alphaJob := decodeJob(t, body).ID

	// Quota hit: coded 429 with Retry-After.
	resp, body = submitJob(t, ts.URL, "alpha-key", wire.JobRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota submit: %d, want 429", resp.StatusCode)
	}
	if e := decodeError(t, body); e.Code != wire.CodeQuotaExceeded {
		t.Fatalf("code %q, want %q", e.Code, wire.CodeQuotaExceeded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("quota 429 without Retry-After")
	}

	// Degrade converts the quota rejection into a heuristic answer too.
	resp, body = submitJob(t, ts.URL, "alpha-key", wire.JobRequest{Rows: gapMatrix().ToRows(), Degrade: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("degrade-under-quota: %d: %s", resp.StatusCode, body)
	}
	shedID := decodeJob(t, body).ID
	fin := waitJobState(t, ts.URL, "alpha-key", shedID, func(j *wire.JobJSON) bool { return wire.JobTerminal(j.State) })
	if !fin.Degraded || fin.Tenant != "alpha" {
		t.Fatalf("degraded-under-quota job: %+v", fin)
	}

	// Visibility: another tenant — or no tenant — sees a 404, not the job;
	// an unknown key is a coded 401.
	for _, key := range []string{"beta-key", ""} {
		resp, body := getJob(t, ts.URL, key, alphaJob)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("key %q sees alpha's job: %d %s", key, resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Code != wire.CodeNotFound {
			t.Fatalf("cross-tenant code %q, want %q", e.Code, wire.CodeNotFound)
		}
	}
	resp, body = getJob(t, ts.URL, "no-such-key", alphaJob)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: %d, want 401", resp.StatusCode)
	}
	if e := decodeError(t, body); e.Code != wire.CodeUnauthorized {
		t.Fatalf("auth code %q, want %q", e.Code, wire.CodeUnauthorized)
	}

	// Cleanup: cancel alpha's queued job so the server drains.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+alphaJob, nil)
	dreq.Header.Set("Authorization", "Bearer alpha-key")
	if dresp, err := http.DefaultClient.Do(dreq); err == nil {
		dresp.Body.Close()
	}
}

// TestJobFairShareThroughput is the QoS acceptance: 64 concurrent jobs from
// two tenants with weights 3:1 share the (single) solve slot in proportion.
// The deterministic form of "within 10%": any consistent scheduler snapshot
// taken while both queues are non-empty shows admitted counts within one
// DRR round of the exact 3:1 line, |admitted(heavy) − 3·admitted(light)| ≤ 3.
func TestJobFairShareThroughput(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      128,
		Tenants: []TenantConfig{
			{Name: "heavy", Keys: []string{"kh"}, Weight: 3},
			{Name: "light", Keys: []string{"kl"}, Weight: 1},
		},
	})
	release := holdSlot(t, s) // fill both queues before any grant

	const perTenant = 32
	rng := rand.New(rand.NewSource(7))
	ids := map[string][]string{}
	for i := 0; i < perTenant; i++ {
		for _, key := range []string{"kh", "kl"} {
			// Distinct cheap instances per job: no cache hits, no
			// singleflight collapsing — every job costs a real solve.
			rows := bitmat.Random(rng, 8, 8, 0.5).ToRows()
			resp, body := submitJob(t, ts.URL, key, wire.JobRequest{Rows: rows})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %s #%d: %d: %s", key, i, resp.StatusCode, body)
			}
			ids[key] = append(ids[key], decodeJob(t, body).ID)
		}
	}

	admitted := func() (heavy, light int64) {
		_, _, tenants := s.sched.snapshot()
		for _, ts := range tenants {
			switch ts.Name {
			case "heavy":
				heavy = ts.Admitted
			case "light":
				light = ts.Admitted
			}
		}
		return
	}

	release() // start the drain; sample the ratio while both queues move
	inWindow := 0
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		h, l := admitted()
		if h+l >= 2*perTenant {
			break
		}
		// Both queues non-empty while heavy has grants left beyond its
		// 10 full rounds: check the proportionality invariant.
		if total := h + l; total >= 4 && total <= 40 {
			if d := h - 3*l; d < -3 || d > 3 {
				t.Fatalf("fair-share violated: heavy=%d light=%d (|h-3l|=%d > 3)", h, l, d)
			}
			inWindow++
		}
		time.Sleep(200 * time.Microsecond)
	}
	if inWindow == 0 {
		t.Fatalf("no scheduler samples landed in the contention window; solves drained too fast to observe")
	}

	for key, list := range ids {
		for _, id := range list {
			fin := waitJobState(t, ts.URL, key, id, func(j *wire.JobJSON) bool { return wire.JobTerminal(j.State) })
			if fin.State != wire.JobDone {
				t.Fatalf("%s job %s finished %q", key, id, fin.State)
			}
		}
	}
	h, l := admitted()
	if h != perTenant || l != perTenant {
		t.Fatalf("final admitted heavy=%d light=%d, want %d each", h, l, perTenant)
	}
}

// TestJobCancelLeaderFollowerReelects: canceling a job that leads a
// singleflight group must not strand a sync follower on the same
// fingerprint — the follower re-elects itself and completes.
func TestJobCancelLeaderFollowerReelects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	rows := hardMatrix().ToRows()

	resp, body := submitJob(t, ts.URL, "", wire.JobRequest{Rows: rows})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	id := decodeJob(t, body).ID
	waitJobState(t, ts.URL, "", id, func(j *wire.JobJSON) bool { return j.State == wire.JobRunning })

	// The sync solve of the same matrix joins the job's singleflight group
	// as a follower.
	type syncDone struct {
		res  *wire.ResultJSON
		code int
	}
	followerDone := make(chan syncDone, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Rows: rows})
		var res wire.ResultJSON
		json.Unmarshal(body, &res)
		followerDone <- syncDone{&res, resp.StatusCode}
	}()
	time.Sleep(100 * time.Millisecond) // let the follower join the flight

	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	select {
	case d := <-followerDone:
		if d.code != http.StatusOK {
			t.Fatalf("follower after leader cancel: %d", d.code)
		}
		if len(d.res.Partition) != d.res.Depth || d.res.Depth == 0 {
			t.Fatalf("follower result inconsistent: %+v", d.res)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("follower hung after the leading job was canceled")
	}
}

// TestJobRegistryEvictsTerminalFirst pins the registry's retention rules on
// a MaxJobs 3 server with an injected clock: a live job is never evicted,
// over capacity the terminal job that finished first goes first, a job past
// JobTTL answers 404 and leaves the registry, and the janitor expires a job
// with no request at all.
func TestJobRegistryEvictsTerminalFirst(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 3, JobTTL: 100 * time.Millisecond})
	// Jobs record their finish time from the wall clock and the registry
	// compares it with its own clock: an offset of -1h keeps every job
	// fresh, +1h expires every terminal one.
	var offset atomic.Int64
	offset.Store(int64(-time.Hour))
	s.jobs.mu.Lock()
	s.jobs.now = func() time.Time { return time.Now().Add(time.Duration(offset.Load())) }
	s.jobs.mu.Unlock()

	tenant, err := s.sched.tenantForKey("")
	if err != nil {
		t.Fatal(err)
	}
	m := bitmat.MustParse("1")
	submit := func() *job {
		j := s.newJob(tenant, &wire.JobRequest{}, m) // no runner: stays queued
		t.Cleanup(j.cancel)
		return j
	}
	finish := func(j *job) { s.finishJob(j, wire.JobDone, nil, "", false) }
	expect := func(what string, j *job, code int) {
		t.Helper()
		if resp, body := getJob(t, ts.URL, "", j.id); resp.StatusCode != code {
			t.Fatalf("%s: GET %d (%s), want %d", what, resp.StatusCode, body, code)
		}
	}

	// Jobs finishing in submission order: the live job survives every
	// later terminal job, and capacity evicts the oldest terminal job.
	live := submit()
	var done []*job
	for k := 0; k < 6; k++ {
		j := submit()
		finish(j)
		done = append(done, j)
		expect("live job", live, http.StatusOK)
		for i, d := range done {
			want := http.StatusOK
			if i < len(done)-2 {
				want = http.StatusNotFound
			}
			expect(fmt.Sprintf("terminal job %d after %d", i, len(done)), d, want)
		}
		if n, want := s.jobs.len(), min(len(done)+1, 3); n != want {
			t.Fatalf("after %d terminal jobs: len %d, want %d", len(done), n, want)
		}
	}

	// Jobs finishing in reverse submission order: capacity eviction
	// follows finish order, so the job that finished first goes.
	a, b := submit(), submit()
	finish(b)
	finish(a)
	c := submit()
	expect("first-finished job", b, http.StatusNotFound)
	expect("later-finished job", a, http.StatusOK)
	expect("live job after reverse finish", live, http.StatusOK)
	expect("new job", c, http.StatusOK)

	// Past the TTL a terminal job answers 404 and leaves the registry;
	// live jobs stay. The janitor is stopped so the GET does the expiry.
	s.jobs.stopJanitor()
	offset.Store(int64(time.Hour))
	expect("expired job", a, http.StatusNotFound)
	if n := s.jobs.len(); n != 2 {
		t.Fatalf("after expiry: len %d, want 2 (the live jobs)", n)
	}

	// The janitor alone expires a job that finishes now.
	s.jobs.startJanitor()
	finish(c)
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.len() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("janitor left %d jobs, want 1 (the live job)", s.jobs.len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	expect("live job at the end", live, http.StatusOK)
}

// TestJobRegistryEvictsConcurrently drives the eviction queue from several
// goroutines at once, as runners, pollers and the janitor do: every job
// finishes and is looked up while others submit, a lookup never yields
// another job, and the registry ends within MaxJobs with no live job.
func TestJobRegistryEvictsConcurrently(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxJobs: 8, JobTTL: 4 * time.Millisecond})
	tenant, err := s.sched.tenantForKey("")
	if err != nil {
		t.Fatal(err)
	}
	m := bitmat.MustParse("1")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				j := s.newJob(tenant, &wire.JobRequest{}, m)
				s.finishJob(j, wire.JobDone, nil, "", false)
				if got := s.jobs.get(j.id); got != nil && got != j {
					t.Errorf("job %s resolved to another job", j.id)
				}
				j.cancel()
			}
		}()
	}
	wg.Wait()
	if n := s.jobs.len(); n > 8 {
		t.Fatalf("registry holds %d jobs, MaxJobs is 8", n)
	}
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	for id, j := range s.jobs.jobs {
		if !wire.JobTerminal(j.snapshot().State) {
			t.Errorf("job %s still live after every runner finished", id)
		}
	}
}
