package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/server"
	"repro/internal/wire"
)

// newJobCluster is newTestCluster with a custom backend config (tenant maps,
// concurrency caps) shared by every backend.
func newJobCluster(t *testing.T, n int, scfg server.Config, gcfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		s := server.New(scfg)
		bts := httptest.NewServer(s.Handler())
		t.Cleanup(bts.Close)
		tc.servers = append(tc.servers, s)
		tc.backends = append(tc.backends, bts)
		gcfg.Backends = append(gcfg.Backends, bts.URL)
	}
	if gcfg.ProbeInterval == 0 {
		gcfg.ProbeInterval = -1
	}
	if gcfg.HedgeAfter == 0 {
		gcfg.HedgeAfter = -1
	}
	gw, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	tc.gw = gw
	tc.ts = httptest.NewServer(gw.Handler())
	t.Cleanup(tc.ts.Close)
	return tc
}

// gwHardMatrix is a reproducible instance whose exact solve takes long
// enough (~1s) to cancel mid-flight through the proxy.
func gwHardMatrix() *bitmat.Matrix {
	return benchgen.GapSuite(77, 18, 18, []int{4}, 8)[7].M
}

// jobCall sends one job-API request with optional Bearer auth and returns
// the response and body.
func jobCall(t *testing.T, method, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeGWJob(t *testing.T, data []byte) *wire.JobJSON {
	t.Helper()
	var j wire.JobJSON
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatalf("bad job JSON: %v\n%s", err, data)
	}
	return &j
}

// waitGWJob polls GET /v1/jobs/{id} until the job reaches a terminal state.
func waitGWJob(t *testing.T, base, id, key string) *wire.JobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := jobCall(t, http.MethodGet, base+"/v1/jobs/"+id, key, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, resp.StatusCode, body)
		}
		j := decodeGWJob(t, body)
		if wire.JobTerminal(j.State) {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

func TestGatewayJobLifecycleLiftsAndSticks(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})

	// Submit a permuted Fig.1b: the gateway must forward the canonical form
	// and lift the terminal result back onto this exact matrix.
	m := permute(bitmat.MustParse(fig1b), rand.New(rand.NewSource(11)))
	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "",
		wire.JobRequest{API: wire.V1, Matrix: m.String()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	j := decodeGWJob(t, body)
	if !strings.HasPrefix(j.ID, "gw-") {
		t.Fatalf("job ID %q not gateway-minted", j.ID)
	}
	if j.API != wire.V1 || j.Tenant != "default" {
		t.Fatalf("submit snapshot: %+v", j)
	}

	done := waitGWJob(t, tc.ts.URL, j.ID, "")
	if done.State != wire.JobDone || done.Result == nil {
		t.Fatalf("terminal job: %+v", done)
	}
	if done.ID != j.ID {
		t.Fatalf("poll rewrote ID %q -> %q", j.ID, done.ID)
	}
	if done.Result.Depth != 5 || !done.Result.Optimal {
		t.Fatalf("job result: %+v", done.Result)
	}
	assertPartitionCovers(t, m, done.Result.Partition)

	// The event stream's terminal frame must carry the same lifted result
	// under the gateway ID.
	ev := streamGWTerminal(t, tc.ts.URL, j.ID, "")
	if ev.Job == nil || ev.Job.ID != j.ID || ev.Job.State != wire.JobDone {
		t.Fatalf("terminal event: %+v", ev)
	}
	if ev.Job.Result == nil || ev.Job.Result.Depth != 5 {
		t.Fatalf("terminal event result: %+v", ev.Job.Result)
	}
	assertPartitionCovers(t, m, ev.Job.Result.Partition)

	// The job path shares the sync path's canonical key space: the same
	// matrix submitted as a plain solve is a fleet cache hit.
	sresp, sbody := postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: m.String()})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("solve after job: status %d: %s", sresp.StatusCode, sbody)
	}
	if res := decodeResult(t, sbody); !res.CacheHit {
		t.Fatalf("sync solve after job missed the cache: %+v", res)
	}
	if n := tc.fleetSolves(); n != 1 {
		t.Fatalf("fleet ran %d pipeline solves, want 1", n)
	}

	snap := tc.gw.MetricsSnapshot()
	if snap.Jobs.Submitted < 1 || snap.Jobs.Accepted < 1 || snap.Jobs.Streams < 1 || snap.Jobs.Routes < 1 {
		t.Fatalf("job metrics not recorded: %+v", snap.Jobs)
	}
}

// streamGW reads GET /v1/jobs/{id}/events, resuming after lastID when it is
// set, and returns the stream's events in order, failing unless the stream
// ends on a done frame.
func streamGW(t *testing.T, base, id, key string, lastID int64) []*wire.JobEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var evs []*wire.JobEvent
	rd := wire.NewEventReader(resp.Body, 1<<20)
	for len(evs) == 0 || evs[len(evs)-1].Job == nil {
		f, err := rd.Next()
		if err != nil {
			t.Fatalf("stream ended without a terminal frame: %v", err)
		}
		ev := new(wire.JobEvent)
		if err := json.Unmarshal(f.Data, ev); err != nil {
			t.Fatalf("bad event JSON: %v\n%s", err, f.Data)
		}
		if (f.Event == wire.EventDone) != (ev.Job != nil) || f.ID != strconv.FormatInt(ev.Seq, 10) {
			t.Fatalf("frame id %q event %q carries %+v", f.ID, f.Event, ev)
		}
		if len(evs) > 0 && ev.Seq <= evs[len(evs)-1].Seq {
			t.Fatalf("event seq went backwards: %d after %d", ev.Seq, evs[len(evs)-1].Seq)
		}
		evs = append(evs, ev)
	}
	return evs
}

// streamGWTerminal reads GET /v1/jobs/{id}/events until the terminal frame.
func streamGWTerminal(t *testing.T, base, id, key string) *wire.JobEvent {
	t.Helper()
	evs := streamGW(t, base, id, key, 0)
	return evs[len(evs)-1]
}

// TestGatewayJobEventsStreamLive pins that the gateway relays SSE frames as
// they are produced: the first frame of a long job must reach the client
// while the job still runs. A logging middleware that hides the
// connection's Flush from http.ResponseController leaves every frame in
// net/http's buffer until the job ends.
func TestGatewayJobEventsStreamLive(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "", wire.JobRequest{
		Matrix:  gwHardMatrix().String(),
		Options: &wire.SolveOptions{ConflictBudget: -1},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	id := decodeGWJob(t, body).ID
	stream, err := http.Get(tc.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if _, err := wire.NewEventReader(stream.Body, 1<<20).Next(); err != nil {
		t.Fatalf("stream ended before its first frame: %v", err)
	}
	gr, gb := jobCall(t, http.MethodGet, tc.ts.URL+"/v1/jobs/"+id, "", nil)
	if gr.StatusCode != http.StatusOK {
		t.Fatalf("poll: status %d: %s", gr.StatusCode, gb)
	}
	if j := decodeGWJob(t, gb); wire.JobTerminal(j.State) {
		t.Fatalf("first frame arrived only after the job ended (state %s)", j.State)
	}
	if dr, db := jobCall(t, http.MethodDelete, tc.ts.URL+"/v1/jobs/"+id, "", nil); dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", dr.StatusCode, db)
	}
	waitGWJob(t, tc.ts.URL, id, "")
}

// TestGatewayJobEventsResumeAfterTerminal: the gateway forwards
// Last-Event-ID, so a stream resumed at or past a finished job's terminal
// event carries exactly one frame, the lifted done frame.
func TestGatewayJobEventsResumeAfterTerminal(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "", wire.JobRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	id := decodeGWJob(t, body).ID
	waitGWJob(t, tc.ts.URL, id, "")
	done := streamGWTerminal(t, tc.ts.URL, id, "")
	for _, lastID := range []int64{done.Seq, done.Seq + 5} {
		evs := streamGW(t, tc.ts.URL, id, "", lastID)
		if last := evs[len(evs)-1]; len(evs) != 1 || last.Seq != done.Seq || last.Job.ID != id {
			t.Fatalf("Last-Event-ID %d: %d frames ending in seq %d under %q; want only the done frame (seq %d) under %q",
				lastID, len(evs), last.Seq, last.Job.ID, done.Seq, id)
		}
	}
}

// fakeJobGateway fronts one fake backend that accepts every job as j-1 and
// answers its event stream with stream, then closes it. It returns the
// gateway's URL and the ID the gateway minted for one submitted job.
func fakeJobGateway(t *testing.T, gcfg Config, stream string) (base, id string) {
	t.Helper()
	bts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"api":1,"id":"j-1","state":"queued","tenant":"default"}`)
		case "/v1/jobs/j-1/events":
			w.Header().Set("Content-Type", "text/event-stream")
			io.WriteString(w, stream)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(bts.Close)
	gcfg.Backends, gcfg.ProbeInterval, gcfg.HedgeAfter = []string{bts.URL}, -1, -1
	gw, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	resp, body := jobCall(t, http.MethodPost, ts.URL+"/v1/jobs", "", wire.JobRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	return ts.URL, decodeGWJob(t, body).ID
}

// TestGatewayJobEventsDropsTornFrame: a backend stream that ends inside the
// done frame reaches the client as the whole frames before it and nothing
// more — no truncated snapshot under the backend's own job ID — so the
// client falls back to polling.
func TestGatewayJobEventsDropsTornFrame(t *testing.T) {
	status := "id: 1\nevent: status\ndata: {\"api\":1,\"seq\":1,\"state\":\"queued\"}\n\n"
	torn := "id: 2\nevent: done\ndata: {\"api\":1,\"seq\":2,\"state\":\"done\",\"job\":{\"api\":1,\"id\":\"j-1\",\"sta"
	base, id := fakeJobGateway(t, Config{}, status+torn)
	if resp, body := jobCall(t, http.MethodGet, base+"/v1/jobs/"+id+"/events", "", nil); string(body) != status {
		t.Fatalf("status %d, client got %q; want only %q", resp.StatusCode, body, status)
	}
}

// TestGatewayJobEventsFrameOverCapEndsRelay: a backend frame larger than
// MaxRespBytes ends the relay instead of being buffered whole; the frames
// before it arrive, the frames after it do not.
func TestGatewayJobEventsFrameOverCapEndsRelay(t *testing.T) {
	status := "id: 1\nevent: status\ndata: {\"api\":1,\"seq\":1,\"state\":\"queued\"}\n\n"
	big := "id: 2\nevent: status\ndata: {\"api\":1,\"seq\":2,\"state\":\"" + strings.Repeat("x", 16<<10) + "\"}\n\n"
	done := "id: 3\nevent: done\ndata: {\"api\":1,\"seq\":3,\"state\":\"done\",\"job\":{\"api\":1,\"id\":\"j-1\",\"state\":\"done\"}}\n\n"
	base, id := fakeJobGateway(t, Config{MaxRespBytes: 4 << 10}, status+big+done)
	if resp, body := jobCall(t, http.MethodGet, base+"/v1/jobs/"+id+"/events", "", nil); string(body) != status {
		t.Fatalf("status %d, client got %d bytes starting %.200q; want only %q", resp.StatusCode, len(body), body, status)
	}
}

func TestGatewayJobSubmitFailsOverWhenHomeDown(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	req := wire.JobRequest{Matrix: fig1b}
	m, gerr := tc.gw.requestMatrix(req.SolveRequest())
	if gerr != nil {
		t.Fatal(gerr.msg)
	}
	it := prepare(req.SolveRequest(), m)
	order, _ := tc.gw.candidateOrder(it.fp.Hash)

	// Kill the fingerprint's home backend: the sequential submit walk must
	// offer the job to the next candidate instead of failing.
	for i, bts := range tc.backends {
		if tc.gw.backends[i] == order[0] {
			bts.Close()
		}
	}
	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with home down: status %d: %s", resp.StatusCode, body)
	}
	j := decodeGWJob(t, body)
	done := waitGWJob(t, tc.ts.URL, j.ID, "")
	if done.State != wire.JobDone || done.Result == nil || done.Result.Depth != 5 {
		t.Fatalf("failover job: %+v", done)
	}
}

func TestGatewayJobUnknownIDIsCoded404(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	for _, call := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/gw-ffffffff"},
		{http.MethodDelete, "/v1/jobs/gw-ffffffff"},
		{http.MethodGet, "/v1/jobs/gw-ffffffff/events"},
	} {
		resp, body := jobCall(t, call.method, tc.ts.URL+call.path, "", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d", call.method, call.path, resp.StatusCode)
		}
		var e wire.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Code != wire.CodeNotFound {
			t.Fatalf("%s %s: body %s", call.method, call.path, body)
		}
	}
}

func TestGatewayJobCancelPropagates(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "",
		wire.JobRequest{Matrix: gwHardMatrix().String()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	j := decodeGWJob(t, body)

	// Wait for the solve to actually start, then cancel through the proxy.
	deadline := time.Now().Add(10 * time.Second)
	for {
		gr, gb := jobCall(t, http.MethodGet, tc.ts.URL+"/v1/jobs/"+j.ID, "", nil)
		if gr.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", gr.StatusCode, gb)
		}
		if decodeGWJob(t, gb).State == wire.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	dr, db := jobCall(t, http.MethodDelete, tc.ts.URL+"/v1/jobs/"+j.ID, "", nil)
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", dr.StatusCode, db)
	}
	done := waitGWJob(t, tc.ts.URL, j.ID, "")
	if done.State != wire.JobCanceled {
		t.Fatalf("after cancel: %+v", done)
	}
	if done.ID != j.ID {
		t.Fatalf("cancel rewrote ID %q -> %q", j.ID, done.ID)
	}
}

func TestGatewayJobQuotaRejectionCarriesCodeThroughProxy(t *testing.T) {
	tc := newJobCluster(t, 1, server.Config{
		MaxQueue: 256,
		Tenants: []server.TenantConfig{
			{Name: "acme", Keys: []string{"k-acme"}, Weight: 1, Quota: 1},
		},
	}, Config{})

	// First job fills acme's quota of one outstanding job.
	resp, body := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "k-acme",
		wire.JobRequest{Matrix: gwHardMatrix().String()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, body)
	}
	j := decodeGWJob(t, body)
	if j.Tenant != "acme" {
		t.Fatalf("auth not forwarded: tenant %q", j.Tenant)
	}

	// Second must be the backend's 429 relayed with its machine-readable
	// code and a Retry-After hint.
	resp2, body2 := jobCall(t, http.MethodPost, tc.ts.URL+"/v1/jobs", "k-acme",
		wire.JobRequest{Matrix: fig1b})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d: %s", resp2.StatusCode, body2)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(body2, &e); err != nil || e.Code != wire.CodeQuotaExceeded {
		t.Fatalf("over-quota body: %s", body2)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 relayed without Retry-After")
	}

	// Tenant visibility holds through the proxy: another key cannot see
	// acme's job.
	nr, _ := jobCall(t, http.MethodGet, tc.ts.URL+"/v1/jobs/"+j.ID, "", nil)
	if nr.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant poll: status %d, want 404", nr.StatusCode)
	}
	if wj := waitGWJob(t, tc.ts.URL, j.ID, "k-acme"); wj.State != wire.JobDone {
		t.Fatalf("quota job: %+v", wj)
	}
}
