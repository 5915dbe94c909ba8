package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/wire"
)

const fig1b = `101100
010011
101010
010101
111000
000111`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeResult(t *testing.T, data []byte) *wire.ResultJSON {
	t.Helper()
	var res wire.ResultJSON
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, data)
	}
	return &res
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if res.Depth != 5 || !res.Optimal {
		t.Fatalf("depth=%d optimal=%v, want 5/true", res.Depth, res.Optimal)
	}
	if res.CacheHit {
		t.Fatalf("first solve reported cache_hit")
	}
	if res.Fingerprint == "" {
		t.Fatalf("no fingerprint in response")
	}
	if len(res.Partition) != 5 {
		t.Fatalf("partition has %d rects, want 5", len(res.Partition))
	}
}

func TestSolveEndpointRowsFormAndCacheAcrossForms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	first := decodeResult(t, body)

	rows := bitmat.MustParse(fig1b).ToRows()
	resp, body = postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	second := decodeResult(t, body)
	if !second.CacheHit {
		t.Fatalf("rows-form resubmission missed the cache")
	}
	if second.Depth != first.Depth || second.Fingerprint != first.Fingerprint {
		t.Fatalf("rows form disagrees with matrix form: %+v vs %+v", second, first)
	}
	if second.SATCalls != 0 || second.PackNS != 0 || second.SATNS != 0 {
		t.Fatalf("cache hit did not zero solver stages: %+v", second)
	}
}

func TestSolvePermutedResubmissionHits(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	first := decodeResult(t, body)

	// Permute rows and columns; the solve must be served from cache with
	// identical depth.
	m := bitmat.MustParse(fig1b)
	rng := rand.New(rand.NewSource(17))
	rp, cp := rng.Perm(m.Rows()), rng.Perm(m.Cols())
	p := bitmat.New(m.Rows(), m.Cols())
	m.ForEachOne(func(i, j int) { p.Set(rp[i], cp[j], true) })

	resp, body = postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: p.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if !res.CacheHit || res.Depth != first.Depth {
		t.Fatalf("permuted resubmission: hit=%v depth=%d, want true/%d", res.CacheHit, res.Depth, first.Depth)
	}
	if st := s.Cache().Stats(); st.Solves != 1 {
		t.Fatalf("cache stats report %d solves, want 1", st.Solves)
	}
}

func TestSolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxMatrixEntries: 16})
	cases := []struct {
		name string
		body string
		want int
		code string
	}{
		{"empty", `{}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"both forms", `{"matrix":"1","rows":[[1]]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"bad chars", `{"matrix":"10\n2x"}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"ragged rows", `{"rows":[[1,0],[1]]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"zero rows", `{"rows":[]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"zero cols", `{"rows":[[]]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"zero cols multi", `{"rows":[[],[]]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"zero cols text", `{"matrix":","}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"zero cols text multi", `{"matrix":" , \n , "}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"non-binary rows", `{"rows":[[1,2]]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"unknown field", `{"matrecks":"1"}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"bad encoding", `{"matrix":"1","options":{"encoding":"cnf3"}}`, http.StatusBadRequest, wire.CodeBadRequest},
		// Retired option values decode like unknown ones.
		{"retired encoding log", `{"matrix":"1","options":{"encoding":"log"}}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"retired strategy log", `{"matrix":"1","options":{"portfolio_strategies":["log"]}}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"retired strategy glue4", `{"matrix":"1","options":{"portfolio_strategies":["glue4"]}}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"retired strategy no-symbreak", `{"matrix":"1","options":{"portfolio_strategies":["canonical","no-symbreak"]}}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"retired strategy pairwise-amo", `{"matrix":"1","options":{"portfolio_strategies":["pairwise-amo"]}}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"retired strategy native-amo", `{"matrix":"1","options":{"portfolio_strategies":["native-amo"]}}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"too large", `{"matrix":"` + strings.Repeat("11111\\n", 5) + `"}`, http.StatusBadRequest, wire.CodeBudgetExceeded},
		{"not json", `hello`, http.StatusBadRequest, wire.CodeBadRequest},
		{"trailing junk", `{"matrix":"101\n011"} trailing junk`, http.StatusBadRequest, wire.CodeBadRequest},
		{"second value", `{"matrix":"101\n011"}{"matrix":"1"}`, http.StatusBadRequest, wire.CodeBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e wire.ErrorResponse
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		// Regression (dimensionally invalid matrices used to slip past the
		// wire layer): every rejection must carry a structured wire error,
		// not a bare status.
		if decErr != nil || e.Error == "" {
			t.Errorf("%s: body is not a structured wire error (%v)", tc.name, decErr)
		}
		if e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}
	// "onehot", the one encoding left, is still accepted.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"matrix":"1","options":{"encoding":"onehot"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf(`"encoding":"onehot": status %d, want 200`, resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.BatchRequest{Requests: []wire.SolveRequest{
		{Matrix: fig1b},
		{Matrix: "not a matrix"},
		{Matrix: "10\n01"},
		{Matrix: fig1b}, // duplicate of the first: cache or singleflight hit
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("%d results, want 4", len(br.Results))
	}
	if br.Results[0].Result == nil || br.Results[0].Result.Depth != 5 {
		t.Fatalf("item 0: %+v", br.Results[0])
	}
	if br.Results[1].Error == "" || br.Results[1].Result != nil {
		t.Fatalf("item 1 should be an error: %+v", br.Results[1])
	}
	if br.Results[2].Result == nil || br.Results[2].Result.Depth != 2 {
		t.Fatalf("item 2: %+v", br.Results[2])
	}
	if br.Results[3].Result == nil || br.Results[3].Result.Depth != 5 {
		t.Fatalf("item 3: %+v", br.Results[3])
	}
}

func TestBatchTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	req := wire.BatchRequest{Requests: make([]wire.SolveRequest, 3)}
	resp, _ := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestOverCapBodyIs413 pins the body-size budget: a body over MaxBodyBytes
// is 413 budget_exceeded on every endpoint that decodes one, including a
// body whose JSON value ends within the cap and is followed by padding.
func TestOverCapBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	for _, body := range []string{
		`{"matrix":"` + strings.Repeat("1", 64) + `"}`,
		`{"matrix":"1"}` + strings.Repeat(" ", 64),
	} {
		for _, path := range []string{"/v1/solve", "/v1/batch", "/v1/fill", "/v1/jobs"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e wire.ErrorResponse
			decErr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || decErr != nil || e.Code != wire.CodeBudgetExceeded {
				t.Errorf("%s with a %d-byte body: status %d, code %q (%v), want 413 %q",
					path, len(body), resp.StatusCode, e.Code, decErr, wire.CodeBudgetExceeded)
			}
		}
	}
	// At the cap exactly, the body is decoded.
	body := `{"matrix":"1"}` + strings.Repeat(" ", 64-len(`{"matrix":"1"}`))
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a body of exactly MaxBodyBytes: status %d, want 200", resp.StatusCode)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	s.BeginDrain()
	resp, body = get(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"draining"`)) {
		t.Fatalf("draining healthz: %d %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: "1"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: %d, want 503", resp.StatusCode)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// holdSlot occupies one solve slot through the scheduler (as the default
// tenant) and returns its release.
func holdSlot(t *testing.T, s *Server) func() {
	t.Helper()
	release, err := s.sched.acquire(context.Background(), nil)
	if err != nil {
		t.Fatalf("holdSlot: %v", err)
	}
	return release
}

func TestAdmissionQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	// Occupy the only solve slot, then any request must bounce with 429
	// because no waiting is allowed.
	release := holdSlot(t, s)
	defer release()
	resp, body := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: "1"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	// The rejection carries the machine-readable code and a Retry-After hint.
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Code != wire.CodeQueueFull {
		t.Fatalf("429 body code = %q (%v), want %q: %s", e.Code, err, wire.CodeQueueFull, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	snap := s.metricsSnapshot()
	if snap.Requests.RejectedQueue != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", snap.Requests.RejectedQueue)
	}
}

func TestAdmissionQueueWaitsForSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 4})
	release := holdSlot(t, s)
	done := make(chan *http.Response, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: "10\n01"})
		done <- resp
	}()
	// The request should be queued, not rejected.
	select {
	case resp := <-done:
		t.Fatalf("request completed with %d while the slot was held", resp.StatusCode)
	case <-time.After(100 * time.Millisecond):
	}
	release() // free the slot
	select {
	case resp := <-done:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("queued request finished with %d", resp.StatusCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("queued request never completed")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	resp, body := get(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad metrics JSON: %v\n%s", err, body)
	}
	if snap.Requests.Solve != 2 || snap.Solves.Completed != 2 {
		t.Fatalf("metrics: %+v", snap)
	}
	if snap.Cache.Hits != 1 || snap.HitRate == 0 {
		t.Fatalf("cache metrics: %+v", snap.Cache)
	}
	if snap.Solves.AvgNS <= 0 || snap.Solves.MaxNS < snap.Solves.AvgNS {
		t.Fatalf("latency metrics inconsistent: %+v", snap.Solves)
	}
}

func TestPerRequestTimeoutProducesConsistentResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A 1 ms budget on a nontrivial matrix: the solve may finish optimally
	// (fast machine) or come back canceled — either way the response must be
	// well-formed with a full partition.
	req := wire.SolveRequest{
		Matrix:  fig1b,
		Options: &wire.SolveOptions{TimeoutMS: 1},
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if len(res.Partition) != res.Depth || res.Depth == 0 {
		t.Fatalf("inconsistent partition: %+v", res)
	}
	if res.Canceled && res.SATNS != 0 && res.SATCalls == 0 {
		t.Fatalf("canceled result has SAT time without SAT calls: %+v", res)
	}
}

func TestHeuristicOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.SolveRequest{
		Matrix:  fig1b,
		Options: &wire.SolveOptions{Heuristic: true, Trials: 3},
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if res.SATCalls != 0 {
		t.Fatalf("heuristic request ran the SAT stage: %+v", res)
	}
	if len(res.Partition) != res.Depth {
		t.Fatalf("inconsistent partition: %+v", res)
	}
}

// TestSolveEdgeShapeMatrices runs the degenerate client shapes end to end:
// all-zero, 1×1, single-row, and duplicate-rows-across-blocks matrices must
// produce valid optimal responses (and their resubmissions cache hits).
func TestSolveEdgeShapeMatrices(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name  string
		req   wire.SolveRequest
		depth int
	}{
		{"all-zero", wire.SolveRequest{Rows: [][]int{{0, 0}, {0, 0}, {0, 0}}}, 0},
		{"1x1", wire.SolveRequest{Matrix: "1"}, 1},
		{"single row", wire.SolveRequest{Matrix: "10110"}, 1},
		{"duplicate rows across blocks", wire.SolveRequest{Matrix: "1100\n0011\n1100\n0011"}, 2},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/solve", tc.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		res := decodeResult(t, body)
		if res.Depth != tc.depth || !res.Optimal {
			t.Errorf("%s: depth=%d optimal=%v, want %d/true", tc.name, res.Depth, res.Optimal, tc.depth)
		}
		if len(res.Partition) != tc.depth {
			t.Errorf("%s: %d rects, want %d", tc.name, len(res.Partition), tc.depth)
		}
		resp, body = postJSON(t, ts.URL+"/v1/solve", tc.req)
		if resp.StatusCode != http.StatusOK || !decodeResult(t, body).CacheHit {
			t.Errorf("%s: resubmission was not a cache hit", tc.name)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: %d, want 405", resp.StatusCode)
	}
}

// ExampleServer shows the minimal client flow against the service.
func ExampleServer() {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"matrix":"11\n01"}`
	resp, _ := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	var res wire.ResultJSON
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	fmt.Println(res.Depth, res.Optimal)
	// Output: 2 true
}
