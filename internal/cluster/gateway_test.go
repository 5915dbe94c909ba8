package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/server"
	"repro/internal/wire"
)

const fig1b = `101100
010011
101010
010101
111000
000111`

// testCluster is an in-process fleet: n real ebmfd servers behind httptest
// listeners, fronted by one gateway.
type testCluster struct {
	servers  []*server.Server
	backends []*httptest.Server
	gw       *Gateway
	ts       *httptest.Server
}

// newTestCluster builds the fleet. Probing and hedging default to off so
// tests are hermetic; pass explicit gcfg values to enable them.
func newTestCluster(t *testing.T, n int, gcfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		s := server.New(server.Config{MaxQueue: 256})
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

// fleetSolves sums the underlying pipeline runs across every backend's
// cache — the fleet-wide dedup metric.
func (tc *testCluster) fleetSolves() int64 {
	var total int64
	for _, s := range tc.servers {
		total += s.Cache().Stats().Solves
	}
	return total
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

func permute(m *bitmat.Matrix, rng *rand.Rand) *bitmat.Matrix {
	rp, cp := rng.Perm(m.Rows()), rng.Perm(m.Cols())
	out := bitmat.New(m.Rows(), m.Cols())
	m.ForEachOne(func(i, j int) { out.Set(rp[i], cp[j], true) })
	return out
}

func TestGatewaySolveAndPermutedResubmissionHits(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	resp, body := postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	first := decodeResult(t, body)
	if first.Depth != 5 || !first.Optimal || first.CacheHit {
		t.Fatalf("cold solve: %+v", first)
	}
	if first.Fingerprint == "" {
		t.Fatalf("no fingerprint in gateway response")
	}
	if len(first.Partition) != 5 {
		t.Fatalf("partition has %d rects, want 5", len(first.Partition))
	}
	// The lifted partition must index the *client's* matrix and cover it.
	m := bitmat.MustParse(fig1b)
	assertPartitionCovers(t, m, first.Partition)

	// A permuted resubmission must be a cache hit through the gateway with
	// the same depth and fingerprint, without a second pipeline solve
	// anywhere in the fleet.
	rng := rand.New(rand.NewSource(7))
	p := permute(m, rng)
	resp, body = postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: p.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	second := decodeResult(t, body)
	if !second.CacheHit || second.Depth != 5 || second.Fingerprint != first.Fingerprint {
		t.Fatalf("permuted resubmission: %+v", second)
	}
	if second.SATCalls != 0 || second.PackNS != 0 || second.SATNS != 0 {
		t.Fatalf("cache hit did not zero solver stages: %+v", second)
	}
	assertPartitionCovers(t, p, second.Partition)
	if n := tc.fleetSolves(); n != 1 {
		t.Fatalf("fleet ran %d pipeline solves, want 1", n)
	}
	snap := tc.gw.MetricsSnapshot()
	if snap.Cache.Local.Hits+snap.Cache.RemoteHits == 0 {
		t.Fatalf("no cache hit recorded in gateway metrics: %+v", snap)
	}
}

// assertPartitionCovers re-validates a wire partition against the request
// matrix: disjoint rectangles of ones covering every one.
func assertPartitionCovers(t *testing.T, m *bitmat.Matrix, rects []wire.RectJSON) {
	t.Helper()
	covered := bitmat.New(m.Rows(), m.Cols())
	for _, r := range rects {
		for _, i := range r.Rows {
			for _, j := range r.Cols {
				if !m.Get(i, j) {
					t.Fatalf("rect covers zero at (%d,%d)", i, j)
				}
				if covered.Get(i, j) {
					t.Fatalf("rects overlap at (%d,%d)", i, j)
				}
				covered.Set(i, j, true)
			}
		}
	}
	if !covered.Equal(m) {
		t.Fatalf("partition does not cover the matrix")
	}
}

// TestGatewayConcurrentPermutationsSingleSolveFleetWide is the subsystem's
// acceptance test: 64 concurrent requests, each a different row/column
// permutation of one matrix, arrive at a 3-backend cluster; consistent
// fingerprint routing must land them on one shard whose cache/singleflight
// performs exactly one pipeline solve fleet-wide.
func TestGatewayConcurrentPermutationsSingleSolveFleetWide(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	m := bitmat.MustParse(fig1b)
	rng := rand.New(rand.NewSource(2024))

	const n = 64
	bodies := make([][]byte, n)
	for i := range bodies {
		data, err := json.Marshal(wire.SolveRequest{Matrix: permute(m, rng).String()})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = data
	}

	client := tc.ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: n}
	var wg sync.WaitGroup
	depths := make([]int, n)
	hits := make([]bool, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := client.Post(tc.ts.URL+"/v1/solve", "application/json",
				bytes.NewReader(bodies[i]))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var res wire.ResultJSON
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			depths[i] = res.Depth
			hits[i] = res.CacheHit
		}(i)
	}
	close(start)
	wg.Wait()

	misses := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if depths[i] != 5 {
			t.Fatalf("request %d: depth %d, want 5", i, depths[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d responses were not cache/singleflight hits, want exactly 1 (the leader)", misses)
	}
	if n := tc.fleetSolves(); n != 1 {
		t.Fatalf("fleet ran %d pipeline solves for 64 concurrent permutations, want 1", n)
	}
}

// TestGatewayBackendKilledMidLoadLosesZeroRequests is the resilience
// acceptance test: under a stream of distinct solves spread across three
// shards, one backend is killed abruptly (established connections severed,
// listener closed). Every request must still succeed via ring failover.
func TestGatewayBackendKilledMidLoadLosesZeroRequests(t *testing.T) {
	tc := newTestCluster(t, 3, Config{BreakerThreshold: 2})
	rng := rand.New(rand.NewSource(41))
	const workers = 8
	const perWorker = 12
	bodies := make([][]byte, workers*perWorker)
	for i := range bodies {
		m := bitmat.Random(rng, 6, 6, 0.5)
		data, err := json.Marshal(wire.SolveRequest{Matrix: m.String()})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = data
	}

	var completed atomic.Int64
	killAt := int64(len(bodies) / 3)
	killed := make(chan struct{})
	go func() {
		for completed.Load() < killAt {
			time.Sleep(time.Millisecond)
		}
		// Abrupt death: sever live connections first so in-flight gateway
		// attempts see hard errors, then stop the listener.
		tc.backends[1].CloseClientConnections()
		tc.backends[1].Close()
		close(killed)
	}()

	client := tc.ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: workers}
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				i := w*perWorker + k
				resp, err := client.Post(tc.ts.URL+"/v1/solve", "application/json",
					bytes.NewReader(bodies[i]))
				if err != nil {
					errs[i] = err
					completed.Add(1)
					continue
				}
				var res wire.ResultJSON
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				switch {
				case err != nil:
					errs[i] = err
				case resp.StatusCode != http.StatusOK:
					errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				case !res.Optimal:
					errs[i] = fmt.Errorf("not optimal: %+v", res)
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	<-killed

	lost := 0
	for i, err := range errs {
		if err != nil {
			lost++
			t.Errorf("request %d lost: %v", i, err)
		}
	}
	if lost > 0 {
		t.Fatalf("%d/%d requests lost after killing one backend", lost, len(bodies))
	}
}

func TestGatewayBatchSplitsAcrossShardsAndMergesInOrder(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	m := bitmat.MustParse(fig1b)
	rng := rand.New(rand.NewSource(3))
	req := wire.BatchRequest{Requests: []wire.SolveRequest{
		{Matrix: fig1b},
		{Matrix: "not a matrix"},
		{Matrix: "10\n01"},
		{Rows: [][]int{}},                  // zero-dimension: per-item 400-shaped error
		{Matrix: permute(m, rng).String()}, // equivalent to item 0
		{Matrix: "1"},
	}}
	resp, body := postJSON(t, tc.ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 6 {
		t.Fatalf("%d results, want 6", len(br.Results))
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
	if br.Results[3].Error == "" {
		t.Fatalf("zero-dimension item should be an error: %+v", br.Results[3])
	}
	if br.Results[4].Result == nil || br.Results[4].Result.Depth != 5 {
		t.Fatalf("item 4: %+v", br.Results[4])
	}
	if br.Results[4].Result.Fingerprint != br.Results[0].Result.Fingerprint {
		t.Fatalf("equivalent batch items got different fingerprints")
	}
	if br.Results[5].Result == nil || br.Results[5].Result.Depth != 1 {
		t.Fatalf("item 5: %+v", br.Results[5])
	}
	// The two distinct nontrivial patterns plus "1" → at most 3 pipeline
	// solves fleet-wide (the permuted duplicate must dedup onto item 0).
	if n := tc.fleetSolves(); n > 3 {
		t.Fatalf("fleet ran %d pipeline solves for 3 distinct patterns", n)
	}
}

func TestGatewayLocalCacheServesWhenAllBackendsDown(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	resp, body := postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming solve: %d %s", resp.StatusCode, body)
	}
	for _, b := range tc.backends {
		b.CloseClientConnections()
		b.Close()
	}
	// A permuted equivalent must still be answered, from the gateway-local
	// proved-optimal LRU, with the whole fleet gone.
	m := bitmat.MustParse(fig1b)
	p := permute(m, rand.New(rand.NewSource(11)))
	resp, body = postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: p.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local-cache solve: %d %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if !res.CacheHit || res.Depth != 5 || !res.Optimal {
		t.Fatalf("local-cache hit: %+v", res)
	}
	assertPartitionCovers(t, p, res.Partition)
	if snap := tc.gw.MetricsSnapshot(); snap.Cache.Local.Hits != 1 {
		t.Fatalf("local cache hits = %d, want 1", snap.Cache.Local.Hits)
	}
	// A pattern the cache has never seen must fail with 502 — every
	// candidate backend refused — as a structured wire error.
	resp, body = postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: "110\n011\n101"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unseen pattern with fleet down: %d, want 502", resp.StatusCode)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("502 body not a structured wire error: %s", body)
	}
}

func TestGatewayHedgesToSecondShardWhenHomeStalls(t *testing.T) {
	// Two custom backends: real ebmfd handlers, each wrappable into a stall
	// (hold the request open until the gateway abandons it). The stall must
	// drain the request body first — the server only notices a client
	// disconnect (and cancels r.Context()) once the body has been consumed —
	// and `release` unblocks any straggler before the cleanup closes the
	// listeners.
	stall := make([]atomic.Bool, 2)
	release := make(chan struct{})
	var urls []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{})
		inner := s.Handler()
		idx := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stall[idx].Load() && strings.HasPrefix(r.URL.Path, "/v1/solve") {
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
				case <-release:
				}
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	t.Cleanup(func() { close(release) }) // runs before the ts.Close cleanups
	gw, err := New(Config{
		Backends:      urls,
		HedgeAfter:    30 * time.Millisecond,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)

	// Find the home shard for fig1b and stall it: the hedge must win on the
	// other backend well before any solve timeout.
	fp := bitmat.ComputeFingerprint(bitmat.MustParse(fig1b))
	home := gw.ring.candidates(fp.Hash)[0]
	stall[home].Store(true)

	resp, body := postJSON(t, gts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged solve: %d %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if res.Depth != 5 || !res.Optimal {
		t.Fatalf("hedged solve result: %+v", res)
	}
	snap := gw.MetricsSnapshot()
	if snap.Routing.Hedges == 0 {
		t.Fatalf("no hedge recorded: %+v", snap.Routing)
	}
	// Losing a hedge race is not a backend failure: the stalled-but-alive
	// home shard's attempt was canceled by the gateway, and that must not
	// feed its breaker — otherwise routine hedging would open breakers on
	// healthy shards and break cache-affinity routing.
	for _, b := range snap.Backends {
		if b.Failures != 0 || b.Breaker != "closed" {
			t.Fatalf("canceled hedge attempt penalized a backend: %+v", b)
		}
	}
}

func TestGatewayBadRequestsAreStructured400s(t *testing.T) {
	tc := newTestCluster(t, 2, Config{MaxMatrixEntries: 16})
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
		{"zero-dim empty rows", `{"rows":[]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"zero-dim empty row", `{"rows":[[]]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"zero-dim text", `{"matrix":","}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"zero-dim text multi", `{"matrix":" , \n , "}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"non-binary rows", `{"rows":[[1,2]]}`, http.StatusBadRequest, wire.CodeBadMatrix},
		{"unknown field", `{"matrecks":"1"}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"too large", `{"matrix":"` + strings.Repeat("11111\\n", 5) + `"}`, http.StatusBadRequest, wire.CodeBudgetExceeded},
		{"not json", `hello`, http.StatusBadRequest, wire.CodeBadRequest},
		{"trailing junk", `{"matrix":"101\n011"} trailing junk`, http.StatusBadRequest, wire.CodeBadRequest},
		{"second value", `{"matrix":"101\n011"}{"matrix":"1"}`, http.StatusBadRequest, wire.CodeBadRequest},
	}
	for _, tc2 := range cases {
		resp, err := http.Post(tc.ts.URL+"/v1/solve", "application/json", strings.NewReader(tc2.body))
		if err != nil {
			t.Fatalf("%s: %v", tc2.name, err)
		}
		var e wire.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc2.want {
			t.Errorf("%s: status %d, want %d", tc2.name, resp.StatusCode, tc2.want)
		}
		if err != nil || e.Error == "" {
			t.Errorf("%s: body is not a structured wire error (%v)", tc2.name, err)
		}
		if e.Code != tc2.code {
			t.Errorf("%s: code %q, want %q", tc2.name, e.Code, tc2.code)
		}
	}
	// None of these must have touched a backend.
	for i, s := range tc.servers {
		if s.Cache().Stats().Solves != 0 {
			t.Errorf("backend %d ran a solve for an invalid request", i)
		}
	}

	// Invalid options are 400s even when the gateway could answer the
	// pattern from its local cache, as they are at ebmfd; retired values
	// ("log", "glue4", "no-symbreak", "pairwise-amo") decode like any
	// unknown value.
	const warm = `101\n011\n110` // JSON-escaped
	body := func(opts string) string { return `{"matrix":"` + warm + `","options":` + opts + `}` }
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: strings.ReplaceAll(warm, `\n`, "\n")})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warming solve: status %d", resp.StatusCode)
		}
	}
	hits := tc.gw.MetricsSnapshot().Cache.Local.Hits
	if hits == 0 {
		t.Fatal("the warmed pattern is not served from the gateway's local cache")
	}
	for _, row := range []struct{ name, body, msg string }{
		{"warm unknown encoding", body(`{"encoding":"cnf3"}`), "encoding"},
		{"warm retired encoding", body(`{"encoding":"log"}`), "encoding"},
		{"warm retired strategy log", body(`{"portfolio_strategies":["log"]}`), "strategy"},
		{"warm retired strategy glue4", body(`{"portfolio_strategies":["canonical","glue4"]}`), "strategy"},
		{"warm retired strategy no-symbreak", body(`{"portfolio_strategies":["no-symbreak"]}`), "strategy"},
		{"warm retired strategy pairwise-amo", body(`{"portfolio_strategies":["pairwise-amo"]}`), "strategy"},
		{"warm unknown amo", body(`{"amo":"ladder"}`), "AMO"},
	} {
		for _, path := range []string{"/v1/solve", "/v1/jobs"} {
			resp, err := http.Post(tc.ts.URL+path, "application/json", strings.NewReader(row.body))
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			var e wire.ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || e.Code != wire.CodeBadRequest || !strings.Contains(e.Error, row.msg) {
				t.Errorf("%s %s: status %d code %q %q (%v), want 400 %q naming the %s", row.name, path,
					resp.StatusCode, e.Code, e.Error, err, wire.CodeBadRequest, row.msg)
			}
		}
	}
	resp, err := http.Post(tc.ts.URL+"/v1/solve", "application/json", strings.NewReader(body(`{"encoding":"onehot"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf(`"encoding":"onehot" on a warm pattern: status %d, want 200`, resp.StatusCode)
	}
	if got := tc.gw.MetricsSnapshot().Cache.Local.Hits; got != hits+1 {
		t.Errorf("local hits %d → %d: only the valid request may be answered from the cache", hits, got)
	}
}

// TestGatewayOverCapBodyIs413 pins the gateway's body-size budget: a body
// over MaxBodyBytes is 413 budget_exceeded, as at ebmfd, wherever its JSON
// value ends, and it never reaches a backend.
func TestGatewayOverCapBodyIs413(t *testing.T) {
	tc := newTestCluster(t, 1, Config{MaxBodyBytes: 64})
	for _, body := range []string{
		`{"matrix":"` + strings.Repeat("1", 64) + `"}`,
		`{"matrix":"1"}` + strings.Repeat(" ", 64),
	} {
		for _, path := range []string{"/v1/solve", "/v1/batch", "/v1/jobs"} {
			resp, err := http.Post(tc.ts.URL+path, "application/json", strings.NewReader(body))
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
	if n := tc.servers[0].Cache().Stats().Solves; n != 0 {
		t.Errorf("the backend ran %d solves for over-cap bodies", n)
	}
}

func TestGatewayRelaysAuthoritativeBackendErrors(t *testing.T) {
	// The backend's matrix budget is tighter than the gateway's, so the
	// request passes the gateway's checks and is rejected by the shard; the
	// gateway must relay the 400 and its body.
	s := server.New(server.Config{MaxMatrixEntries: 2})
	bts := httptest.NewServer(s.Handler())
	t.Cleanup(bts.Close)
	gw, err := New(Config{Backends: []string{bts.URL}, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/v1/solve", wire.SolveRequest{Matrix: "11\n01"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want relayed 400: %s", resp.StatusCode, body)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || e.Code != wire.CodeBudgetExceeded {
		t.Fatalf("relayed 400 body not the backend's structured error: %s", body)
	}
}

func TestGatewayAllZeroMatrixDegenerateCanonical(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	resp, body := postJSON(t, tc.ts.URL+"/v1/solve",
		wire.SolveRequest{Rows: [][]int{{0, 0, 0}, {0, 0, 0}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-zero solve: %d %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if res.Depth != 0 || !res.Optimal {
		t.Fatalf("all-zero result: %+v", res)
	}
}

func TestGatewayHealthzAndDrain(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	resp, body := httpGet(t, tc.ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	tc.gw.BeginDrain()
	resp, body = httpGet(t, tc.ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"draining"`)) {
		t.Fatalf("draining healthz: %d %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: "1"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: %d, want 503", resp.StatusCode)
	}
}

func TestGatewayHealthProbesMarkDeadBackends(t *testing.T) {
	s := server.New(server.Config{})
	bts := httptest.NewServer(s.Handler())
	gw, err := New(Config{
		Backends:      []string{bts.URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)

	bts.CloseClientConnections()
	bts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := httpGet(t, gts.URL+"/v1/healthz")
		if resp.StatusCode == http.StatusServiceUnavailable &&
			bytes.Contains(body, []byte(`"no_healthy_backends"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never noticed the dead fleet: %d %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := gw.MetricsSnapshot()
	if len(snap.Backends) != 1 || snap.Backends[0].Healthy {
		t.Fatalf("metrics still report the dead backend healthy: %+v", snap.Backends)
	}
}

func TestGatewayMetricsShape(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: fig1b})
	resp, body := httpGet(t, tc.ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad metrics JSON: %v\n%s", err, body)
	}
	if snap.Requests.Solve != 2 {
		t.Fatalf("solve count = %d, want 2", snap.Requests.Solve)
	}
	if snap.Cache.Local.Hits != 1 {
		t.Fatalf("local hits = %d, want 1 (identical resubmission)", snap.Cache.Local.Hits)
	}
	if len(snap.Backends) != 3 {
		t.Fatalf("%d backends in metrics, want 3", len(snap.Backends))
	}
	for _, b := range snap.Backends {
		if b.Breaker != "closed" || !b.Healthy {
			t.Fatalf("backend state: %+v", b)
		}
	}
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
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
