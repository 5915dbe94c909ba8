package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/wire"
)

// raceEnabled is set by race_test.go: sync.Pool drops items at random under
// the race detector, so allocation pins skip there.
var raceEnabled bool

// localHitCeiling bounds the allocations of one gateway-local hit through
// ServeHTTP at default tracing, 11 of them the httptest request and
// recorder. It leaves headroom for net/http differences between Go
// releases; the depth pin below is the exact part.
const localHitCeiling = 90

// TestGatewayLocalHitAllocs pins a gateway-local hit's allocations: the
// local tier is a solvecache.Cache, whose Lookup lifts the cached canonical
// partition in index space and hands the lists to wire.FromIndexed as they
// are, so a depth-43 hit allocates at most 4 more objects than a depth-5
// one.
func TestGatewayLocalHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tc := newTestCluster(t, 1, Config{})
	allocs := map[string]float64{}
	for _, c := range hitMatrices() {
		allocs[c.name] = hitAllocs(t, tc.gw.Handler(), c.name, c.m, func() int64 { return tc.gw.MetricsSnapshot().Cache.Local.Hits })
		if allocs[c.name] > localHitCeiling {
			t.Errorf("%s local hit: %v allocs per run, ceiling %d", c.name, allocs[c.name], localHitCeiling)
		}
	}
	if d := allocs["sparse80"] - allocs["fig1b"]; d > 4 {
		t.Errorf("depth-43 local hit allocates %v more than depth-5 (%v vs %v), want at most 4",
			d, allocs["sparse80"], allocs["fig1b"])
	}
	t.Logf("allocs per local hit: fig1b %v, sparse80 %v", allocs["fig1b"], allocs["sparse80"])
}

// proxyHitCeiling bounds the allocations of one proxied hit through the
// gateway's ServeHTTP with the local tier off. The count is the whole
// process's: the gateway's backend client, the backend's handler and both
// ends of the loopback connection. It read 270 (fig1b) and 272–273
// (sparse80) with Go 1.24; the ceiling leaves the same headroom as
// localHitCeiling, so it catches a per-request leak or a reflection codec
// on the path, not one extra object.
const proxyHitCeiling = 400

// TestGatewayProxyHitAllocs pins a proxied hit's allocations: the gateway
// forwards the canonical body, the backend answers from its fingerprint
// cache, and the gateway lifts and encodes the answer.
func TestGatewayProxyHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tc := newTestCluster(t, 1, Config{LocalCacheSize: -1})
	for _, c := range hitMatrices() {
		allocs := hitAllocs(t, tc.gw.Handler(), c.name, c.m, func() int64 { return tc.gw.MetricsSnapshot().Cache.RemoteHits })
		if allocs > proxyHitCeiling {
			t.Errorf("%s proxied hit: %v allocs per run, ceiling %d", c.name, allocs, proxyHitCeiling)
		}
		t.Logf("allocs per proxied hit: %s %v", c.name, allocs)
	}
}

type hitMatrix struct {
	name string
	m    *bitmat.Matrix
}

// hitMatrices are the hit pins' inputs: depth 5 and depth 43.
func hitMatrices() []hitMatrix {
	return []hitMatrix{{"fig1b", bitmat.MustParse(fig1b)}, {"sparse80", bitmat.Random(rand.New(rand.NewSource(1)), 80, 80, 0.015)}}
}

// hitAllocs posts m with its rows reversed through h twice, the first time
// to fill the tier whose hit counter hits reads, checks that the second was
// a hit there, and returns the allocations of one more such hit.
func hitAllocs(t *testing.T, h http.Handler, name string, m *bitmat.Matrix, hits func() int64) float64 {
	t.Helper()
	body := reversedRowsBody(t, m)
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		return rec
	}
	serve()
	before := hits()
	if rec := serve(); rec.Code != http.StatusOK || hits() != before+1 {
		t.Fatalf("%s: repeat was not a hit: %d %s", name, rec.Code, rec.Body.Bytes())
	}
	return testing.AllocsPerRun(100, func() { serve() })
}

// reversedRowsBody is a solve request for m with its rows reversed, so that
// every hit is a permuted resubmission lifted through the fingerprint maps.
func reversedRowsBody(t *testing.T, m *bitmat.Matrix) []byte {
	t.Helper()
	rows := m.ToRows()
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
	body, err := json.Marshal(wire.SolveRequest{Matrix: bitmat.FromRows(rows).String()})
	if err != nil {
		t.Fatal(err)
	}
	return body
}
