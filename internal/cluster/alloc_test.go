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
	h := tc.gw.Handler()
	allocs := map[string]float64{}
	for _, c := range []struct {
		name string
		m    *bitmat.Matrix
	}{{"fig1b", bitmat.MustParse(fig1b)}, {"sparse80", bitmat.Random(rand.New(rand.NewSource(1)), 80, 80, 0.015)}} {
		body := reversedRowsBody(t, c.m)
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
			return rec
		}
		serve() // proxied solve; fills the local cache
		before := tc.gw.MetricsSnapshot().Cache.Local.Hits
		if rec := serve(); rec.Code != http.StatusOK || tc.gw.MetricsSnapshot().Cache.Local.Hits != before+1 {
			t.Fatalf("%s: repeat was not a local hit: %d %s", c.name, rec.Code, rec.Body.Bytes())
		}
		allocs[c.name] = testing.AllocsPerRun(100, func() { serve() })
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
