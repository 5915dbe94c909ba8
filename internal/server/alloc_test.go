package server

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

// hitCeiling bounds the allocations of one /v1/solve cache hit through
// ServeHTTP at default tracing, 11 of them the httptest request and
// recorder. It leaves headroom for net/http differences between Go
// releases; the depth pin below is the exact part.
const hitCeiling = 110

// TestSolveHitAllocs pins a cache hit's allocations at ebmfd: the request
// decode, the index-space lift and the response encode no longer allocate
// per rectangle, so a depth-43 hit allocates at most 4 more objects than a
// depth-5 one (the recorder's body buffer grows with the response).
func TestSolveHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	allocs := map[string]float64{}
	for _, tc := range []struct {
		name string
		m    *bitmat.Matrix
	}{{"fig1b", bitmat.MustParse(fig1b)}, {"sparse80", sparse80()}} {
		body := hitBody(t, tc.m)
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
			return rec
		}
		serve() // the miss that fills the cache
		if rec := serve(); rec.Code != http.StatusOK || !decodeResult(t, rec.Body.Bytes()).CacheHit {
			t.Fatalf("%s: repeat was not a cache hit: %d %s", tc.name, rec.Code, rec.Body.Bytes())
		}
		allocs[tc.name] = testing.AllocsPerRun(100, func() { serve() })
		if allocs[tc.name] > hitCeiling {
			t.Errorf("%s hit: %v allocs per run, ceiling %d", tc.name, allocs[tc.name], hitCeiling)
		}
	}
	if d := allocs["sparse80"] - allocs["fig1b"]; d > 4 {
		t.Errorf("depth-43 hit allocates %v more than depth-5 (%v vs %v), want at most 4",
			d, allocs["sparse80"], allocs["fig1b"])
	}
	t.Logf("allocs per hit: fig1b %v, sparse80 %v", allocs["fig1b"], allocs["sparse80"])
}

// sparse80 is a sparse 80×80 pattern of proved depth 43.
func sparse80() *bitmat.Matrix {
	return bitmat.Random(rand.New(rand.NewSource(1)), 80, 80, 0.015)
}

// hitBody is a solve request for m with its rows reversed, so that every
// hit is a permuted resubmission lifted through the fingerprint maps.
func hitBody(t *testing.T, m *bitmat.Matrix) []byte {
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
