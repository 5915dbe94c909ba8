package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// FuzzWireDecode throws arbitrary request bodies at the solve and batch
// handlers of both tiers — an ebmfd server and an ebmfgw gateway fronting
// it — and requires that nothing panics and nothing turns into a 5xx: a
// malformed body is the client's fault (400-shaped), never the service's.
// Runs nightly alongside the solver fuzz targets (nightly.yml).
func FuzzWireDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"matrix":"101\n011"}`,
		`{"matrix":"101100\n010011\n101010\n010101\n111000\n000111"}`,
		`{"rows":[[1,0],[0,1]]}`,
		`{"rows":[]}`,
		`{"rows":[[]]}`,
		`{"rows":[[],[]]}`,
		`{"rows":[[1,0],[1]]}`,
		`{"rows":[[1,2,3]]}`,
		`{"matrix":"1","rows":[[1]]}`,
		`{"matrix":"10\n2x"}`,
		`{"matrix":"1","options":{"encoding":"log","timeout_ms":5}}`,
		`{"matrix":"1","options":{"encoding":"cnf3"}}`,
		`{"matrix":"1","options":{"portfolio_strategies":["bogus"]}}`,
		`{"matrecks":"1"}`,
		`{"requests":[{"matrix":"1"},{"rows":[[]]},{}]}`,
		`{"requests":[]}`,
		`{"matrix":"` + strings.Repeat("1", 300) + `"}`,
		`not json`,
		`null`,
		`"str"`,
		`[1,2,3]`,
		"\xff\xfe\x00",
	} {
		f.Add([]byte(seed))
	}

	// Small, fast service limits: matrices are capped tiny and solves are
	// deadline-bounded, so even a fuzz-found "hard" valid matrix answers in
	// milliseconds (possibly as timed_out — still a 200).
	cfg := Config{
		MaxMatrixEntries: 144,
		MaxBodyBytes:     1 << 16,
		DefaultTimeout:   50 * time.Millisecond,
		MaxTimeout:       100 * time.Millisecond,
		MaxBatch:         8,
	}
	srv := New(cfg)
	backend := httptest.NewServer(srv.Handler())
	f.Cleanup(backend.Close)
	gw, err := cluster.New(cluster.Config{
		Backends:         []string{backend.URL},
		ProbeInterval:    -1,
		HedgeAfter:       -1,
		MaxMatrixEntries: 144,
		MaxBodyBytes:     1 << 16,
		MaxBatch:         8,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(gw.Close)

	tiers := []struct {
		name string
		h    http.Handler
	}{
		{"server", srv.Handler()},
		{"gateway", gw.Handler()},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/solve", "/v1/batch"} {
			for _, tier := range tiers {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				tier.h.ServeHTTP(rec, req) // a panic here fails the fuzz run
				if rec.Code >= 500 {
					t.Fatalf("%s %s answered %d for body %q\nresponse: %s",
						tier.name, path, rec.Code, body, rec.Body.Bytes())
				}
				if rec.Code != http.StatusOK {
					var e wire.ErrorResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
						t.Fatalf("%s %s: %d body is not a structured wire error: %s",
							tier.name, path, rec.Code, rec.Body.Bytes())
					}
				}
			}
		}
	})
}
