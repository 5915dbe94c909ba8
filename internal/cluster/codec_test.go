package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/wire"
)

// TestResponseBytesMatchEncodingJSON pins the response bytes of both tiers
// to encoding/json's: permuted hits (gateway-local, proxied, and straight at
// a backend, with and without a traceparent asking for the span tree) and
// the bad-request table each answer exactly json.NewEncoder(w).Encode of
// the value the body decodes to.
func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	tc := newTestCluster(t, 2, Config{MaxMatrixEntries: 16 * 1024})
	rng := rand.New(rand.NewSource(3))
	var bodies []string
	for _, m := range []*bitmat.Matrix{
		bitmat.MustParse(fig1b),
		bitmat.Random(rand.New(rand.NewSource(1)), 80, 80, 0.015),
		bitmat.Random(rand.New(rand.NewSource(2)), 12, 9, 0.4),
	} {
		for i := 0; i < 3; i++ {
			bodies = append(bodies, string(wire.AppendSolveRequest(nil, &wire.SolveRequest{Matrix: permuted(rng, m).String()})))
		}
	}
	bodies = append(bodies,
		`{}`, `{"matrix":"1","rows":[[1]]}`, `{"matrix":"10\n2x"}`, `{"rows":[[1,0],[1]]}`,
		`{"matrecks":"1"}`, `hello`, `{"matrix":"101\n011"} trailing junk`,
		`{"matrix":"1","options":{"portfolio_strategies":["bogus"]}}`,
		`{"matrix":"1","options":{"encoding":"cnf3"}}`,
	)
	targets := []struct {
		name, url, traceparent string
	}{
		{"gateway", tc.ts.URL, ""},
		{"backend", tc.backends[0].URL, ""},
		{"backend/traced", tc.backends[1].URL, "00-" + strings.Repeat("ab", 16) + "-00000000000000aa-01"},
	}
	for round := 0; round < 2; round++ { // the second round serves every solve from a cache
		for _, target := range targets {
			for _, body := range bodies {
				req, err := http.NewRequest(http.MethodPost, target.url+"/v1/solve", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if target.traceparent != "" {
					req.Header.Set("traceparent", target.traceparent)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				var v any = new(wire.ErrorResponse)
				if resp.StatusCode == http.StatusOK {
					v = new(wire.ResultJSON)
				}
				if err := json.Unmarshal(got, v); err != nil {
					t.Fatalf("%s: %d body does not decode: %v\n%s", target.name, resp.StatusCode, err, got)
				}
				var want bytes.Buffer
				json.NewEncoder(&want).Encode(v)
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("%s answered %q with bytes encoding/json would not write:\n got %s\nwant %s",
						target.name, body, got, want.Bytes())
				}
			}
		}
	}
}

// permuted shuffles m's rows and columns.
func permuted(rng *rand.Rand, m *bitmat.Matrix) *bitmat.Matrix {
	rows, cols := rng.Perm(m.Rows()), rng.Perm(m.Cols())
	out := bitmat.New(m.Rows(), m.Cols())
	for i := range rows {
		for j := range cols {
			out.Set(i, j, m.Get(rows[i], cols[j]))
		}
	}
	return out
}
