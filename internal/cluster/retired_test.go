package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/wire"
)

// TestRetiredRacingValues pins the retirement of strategy racing at every
// tier. Each retired value is a 400 bad_request naming its field at ebmfd
// and at ebmfgw, for a pattern the gateway would proxy and for one it would
// answer from its local cache, on /v1/solve and /v1/jobs, and no backend
// solves anything for it. The values that stay accepted still solve, with
// the optimal depth, through the same tiers and endpoints.
func TestRetiredRacingValues(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	body := func(m *bitmat.Matrix, opts string) string {
		matrix, _ := json.Marshal(m.String())
		return `{"matrix":` + string(matrix) + `,"options":` + opts + `}`
	}
	post := func(url, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	warm := bitmat.MustParse(fig1b)
	if resp, data := post(tc.ts.URL+"/v1/solve", body(warm, `{}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming solve: %d %s", resp.StatusCode, data)
	}
	cold := bitmat.MustParse("110\n011\n101")
	targets := []struct {
		name string
		base string
		m    *bitmat.Matrix
	}{
		{"ebmfd", tc.backends[0].URL, cold},
		{"gateway-proxied", tc.ts.URL, cold},
		{"gateway-local-hit", tc.ts.URL, warm},
	}
	solves, hits := tc.fleetSolves(), tc.gw.MetricsSnapshot().Cache.Local.Hits
	for _, row := range []struct{ name, opts, field string }{
		{"portfolio 2", `{"portfolio":2}`, "portfolio"},
		{"portfolio 3", `{"portfolio":3}`, "portfolio"},
		{"share_clauses true", `{"share_clauses":true}`, "share_clauses"},
		{"two strategies", `{"portfolio_strategies":["canonical","luby"]}`, "portfolio_strategies"},
		{"two strategies, portfolio 1", `{"portfolio":1,"portfolio_strategies":["luby","destructive"]}`, "portfolio_strategies"},
	} {
		for _, tg := range targets {
			for _, path := range []string{"/v1/solve", "/v1/jobs"} {
				resp, data := post(tg.base+path, body(tg.m, row.opts))
				var e wire.ErrorResponse
				err := json.Unmarshal(data, &e)
				if resp.StatusCode != http.StatusBadRequest || err != nil || e.Code != wire.CodeBadRequest || !strings.Contains(e.Error, row.field) {
					t.Errorf("%s at %s %s: status %d code %q %q (%v), want 400 %q naming %s",
						row.name, tg.name, path, resp.StatusCode, e.Code, e.Error, err, wire.CodeBadRequest, row.field)
				}
			}
		}
	}
	if got := tc.fleetSolves(); got != solves {
		t.Errorf("backends ran %d solves for retired values", got-solves)
	}
	if got := tc.gw.MetricsSnapshot().Cache.Local.Hits; got != hits {
		t.Errorf("the gateway answered %d retired requests from its cache", got-hits)
	}

	// Each accepted row gets its own patterns, so its gateway solve is
	// proxied and only its repeat is a local hit.
	suite := benchgen.GapSuite(7, 7, 7, []int{2}, 6)
	for i, opts := range []string{`{"portfolio":1}`, `{"share_clauses":false}`, `{"portfolio_strategies":["luby"]}`} {
		m, jm := suite[2*i].M, suite[2*i+1].M
		want, err := core.BinaryRank(m)
		if err != nil {
			t.Fatal(err)
		}
		wantJob, err := core.BinaryRank(jm)
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range []struct{ name, base string }{
			{"ebmfd", tc.backends[0].URL},
			{"gateway-proxied", tc.ts.URL},
			{"gateway-local-hit", tc.ts.URL},
		} {
			resp, data := post(tg.base+"/v1/solve", body(m, opts))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s at %s: status %d: %s", opts, tg.name, resp.StatusCode, data)
			}
			if res := decodeResult(t, data); res.Depth != want || !res.Optimal {
				t.Errorf("%s at %s: depth %d optimal %v, want %d true", opts, tg.name, res.Depth, res.Optimal, want)
			}
		}
		for _, base := range []string{tc.backends[0].URL, tc.ts.URL} {
			resp, data := post(base+"/v1/jobs", body(jm, opts))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s job at %s: status %d: %s", opts, base, resp.StatusCode, data)
			}
			j := waitGWJob(t, base, decodeGWJob(t, data).ID, "")
			if j.State != wire.JobDone || j.Result == nil || j.Result.Depth != wantJob || !j.Result.Optimal {
				t.Errorf("%s job at %s: %+v, want done at depth %d", opts, base, j, wantJob)
			}
		}
	}
	if got := tc.gw.MetricsSnapshot().Cache.Local.Hits; got < hits+3 {
		t.Errorf("local hits %d → %d: each accepted row's repeat must be a local hit", hits, got)
	}
}
