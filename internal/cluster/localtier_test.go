package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/rect"
	"repro/internal/wire"
)

// localHitGolden is the SHA-256 of every gateway-local hit body that
// TestGatewayLocalHitBytesGolden produces, in order. It was recorded from
// the gateway's earlier private wire-to-wire LRU; the solvecache tier must
// answer with the same bytes.
const localHitGolden = "20275e1c3b97c10d2b5e5d95b18449162e840bd3027d0916aea91cfdf85c450c"

// TestGatewayLocalHitBytesGolden pins the bytes and counters of
// gateway-local hits. For Fig. 1b and 12 seeded random matrices it sends one
// warming solve (proxied, and not hashed: it carries timings), then three
// permuted solves and one 2-item batch of further permutations, all of them
// local hits. The bodies of the hits are hashed in order.
func TestGatewayLocalHitBytesGolden(t *testing.T) {
	tc := newTestCluster(t, 2, Config{ReplicateFills: -1})
	h := tc.gw.Handler()
	serve := func(path string, body any) []byte {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	rng := rand.New(rand.NewSource(19))
	mats := []*bitmat.Matrix{bitmat.MustParse(fig1b)}
	for i := 0; i < 12; i++ {
		mats = append(mats, bitmat.Random(rng, 6+i%5, 6+(3*i)%5, 0.35+0.05*float64(i%3)))
	}
	sum := sha256.New()
	for i, m := range mats {
		warm := decodeResult(t, serve("/v1/solve", wire.SolveRequest{Matrix: m.String()}))
		if !warm.Optimal || warm.CacheHit {
			t.Fatalf("matrix %d: warming solve %+v, want a fresh proved-optimal answer", i, warm)
		}
		for k := 0; k < 3; k++ {
			p := permute(m, rng)
			body := serve("/v1/solve", wire.SolveRequest{Matrix: p.String()})
			res := decodeResult(t, body)
			if !res.CacheHit || res.Depth != warm.Depth || res.Fingerprint != warm.Fingerprint {
				t.Fatalf("matrix %d permutation %d: %+v", i, k, res)
			}
			assertPartitionCovers(t, p, res.Partition)
			sum.Write(body)
		}
		p, q := permute(m, rng), permute(m, rng)
		body := serve("/v1/batch", wire.BatchRequest{Requests: []wire.SolveRequest{{Matrix: p.String()}, {Matrix: q.String()}}})
		var br wire.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != 2 {
			t.Fatalf("matrix %d batch: %v %s", i, err, body)
		}
		for k, pm := range []*bitmat.Matrix{p, q} {
			res := br.Results[k].Result
			if res == nil || !res.CacheHit || res.Depth != warm.Depth {
				t.Fatalf("matrix %d batch item %d: %+v", i, k, br.Results[k])
			}
			assertPartitionCovers(t, pm, res.Partition)
		}
		sum.Write(body)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != localHitGolden {
		t.Errorf("local-hit bodies digest %s, want %s", got, localHitGolden)
	}
	got := tc.gw.MetricsSnapshot().Cache.Local
	want := LocalCacheStats{Hits: 65, Misses: 13, Stores: 13, Entries: 13, Capacity: 512}
	if got != want {
		t.Errorf("cache.local = %+v, want %+v", got, want)
	}
}

// TestGatewayLocalEntryFailingLiftIsDropped seeds the local tier with a
// wrong canonical partition under a real hash. The hit must fail to lift,
// be dropped and counted, and the backend must answer the request.
func TestGatewayLocalEntryFailingLiftIsDropped(t *testing.T) {
	tc := newTestCluster(t, 1, Config{ReplicateFills: -1})
	m := bitmat.MustParse(fig1b)
	fp := bitmat.ComputeFingerprint(m)
	rows, cols := fp.Canonical.Rows(), fp.Canonical.Cols()
	// One all-ones rectangle: depth 1, covering every zero of the pattern.
	all := rect.Indices{}
	for i := 0; i < rows; i++ {
		all.Rows = append(all.Rows, i)
	}
	for j := 0; j < cols; j++ {
		all.Cols = append(all.Cols, j)
	}
	meta := &core.Result{Depth: 1, Optimal: true, Certificate: core.CertRank}
	if !tc.gw.cache.SeedIndexed(fp.Hash, meta, rows, cols, []rect.Indices{all}) {
		t.Fatal("local tier refused the seed")
	}
	p := permute(m, rand.New(rand.NewSource(3)))
	resp, body := postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: p.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if res.Depth != 5 || !res.Optimal || res.CacheHit {
		t.Fatalf("answer after a failed lift: %+v, want the backend's fresh depth-5 solve", res)
	}
	assertPartitionCovers(t, p, res.Partition)
	got := tc.gw.MetricsSnapshot().Cache.Local
	want := LocalCacheStats{Hits: 1, Stores: 2, LiftFailures: 1, Entries: 1, Capacity: 512}
	if got != want {
		t.Fatalf("cache.local = %+v, want %+v", got, want)
	}
	// The backend's answer replaced the dropped entry.
	_, body = postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: p.String()})
	if res := decodeResult(t, body); !res.CacheHit || res.Depth != 5 {
		t.Fatalf("repeat: %+v", res)
	}
	if got := tc.gw.MetricsSnapshot().Cache.Local; got.Hits != 2 || got.LiftFailures != 1 {
		t.Fatalf("repeat was not a local hit: cache.local = %+v", got)
	}
}

// TestGatewayLocalEvictionOrderFollowsUse is solvecache's
// TestCacheEvictionOrderFollowsUse through the gateway: at capacity 2 the
// local tier evicts the least recently used entry, not the oldest.
func TestGatewayLocalEvictionOrderFollowsUse(t *testing.T) {
	tc := newTestCluster(t, 1, Config{LocalCacheSize: 2, ReplicateFills: -1})
	// localHit solves m through the gateway and reports whether the local
	// tier answered it.
	localHit := func(m string) bool {
		t.Helper()
		before := tc.gw.MetricsSnapshot().Cache.Local.Hits
		resp, body := postJSON(t, tc.ts.URL+"/v1/solve", wire.SolveRequest{Matrix: m})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", m, resp.StatusCode, body)
		}
		return tc.gw.MetricsSnapshot().Cache.Local.Hits > before
	}
	a, b, d := "1", "10\n01", "110\n011"
	localHit(a)
	localHit(b)
	// Touch a (the older entry), then insert d: b must be the eviction
	// victim even though it was stored after a.
	if !localHit(a) {
		t.Fatal("warming repeat of a was not a local hit")
	}
	localHit(d)
	if s := tc.gw.MetricsSnapshot().Cache.Local; s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("cache.local = %+v, want 2 entries / 1 eviction", s)
	}
	if !localHit(a) {
		t.Fatal("recently used entry a was evicted")
	}
	if localHit(b) {
		t.Fatal("least recently used entry b survived")
	}
}
