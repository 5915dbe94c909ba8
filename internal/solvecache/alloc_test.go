package solvecache

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
)

// raceEnabled is set by race_test.go: sync.Pool drops items at random under
// the race detector, so allocation pins skip there.
var raceEnabled bool

// sparse80 is a sparse 80×80 pattern of proved depth 43, the deep end of the
// hit-path allocation pins (Fig. 1b is the shallow end, depth 5).
func sparse80() *bitmat.Matrix {
	return bitmat.Random(rand.New(rand.NewSource(1)), 80, 80, 0.015)
}

// TestLiftCanonicalAllocs pins the lift's allocations, which no longer grow
// with the depth: one index-space pass into one backing array, one cover
// matrix and column mask, and two bit matrices shared by all rectangles.
func TestLiftCanonicalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, tc := range []struct {
		name  string
		m     *bitmat.Matrix
		depth int
	}{{"fig1b", bitmat.MustParse(fig1b), 5}, {"sparse80", sparse80(), 43}} {
		fp := bitmat.ComputeFingerprint(tc.m)
		canon, err := core.Solve(fp.Canonical, core.DefaultOptions())
		if err != nil || !canon.Optimal || canon.Depth != tc.depth {
			t.Fatalf("%s: canonical solve depth %d optimal %v (%v), want depth %d", tc.name, canon.Depth, canon.Optimal, err, tc.depth)
		}
		rects := make([]RectIndices, 0, canon.Depth)
		for _, r := range canon.Partition.Rects {
			rects = append(rects, RectIndices{Rows: r.RowIndices(), Cols: r.ColIndices()})
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := LiftCanonical(fp, tc.m, rects); err != nil {
				t.Fatal(err)
			}
		})
		if got != 11 {
			t.Errorf("LiftCanonical(%s): %v allocs per run, want 11", tc.name, got)
		}
	}
}
