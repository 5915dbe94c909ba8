package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
)

// raceEnabled is set by race_test.go: sync.Pool drops items at random under
// the race detector, so allocation pins skip there.
var raceEnabled bool

// TestSolveAllocs pins the cold path's allocations on one block each way:
// Fig. 1b, where the fooling bound beats rank so packing runs every trial,
// and a random 10×10 pattern that the rank bound certifies, where packing
// stops as soon as it reaches rank. Packing trials, fooling search nodes
// and rank's elimination entries allocate nothing of their own (a clone per
// trial, per node and per entry made 4 956 and 604), so a regrown pack,
// search or rank loop fails here.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// A collection mid-measurement empties bitmat's scratch pool and
	// charges its refill to the solve, so the count is taken with GC off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := DefaultOptions()
	opts.Parallelism = 1
	for _, tc := range []struct {
		name   string
		m      *bitmat.Matrix
		cert   Certificate
		allocs float64
	}{
		{"fig1b", bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111"), CertFooling, 130},
		{"random10", benchgen.Random(rand.New(rand.NewSource(1)), 10, 10, 0.3), CertRank, 210},
	} {
		res, err := Solve(tc.m, opts)
		if err != nil || !res.Optimal || res.Certificate != tc.cert {
			t.Fatalf("%s: optimal %v certificate %v (%v), want %v", tc.name, res.Optimal, res.Certificate, err, tc.cert)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := Solve(tc.m, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: depth %d, %v allocs per solve", tc.name, res.Depth, got)
		if got != tc.allocs {
			t.Errorf("Solve(%s): %v allocs per run, want %v", tc.name, got, tc.allocs)
		}
	}
}
