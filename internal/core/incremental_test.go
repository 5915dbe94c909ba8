package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

// TestIncrementalAblationSameDepths: the selector-assumption SAP loop and
// the destructive re-constraining loop must find identical depths and
// certificates on random instances.
func TestIncrementalAblationSameDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		m := bitmat.Random(rng, 4+rng.Intn(3), 4+rng.Intn(3), 0.45)
		base := DefaultOptions()
		base.FoolingBudget = 0

		res1, err := Solve(m, base)
		if err != nil {
			t.Fatal(err)
		}
		dis := base
		dis.DisableIncremental = true
		res2, err := Solve(m, dis)
		if err != nil {
			t.Fatal(err)
		}
		if res1.Depth != res2.Depth || res1.Optimal != res2.Optimal {
			t.Fatalf("trial %d: incremental depth=%d opt=%v vs destructive depth=%d opt=%v for\n%s",
				trial, res1.Depth, res1.Optimal, res2.Depth, res2.Optimal, m)
		}
	}
}

// TestSolverKnobsDoNotChangeDepths: phase saving and inprocessing are
// heuristics; flipping them must not change results.
func TestSolverKnobsDoNotChangeDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 12; trial++ {
		m := bitmat.Random(rng, 5, 5, 0.5)
		ref, err := Solve(m, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			func() Options { o := DefaultOptions(); o.DisablePhaseSaving = true; return o }(),
			func() Options { o := DefaultOptions(); o.DisableInprocessing = true; return o }(),
		} {
			res, err := Solve(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Depth != ref.Depth || res.Optimal != ref.Optimal {
				t.Fatalf("trial %d: knob changed result: depth %d vs %d for\n%s", trial, res.Depth, ref.Depth, m)
			}
		}
	}
}

// TestCertifyAfterIncrementalSolve: the certification path (non-incremental
// by design: DRAT needs a monotone clause stream) must still certify depths
// produced by the incremental SAP loop.
func TestCertifyAfterIncrementalSolve(t *testing.T) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	res, err := Solve(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Depth != 5 {
		t.Fatalf("depth=%d optimal=%v, want 5/true", res.Depth, res.Optimal)
	}
	if err := CertifyDepth(m, res.Depth); err != nil {
		t.Fatalf("certify: %v", err)
	}
}
