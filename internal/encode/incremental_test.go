package encode

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/sat"
)

// encoderPair runs the SAP narrowing loop on both the destructive and the
// incremental variant of an encoder family and checks that every bound gets
// the same verdict and that Sat models decode to valid partitions.
func runNarrowingPair(t *testing.T, m *bitmat.Matrix, mk func(incremental bool) Encoder) {
	t.Helper()
	dest := mk(false)
	inc := mk(true)
	for {
		sd := dest.Solve()
		si := inc.Solve()
		if sd != si {
			t.Fatalf("bound %d: destructive %v vs incremental %v for\n%s", dest.Bound(), sd, si, m)
		}
		if sd != sat.Sat {
			return
		}
		if _, err := dest.ReadPartition(); err != nil {
			t.Fatalf("bound %d: destructive model invalid: %v", dest.Bound(), err)
		}
		if _, err := inc.ReadPartition(); err != nil {
			t.Fatalf("bound %d: incremental model invalid: %v", inc.Bound(), err)
		}
		if dest.Bound() == 0 {
			return
		}
		dest.Narrow()
		inc.Narrow()
		if dest.Bound() != inc.Bound() {
			t.Fatalf("bounds diverged: %d vs %d", dest.Bound(), inc.Bound())
		}
	}
}

func TestIncrementalOneHotMatchesDestructive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		m := bitmat.Random(rng, 3+rng.Intn(3), 3+rng.Intn(3), 0.5)
		if m.Ones() == 0 {
			continue
		}
		ub := m.TrivialUpperBound()
		runNarrowingPair(t, m, func(incremental bool) Encoder {
			if incremental {
				return NewOneHotIncremental(m, ub, AMOPairwise)
			}
			return NewOneHot(m, ub, AMOPairwise)
		})
	}
}

// TestIncrementalSolveAtUsesSelectors: probing an incremental formula at
// several bounds must match fresh formulas, and the probes must not damage
// the formula (assumptions are transient).
func TestIncrementalSolveAtUsesSelectors(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		m := bitmat.Random(rng, 4, 4, 0.5)
		if m.Ones() == 0 {
			continue
		}
		ub := m.TrivialUpperBound()
		probe := NewOneHotIncremental(m, ub, AMOPairwise)
		for b := ub; b >= 0; b-- {
			got := probe.SolveAt(b)
			want := NewOneHot(m, b, AMOPairwise).Solve()
			if got != want {
				t.Fatalf("b=%d: incremental probe %v vs fresh %v for\n%s", b, got, want, m)
			}
		}
		if got := probe.Solve(); got != sat.Sat {
			t.Fatalf("formula damaged by probing: %v", got)
		}
	}
}

// TestIncrementalNarrowToZero: narrowing an incremental encoder all the way
// to bound 0 on a nonzero matrix must end Unsat without mutating the
// formula into a permanently unsatisfiable state at higher bounds.
func TestIncrementalNarrowToZero(t *testing.T) {
	m := bitmat.MustParse("11\n11")
	e := NewOneHotIncremental(m, 2, AMOPairwise)
	if got := e.Solve(); got != sat.Sat {
		t.Fatalf("b=2: %v", got)
	}
	e.Narrow()
	if got := e.Solve(); got != sat.Sat {
		t.Fatalf("b=1 (full matrix is one rectangle): %v", got)
	}
	e.Narrow()
	if e.Bound() != 0 {
		t.Fatalf("bound = %d, want 0", e.Bound())
	}
	if got := e.Solve(); got != sat.Unsat {
		t.Fatalf("b=0 with entries: %v", got)
	}
	// The formula itself is still satisfiable at the built bound.
	if got := e.SolveAt(2); got != sat.Sat {
		t.Fatalf("formula poisoned by narrowing to zero: %v", got)
	}
}

// TestIncrementalReusesLearntClauses is the point of the exercise: after a
// full narrowing run the incremental solver must have accumulated learnt
// clauses in one solver instance (no re-encode), and the destructive and
// incremental paths agree on the final UNSAT bound.
func TestIncrementalReusesLearntClauses(t *testing.T) {
	// An 8×8 gap instance of depth 8, so b=7 is the UNSAT frontier. Its
	// greedy fooling set has 6 entries, so unlike Figure 1b (whose pinned
	// fooling set of 5 refutes b=4 without a conflict) the proof needs
	// search.
	m := bitmat.MustParse("10110101\n01101110\n11010011\n00111101\n11101010\n01011101\n10110110\n01101011")
	e := NewOneHotIncremental(m, 9, AMOPairwise)
	bounds := 0
	for {
		st := e.Solve()
		bounds++
		if st == sat.Unsat {
			break
		}
		if st != sat.Sat {
			t.Fatalf("bound %d: %v", e.Bound(), st)
		}
		e.Narrow()
	}
	if e.Bound() != 7 {
		t.Fatalf("UNSAT frontier at bound %d, want 7", e.Bound())
	}
	if bounds < 3 {
		t.Fatalf("expected ≥ 3 Solve calls on one solver, got %d", bounds)
	}
	if e.Solver().Conflicts == 0 {
		t.Fatal("expected conflicts accumulated across bounds")
	}
}
