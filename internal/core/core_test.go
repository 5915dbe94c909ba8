package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/rowpack"
)

func fastOptions() Options {
	o := DefaultOptions()
	o.Packing.Trials = 10
	o.FoolingBudget = 50_000
	return o
}

func TestSolveNil(t *testing.T) {
	if _, err := Solve(nil, fastOptions()); err != ErrNilMatrix {
		t.Fatalf("err = %v", err)
	}
}

func TestSolveZeroMatrix(t *testing.T) {
	res, err := Solve(bitmat.New(4, 5), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 0 || !res.Optimal {
		t.Fatalf("depth=%d optimal=%v", res.Depth, res.Optimal)
	}
}

func TestSolveFig1b(t *testing.T) {
	// The paper's running example: r_B = 5, proven by fooling set.
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	res, err := Solve(m, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 5 {
		t.Fatalf("depth = %d, want 5", res.Depth)
	}
	if !res.Optimal {
		t.Fatal("optimality not established")
	}
	if res.FoolingLB != 5 {
		t.Fatalf("fooling LB = %d, want 5", res.FoolingLB)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSolveEq2NeedsUnsatProof(t *testing.T) {
	// Eq. 2 matrix: rank 3 = r_B, so the rank bound certifies it.
	m := bitmat.MustParse("110\n011\n111")
	res, err := Solve(m, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 3 || !res.Optimal {
		t.Fatalf("depth=%d optimal=%v cert=%v", res.Depth, res.Optimal, res.Certificate)
	}
}

func TestSolveFig3(t *testing.T) {
	m := bitmat.MustParse("11000\n00110\n01100\n10011\n11111")
	res, err := Solve(m, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 4 || !res.Optimal {
		t.Fatalf("depth=%d optimal=%v", res.Depth, res.Optimal)
	}
}

func TestSolveGapMatrixNeedsUnsat(t *testing.T) {
	// A matrix whose binary rank strictly exceeds its rational rank:
	// the triangle matrix from the background section —
	// [[0,1,1],[1,0,1],[1,1,0]] has rank 3 and r_B 3... use a known gap
	// instance instead: the complement of identity I4 (rank 4, r_B 4)?
	// The simplest textbook gap family needs larger sizes; build one by the
	// paper's construction: r = r' + r'' split rows.
	m := bitmat.MustParse(`110000
101000
011000
000110
000101
000011`)
	// rows: pairs (r0=r1+r2 style): real rank < 6 here. Just assert SAP
	// terminates optimally and depth ≥ rank.
	res, err := Solve(m, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("should be decided exactly")
	}
	if res.Depth < res.RankLB {
		t.Fatalf("depth %d < rank %d", res.Depth, res.RankLB)
	}
}

func TestBinaryRankIdentity(t *testing.T) {
	for n := 1; n <= 5; n++ {
		r, err := BinaryRank(bitmat.Identity(n))
		if err != nil {
			t.Fatal(err)
		}
		if r != n {
			t.Fatalf("r_B(I_%d) = %d", n, r)
		}
	}
}

func TestBinaryRankAllOnes(t *testing.T) {
	r, err := BinaryRank(bitmat.AllOnes(5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("r_B(J) = %d, want 1", r)
	}
}

func TestSkipSATReturnsHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := bitmat.Random(rng, 8, 8, 0.5)
	opts := fastOptions()
	opts.SkipSAT = true
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SATCalls != 0 {
		t.Fatalf("SAT ran despite SkipSAT: %d calls", res.SATCalls)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSATEntriesSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := bitmat.Random(rng, 10, 10, 0.5)
	opts := fastOptions()
	opts.MaxSATEntries = 5 // far below the ~50 entries
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SATCalls != 0 {
		t.Fatal("SAT should have been skipped for large instance")
	}
}

func TestConflictBudgetInterrupts(t *testing.T) {
	// A moderately hard instance with a tiny conflict budget must return a
	// valid partition flagged TimedOut (unless the bound already certifies).
	rng := rand.New(rand.NewSource(11))
	var m *bitmat.Matrix
	for {
		m = bitmat.Random(rng, 9, 9, 0.45)
		if m.Rank() < rowpack.Pack(m, rowpack.Options{Trials: 2, Seed: 1}).Depth() {
			break
		}
	}
	opts := fastOptions()
	opts.Packing.Trials = 1
	opts.FoolingBudget = 0
	opts.ConflictBudget = 1
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut && !res.Optimal {
		t.Fatal("budget-limited run must be timed out or optimal")
	}
}

func TestTimeBudgetHonored(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := bitmat.Random(rng, 10, 10, 0.5)
	opts := fastOptions()
	opts.MaxSATEntries = 0
	opts.TimeBudget = time.Millisecond
	start := time.Now()
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("time budget ignored")
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionToggleAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		m := bitmat.Random(rng, 5, 5, 0.4)
		a, err := Solve(m, fastOptions())
		if err != nil {
			t.Fatal(err)
		}
		opts := fastOptions()
		opts.DisableCompression = true
		b, err := Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Optimal && b.Optimal && a.Depth != b.Depth {
			t.Fatalf("compression changed optimum: %d vs %d for\n%s", a.Depth, b.Depth, m)
		}
	}
}

func TestCertificateString(t *testing.T) {
	for c, want := range map[Certificate]string{
		CertNone: "none", CertRank: "rank", CertFooling: "fooling-set", CertUnsat: "unsat-proof",
	} {
		if c.String() != want {
			t.Fatalf("%d: %s", c, c.String())
		}
	}
}

// Property: SAP's result is always a valid partition with
// rank ≤ depth ≤ heuristic depth, and optimal results match BinaryRank on
// re-solve.
func TestQuickSAPInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 1+rng.Intn(6), 1+rng.Intn(6), rng.Float64())
		opts := fastOptions()
		opts.Packing.Trials = 3
		res, err := Solve(m, opts)
		if err != nil {
			return false
		}
		if res.Partition.Validate() != nil {
			return false
		}
		return res.Depth >= res.RankLB && res.Depth <= res.HeuristicDepth &&
			res.Depth >= res.FoolingLB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: binary rank is invariant under transposition (solve both ways).
func TestQuickBinaryRankTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 1+rng.Intn(5), 1+rng.Intn(5), 0.5)
		a, err1 := Solve(m, fastOptions())
		b, err2 := Solve(m.Transpose(), fastOptions())
		if err1 != nil || err2 != nil {
			return false
		}
		if !a.Optimal || !b.Optimal {
			return true // undecided instances don't have to agree
		}
		return a.Depth == b.Depth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the paper's known-optimal construction is solved at exactly k
// with a rank certificate (SAT stage unnecessary). The seeds are fixed, so a
// failure names a reproducible instance.
func TestQuickKnownOptimalSolvedByBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		m, _ := benchgen.KnownOptimal(rng, 7, 7, k)
		res, err := Solve(m, fastOptions())
		if err != nil {
			return false
		}
		return res.Optimal && res.Depth == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
