package bitmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRankIdentity(t *testing.T) {
	for n := 1; n <= 8; n++ {
		if got := Identity(n).Rank(); got != n {
			t.Errorf("rank(I_%d) = %d", n, got)
		}
	}
}

func TestRankAllOnes(t *testing.T) {
	if got := AllOnes(4, 7).Rank(); got != 1 {
		t.Fatalf("rank(J) = %d, want 1", got)
	}
}

func TestRankZero(t *testing.T) {
	if got := New(3, 5).Rank(); got != 0 {
		t.Fatalf("rank(0) = %d, want 0", got)
	}
	if got := New(0, 0).Rank(); got != 0 {
		t.Fatalf("rank(empty) = %d, want 0", got)
	}
}

func TestRankPaperEq2Matrix(t *testing.T) {
	// [[1,1,0],[0,1,1],[1,1,1]] has determinant 1, so full rational rank 3.
	m := MustParse("110\n011\n111")
	if got := m.Rank(); got != 3 {
		t.Fatalf("rank = %d, want 3", got)
	}
}

func TestRankGF2DiffersFromRational(t *testing.T) {
	// The 3×3 "triangle" matrix: rank 3 over ℚ but rank 2 over GF(2)
	// (rows sum to zero mod 2).
	m := MustParse("011\n101\n110")
	if got := m.Rank(); got != 3 {
		t.Fatalf("rational rank = %d, want 3", got)
	}
	if got := m.RankGF2(); got != 2 {
		t.Fatalf("GF2 rank = %d, want 2", got)
	}
}

func TestRankDuplicateRows(t *testing.T) {
	m := MustParse("101\n101\n010")
	if got := m.Rank(); got != 2 {
		t.Fatalf("rank = %d, want 2", got)
	}
}

func TestRankRectangular(t *testing.T) {
	// Rank cannot exceed the smaller dimension.
	rng := rand.New(rand.NewSource(3))
	m := Random(rng, 4, 30, 0.5)
	if got := m.Rank(); got > 4 {
		t.Fatalf("rank %d exceeds row count 4", got)
	}
}

func TestRankBareissMatchesNaive(t *testing.T) {
	// Compare Bareiss against a float-free rational elimination on small
	// matrices via brute force over all 3×3 binary matrices.
	for mask := 0; mask < 512; mask++ {
		m := New(3, 3)
		for b := 0; b < 9; b++ {
			if mask&(1<<b) != 0 {
				m.Set(b/3, b%3, true)
			}
		}
		want := naiveRankFloat(m)
		if got := m.rankBareiss(); got != want {
			t.Fatalf("mask %d: bareiss=%d naive=%d\n%s", mask, got, want, m)
		}
		if got := m.Rank(); got != want {
			t.Fatalf("mask %d: Rank=%d naive=%d", mask, got, want)
		}
	}
}

// naiveRankFloat computes rank with float Gaussian elimination; exact for
// tiny binary matrices.
func naiveRankFloat(m *Matrix) int {
	rows := m.Rows()
	cols := m.Cols()
	a := make([][]float64, rows)
	for i := range a {
		a[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			if m.Get(i, j) {
				a[i][j] = 1
			}
		}
	}
	rank := 0
	for c := 0; c < cols && rank < rows; c++ {
		p := -1
		for r := rank; r < rows; r++ {
			if a[r][c] > 0.5 || a[r][c] < -0.5 {
				p = r
				break
			}
		}
		if p < 0 {
			continue
		}
		a[rank], a[p] = a[p], a[rank]
		for r := 0; r < rows; r++ {
			if r == rank || a[r][c] == 0 {
				continue
			}
			f := a[r][c] / a[rank][c]
			for j := c; j < cols; j++ {
				a[r][j] -= f * a[rank][j]
			}
		}
		rank++
	}
	return rank
}

// rankBareiss computes the exact rational rank with Bareiss elimination
// over big.Int from the first step, the elimination Rank ran before its
// int64 steps: the reference the tests compare with.
func (m *Matrix) rankBareiss() int {
	e := m.newElim()
	return e.bigSteps()
}

// TestRankMatchesBareiss compares Rank with the big.Int elimination from
// the first step on shapes 1..100 at densities 0.01–0.9, and runs the
// int64 steps on dense squares from 40×40 up with a repeated row and
// column, where they must overflow and hand over to big.Int: the modular
// pass sees them rank-deficient, so Rank runs that hand-over too.
func TestRankMatchesBareiss(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	densities := []float64{0.01, 0.03, 0.1, 0.3, 0.5, 0.9}
	for n := 1; n <= 100; n++ {
		d := densities[n%len(densities)]
		m := Random(rng, n, 1+rng.Intn(100), d)
		if got, want := m.Rank(), m.rankBareiss(); got != want {
			t.Fatalf("%d×%d at %.2f: Rank %d, rankBareiss %d\n%s", m.Rows(), m.Cols(), d, got, want, m)
		}
	}
	for _, n := range []int{40, 50, 64} {
		m := Random(rng, n, n, 0.5)
		m.SetRow(n-1, m.Row(0))
		for i := 0; i < n; i++ {
			m.Set(i, n-1, m.Get(i, 1))
		}
		e := m.newElim()
		if e.int64Steps() {
			t.Fatalf("dense %d×%d: int64 steps finished without leaving ±2³¹", n, n)
		}
		got := e.bigSteps()
		want := m.rankBareiss()
		if got != want || m.Rank() != want {
			t.Fatalf("dense %d×%d: int64 then big.Int %d, Rank %d, rankBareiss %d", n, n, got, m.Rank(), want)
		}
		if m.rankMod() == n {
			t.Fatalf("dense %d×%d: modular rank is full, so Rank skips the hand-over", n, n)
		}
	}
}

func TestRankModLowerBoundsBareiss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		m := Random(rng, 2+rng.Intn(8), 2+rng.Intn(8), 0.2+0.6*rng.Float64())
		rp := m.rankMod()
		rb := m.rankBareiss()
		if rp > rb {
			t.Fatalf("modular rank %d > rational rank %d\n%s", rp, rb, m)
		}
		if rp != rb {
			// For random 0/1 matrices and a billion-scale prime a strict gap
			// is essentially impossible; flag it so we notice.
			t.Logf("note: modular %d < rational %d (possible but rare)", rp, rb)
		}
	}
}

func TestTrivialUpperBound(t *testing.T) {
	// Duplicated rows collapse: 4 rows, 2 distinct.
	m := MustParse("110\n110\n001\n001")
	if got := m.TrivialUpperBound(); got != 2 {
		t.Fatalf("trivial bound = %d, want 2", got)
	}
	// All-ones 5×3: one distinct row, one distinct column → bound 1.
	if got := AllOnes(5, 3).TrivialUpperBound(); got != 1 {
		t.Fatalf("trivial bound(J) = %d, want 1", got)
	}
	if got := New(3, 3).TrivialUpperBound(); got != 0 {
		t.Fatalf("trivial bound(0) = %d, want 0", got)
	}
}

// Property: rank is invariant under transposition.
func TestQuickRankTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(rng, 1+rng.Intn(8), 1+rng.Intn(8), rng.Float64())
		return m.Rank() == m.Transpose().Rank()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank ≤ TrivialUpperBound ≤ min(m, n); rank ≥ 0.
func TestQuickRankBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(rng, 1+rng.Intn(9), 1+rng.Intn(9), rng.Float64())
		r := m.Rank()
		ub := m.TrivialUpperBound()
		minDim := m.Rows()
		if m.Cols() < minDim {
			minDim = m.Cols()
		}
		return r >= 0 && r <= ub && ub <= minDim
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank is multiplicative under tensor product (Section V).
func TestQuickRankTensorMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 1+rng.Intn(4), 1+rng.Intn(4), 0.5)
		b := Random(rng, 1+rng.Intn(4), 1+rng.Intn(4), 0.5)
		return Tensor(a, b).Rank() == a.Rank()*b.Rank()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestModInverse(t *testing.T) {
	for _, a := range []uint64{1, 2, 3, 12345, rankPrime - 1} {
		inv := modInverse(a, rankPrime)
		if a*inv%rankPrime != 1 {
			t.Errorf("modInverse(%d) wrong", a)
		}
	}
}

// BenchmarkRank times Rank on a sparse 70×70 block below full rank (the
// modular pass, then int64 steps), and on dense 40×40 and 100×100 squares
// of full rank (the modular pass alone).
func BenchmarkRank(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		density float64
	}{{"sparse70", 70, 0.04}, {"dense40", 40, 0.5}, {"dense100", 100, 0.5}} {
		m := Random(rand.New(rand.NewSource(70)), c.n, c.n, c.density)
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				m.Rank()
			}
		})
	}
}
