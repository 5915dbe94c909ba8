package rowpack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
	"repro/internal/rect"
)

// fig3 is the 5×5 matrix of Figure 3 in the paper: the identity row order
// needs 5 rectangles, but a better order finds 4 (its binary rank, which
// equals its rational rank 4).
const fig3 = `11000
00110
01100
10011
11111`

func TestTrivialValidAndMatchesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		m := bitmat.Random(rng, 1+rng.Intn(10), 1+rng.Intn(10), rng.Float64())
		p := Trivial(m)
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid trivial partition: %v\n%s", err, m)
		}
		if p.Depth() != m.TrivialUpperBound() {
			t.Fatalf("trivial depth %d != bound %d for\n%s", p.Depth(), m.TrivialUpperBound(), m)
		}
	}
}

func TestTrivialConsolidatesDuplicates(t *testing.T) {
	m := bitmat.MustParse("101\n101\n101")
	p := Trivial(m)
	if p.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", p.Depth())
	}
}

func TestPackFig3IdentityOrderNeeds5(t *testing.T) {
	m := bitmat.MustParse(fig3)
	p := Pack(m, Options{Trials: 1, Order: OrderIdentity, SkipTranspose: true})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 5 {
		t.Fatalf("identity order depth = %d, want 5 (Figure 3a)", p.Depth())
	}
}

func TestPackFig3ShuffleFinds4(t *testing.T) {
	m := bitmat.MustParse(fig3)
	if m.Rank() != 4 {
		t.Fatalf("rank = %d, want 4", m.Rank())
	}
	p := Pack(m, Options{Trials: 200, Seed: 7, Order: OrderShuffle})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 4 {
		t.Fatalf("best depth = %d, want 4 (Figure 3b)", p.Depth())
	}
}

func TestPackAllOnes(t *testing.T) {
	p := Pack(bitmat.AllOnes(6, 9), Options{Trials: 1, Order: OrderIdentity})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 1 {
		t.Fatalf("all-ones depth = %d, want 1", p.Depth())
	}
}

func TestPackZeroMatrix(t *testing.T) {
	p := Pack(bitmat.New(4, 4), DefaultOptions())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 0 {
		t.Fatalf("zero matrix depth = %d, want 0", p.Depth())
	}
}

func TestPackIdentityMatrix(t *testing.T) {
	p := Pack(bitmat.Identity(7), Options{Trials: 3, Seed: 1})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 7 {
		t.Fatalf("identity depth = %d, want 7", p.Depth())
	}
}

func TestPackNeverWorseThanTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		m := bitmat.Random(rng, 2+rng.Intn(9), 2+rng.Intn(9), 0.2+0.6*rng.Float64())
		p := Pack(m, Options{Trials: 1, Seed: int64(trial)})
		if p.Depth() > Trivial(m).Depth() {
			t.Fatalf("pack %d worse than trivial %d for\n%s", p.Depth(), Trivial(m).Depth(), m)
		}
	}
}

func TestPackRespectsRankLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		m := bitmat.Random(rng, 2+rng.Intn(8), 2+rng.Intn(8), 0.3+0.5*rng.Float64())
		p := Pack(m, Options{Trials: 10, Seed: int64(trial)})
		if p.Depth() < m.Rank() {
			t.Fatalf("pack depth %d below rank %d — invalid partition?\n%s", p.Depth(), m.Rank(), m)
		}
	}
}

func TestPackDuplicateRowsShareRectangles(t *testing.T) {
	m := bitmat.MustParse("1100\n1100\n0011\n0011")
	p := Pack(m, Options{Trials: 1, Order: OrderIdentity, SkipTranspose: true})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", p.Depth())
	}
}

func TestVariantsAllValid(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	variants := []Options{
		{Trials: 5, Seed: 3},
		{Trials: 5, Seed: 3, DisableBasisUpdate: true},
		{Trials: 1, Order: OrderSortedAsc},
		{Trials: 5, Seed: 3, SkipTranspose: true},
	}
	for trial := 0; trial < 15; trial++ {
		m := bitmat.Random(rng, 2+rng.Intn(8), 2+rng.Intn(8), 0.2+0.6*rng.Float64())
		for vi, opt := range variants {
			p := Pack(m, opt)
			if err := p.Validate(); err != nil {
				t.Fatalf("variant %d invalid: %v\n%s", vi, err, m)
			}
		}
	}
}

func TestBasisUpdateHelps(t *testing.T) {
	// On the gap-style matrices the basis update is what allows later rows
	// to pack; statistically, with update must be ≤ without update on
	// average. We check it is never invalid and track that at least one
	// instance strictly improves.
	rng := rand.New(rand.NewSource(5))
	improved := false
	for trial := 0; trial < 60; trial++ {
		m := bitmat.Random(rng, 6, 6, 0.5)
		with := Pack(m, Options{Trials: 5, Seed: int64(trial)})
		without := Pack(m, Options{Trials: 5, Seed: int64(trial), DisableBasisUpdate: true})
		if with.Depth() < without.Depth() {
			improved = true
		}
	}
	if !improved {
		t.Log("note: basis update never strictly improved on this sample (unexpected but not fatal)")
	}
}

// Property: Pack always returns a valid partition with depth between
// rank(M) and TrivialUpperBound(M).
func TestQuickPackValidAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 1+rng.Intn(9), 1+rng.Intn(9), rng.Float64())
		p := Pack(m, Options{Trials: 3, Seed: seed})
		if p.Validate() != nil {
			return false
		}
		return p.Depth() >= m.Rank() && p.Depth() <= m.TrivialUpperBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: packing the transpose gives the same best depth (Pack already
// tries both orientations).
func TestQuickPackTransposeConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 1+rng.Intn(7), 1+rng.Intn(7), rng.Float64())
		a := Pack(m, Options{Trials: 5, Seed: seed})
		b := Pack(m.Transpose(), Options{Trials: 5, Seed: seed})
		return b.Validate() == nil && a.Validate() == nil &&
			abs(a.Depth()-b.Depth()) <= 1 // heuristic jitter tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Property: known-optimal construction (paper benchmark set 2): disjoint
// rows × independent columns ⇒ Pack finds exactly k rectangles.
func TestQuickPackOnKnownOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		m, ok := knownOptimal(rng, 8, 8, k)
		if !ok {
			return true // construction failed for this seed; skip
		}
		p := Pack(m, Options{Trials: 10, Seed: seed})
		return p.Validate() == nil && p.Depth() == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// knownOptimal builds M = Σ cᵢ·rᵢ with pairwise disjoint rows rᵢ and
// linearly independent column indicators cᵢ, so r_B(M) = rank(M) = k.
func knownOptimal(rng *rand.Rand, rows, cols, k int) (*bitmat.Matrix, bool) {
	colParts := disjointNonempty(rng, cols, k)
	if colParts == nil {
		return nil, false
	}
	m := bitmat.New(rows, cols)
	var rowSets []bitmat.Vec
	for i := 0; i < k; i++ {
		v := bitmat.RandomNonzeroVec(rng, rows, 0.5)
		rowSets = append(rowSets, v)
	}
	for i := 0; i < k; i++ {
		rowSets[i].ForEachOne(func(r int) {
			for _, c := range colParts[i] {
				m.Set(r, c, true)
			}
		})
	}
	if m.Rank() != k {
		return nil, false
	}
	_ = rect.Rect{}
	return m, true
}

// disjointNonempty splits [0,n) into k disjoint nonempty parts.
func disjointNonempty(rng *rand.Rand, n, k int) [][]int {
	if k > n {
		return nil
	}
	perm := rng.Perm(n)
	parts := make([][]int, k)
	for i := 0; i < k; i++ {
		parts[i] = []int{perm[i]}
	}
	for _, x := range perm[k:] {
		i := rng.Intn(k)
		parts[i] = append(parts[i], x)
	}
	return parts
}
