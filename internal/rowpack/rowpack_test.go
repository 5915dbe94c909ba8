package rowpack

import (
	"math/rand"
	"runtime/debug"
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

// raceEnabled is set by race_test.go; the race detector's instrumentation
// is not what the allocation pins measure, so they skip under it.
var raceEnabled bool

// TestPackAllocs pins Pack's allocations on Fig. 1b, where the fooling
// bound (5) beats rank (4), so core's PackDownTo runs every trial: a trial
// packs into its orientation's reused buffer, so the count does not grow
// with the number of trials (the clone-per-trial packer made 102, 534 and
// 4 854).
func TestPackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without the race detector")
	}
	// Trivial's Compress draws on bitmat's pooled scratch, which a
	// collection mid-measurement would empty, so GC is off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	for _, tc := range []struct {
		trials int
		allocs float64
	}{{1, 23}, {10, 23}, {100, 23}} {
		opts := Options{Trials: tc.trials, Seed: 1}
		if got := testing.AllocsPerRun(20, func() { Pack(m, opts) }); got != tc.allocs {
			t.Errorf("Pack(Trials %d): %v allocs per run, want %v", tc.trials, got, tc.allocs)
		}
	}
}

// The oracle is the clone-per-trial packer that the buffered one replaced,
// kept as a test-only reference: every trial clones its rows and allocates
// its own rectangles, every transposed trial is copied out, and Trivial
// groups rows by string keys. No buffer is shared between trials, so a
// later trial can never overwrite the winner's vectors here.

func oracleTrivial(m *bitmat.Matrix) *rect.Partition {
	rowP := oracleTrivialRows(m)
	colP := oracleTrivialCols(m)
	if colP.Depth() < rowP.Depth() {
		return colP
	}
	return rowP
}

func oracleTrivialRows(m *bitmat.Matrix) *rect.Partition {
	p := rect.NewPartition(m)
	groups := map[string]int{} // row pattern -> rect index
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		if row.IsZero() {
			continue
		}
		k := row.Key()
		if idx, ok := groups[k]; ok {
			p.Rects[idx].Rows.Set(i, true)
			continue
		}
		r := rect.NewRect(m.Rows(), m.Cols())
		r.Rows.Set(i, true)
		r.Cols.Or(row)
		groups[k] = len(p.Rects)
		p.Add(r)
	}
	return p
}

func oracleTrivialCols(m *bitmat.Matrix) *rect.Partition {
	tp := oracleTrivialRows(m.Transpose())
	p := rect.NewPartition(m)
	for _, r := range tp.Rects {
		p.Add(rect.Rect{Rows: r.Cols, Cols: r.Rows})
	}
	return p
}

func oraclePackDownTo(m *bitmat.Matrix, opts Options, lb int) *rect.Partition {
	if opts.Trials < 1 {
		opts.Trials = 1
	}
	best := oracleTrivial(m)
	if best.Depth() <= lb {
		return best
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	run := func(target *bitmat.Matrix, transposed bool) {
		perm := oracleOrderFor(rng, target, opts)
		p := oraclePackOnce(target, perm, opts)
		if transposed {
			p = oracleTransposePartition(m, p)
		}
		if p.Depth() < best.Depth() {
			best = p
		}
	}

	var mt *bitmat.Matrix
	for trial := 0; trial < opts.Trials && best.Depth() > lb; trial++ {
		run(m, false)
		if !opts.SkipTranspose && best.Depth() > lb {
			if mt == nil {
				mt = m.Transpose()
			}
			run(mt, true)
		}
		if opts.Order != OrderShuffle {
			break
		}
	}
	return best
}

func oracleOrderFor(rng *rand.Rand, m *bitmat.Matrix, opts Options) []int {
	n := m.Rows()
	switch opts.Order {
	case OrderIdentity:
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return perm
	case OrderSortedAsc:
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && m.RowOnes(perm[j]) < m.RowOnes(perm[j-1]); j-- {
				perm[j], perm[j-1] = perm[j-1], perm[j]
			}
		}
		return perm
	default:
		return rng.Perm(n)
	}
}

func oraclePackOnce(m *bitmat.Matrix, perm []int, opts Options) *rect.Partition {
	p := rect.NewPartition(m)
	var basis []bitmat.Vec // basis[k] is also p.Rects[k].Cols

	for _, i := range perm {
		ri := m.Row(i).Clone()
		if ri.IsZero() {
			continue
		}
		for j, vj := range basis {
			if vj.IsZero() || !vj.SubsetOf(ri) {
				continue
			}
			p.Rects[j].Rows.Set(i, true)
			ri.AndNot(vj)
			if ri.IsZero() {
				break
			}
		}
		if ri.IsZero() {
			continue
		}
		newRows := bitmat.NewVec(m.Rows())
		newRows.Set(i, true)
		if !opts.DisableBasisUpdate {
			for k := range basis {
				vk := basis[k]
				if vk.IsZero() || !ri.SubsetOf(vk) {
					continue
				}
				vk.AndNot(ri)
				newRows.Or(p.Rects[k].Rows)
			}
		}
		basis = append(basis, ri)
		p.Add(rect.Rect{Rows: newRows, Cols: ri})
	}
	return p
}

func oracleTransposePartition(m *bitmat.Matrix, tp *rect.Partition) *rect.Partition {
	p := rect.NewPartition(m)
	for _, r := range tp.Rects {
		p.Add(rect.Rect{Rows: r.Cols, Cols: r.Rows})
	}
	return p
}

// samePartition reports whether a and b partition the same matrix with
// identical rectangles in identical order.
func samePartition(a, b *rect.Partition) bool {
	if a.M != b.M || len(a.Rects) != len(b.Rects) {
		return false
	}
	for k := range a.Rects {
		if !a.Rects[k].Rows.Equal(b.Rects[k].Rows) || !a.Rects[k].Cols.Equal(b.Rects[k].Cols) {
			return false
		}
	}
	return true
}

// oracleMatrices returns the differential tests' inputs: seeded random
// matrices up to 12×12 at every density, then Fig. 1b and the shapes that
// take the kernels' edge paths — zero rows and columns, duplicate rows,
// single rows and single columns.
func oracleMatrices(n int) []*bitmat.Matrix {
	rng := rand.New(rand.NewSource(20261019))
	var out []*bitmat.Matrix
	for len(out) < n {
		out = append(out, bitmat.Random(rng, 1+rng.Intn(12), 1+rng.Intn(12), rng.Float64()))
	}
	for _, s := range []string{
		"101100\n010011\n101010\n010101\n111000\n000111", // Fig. 1b
		"000000\n010011\n000000\n010101\n000000",         // zero rows and columns
		"1011\n1011\n0110\n1011\n0110\n1101",             // duplicate rows
		"0", "1", "1011011101", "0000000000",
		"1\n0\n1\n1\n0\n1\n1\n1", "0\n0\n0",
	} {
		out = append(out, bitmat.MustParse(s))
	}
	return out
}

// TestPackMatchesOracle: the buffered packer returns the oracle's
// rectangles in the oracle's order at lb 0 and lb = rank, with one and 100
// trials and both transpose settings, on every oracle matrix; the other
// row orders and the basis-update ablation ride along on a subset.
func TestPackMatchesOracle(t *testing.T) {
	ms := oracleMatrices(2000)
	for idx, m := range ms {
		if got, want := Trivial(m), oracleTrivial(m); !samePartition(got, want) {
			t.Fatalf("matrix %d: Trivial = %sOracle = %s%s", idx, got, want, m)
		}
		for _, lb := range []int{0, m.Rank()} {
			for _, trials := range []int{1, 100} {
				for _, skip := range []bool{false, true} {
					opts := Options{Trials: trials, Seed: int64(idx), SkipTranspose: skip}
					if got, want := PackDownTo(m, opts, lb), oraclePackDownTo(m, opts, lb); !samePartition(got, want) {
						t.Fatalf("matrix %d, lb %d, %+v: PackDownTo = %sOracle = %s%s", idx, lb, opts, got, want, m)
					}
				}
			}
		}
		if idx%10 != 0 {
			continue
		}
		for _, opts := range []Options{
			{Trials: 5, Seed: 3, Order: OrderIdentity},
			{Trials: 5, Seed: 3, Order: OrderSortedAsc},
			{Trials: 20, Seed: 3, DisableBasisUpdate: true},
		} {
			if got, want := Pack(m, opts), oraclePackDownTo(m, opts, 0); !samePartition(got, want) {
				t.Fatalf("matrix %d, %+v: Pack = %sOracle = %s%s", idx, opts, got, want, m)
			}
		}
	}
}
