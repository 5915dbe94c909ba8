package rect

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
)

// fig1b is the 6×6 example matrix from Figure 1b of the paper.
const fig1b = `101100
010011
101010
010101
111000
000111`

// fig1bPartition returns the 5-rectangle partition from Figure 1b / 2a:
// normal set basis {{0,2},{1},{3},{4},{5}} on the column side.
func fig1bPartition(m *bitmat.Matrix) *Partition {
	p := NewPartition(m)
	p.Add(FromIndices(6, 6, []int{0, 2, 4}, []int{0, 2}))
	p.Add(FromIndices(6, 6, []int{1, 3, 4}, []int{1}))
	p.Add(FromIndices(6, 6, []int{0, 3, 5}, []int{3}))
	p.Add(FromIndices(6, 6, []int{1, 2, 5}, []int{4}))
	p.Add(FromIndices(6, 6, []int{1, 3, 5}, []int{5}))
	return p
}

func TestFig1bPartitionValid(t *testing.T) {
	m := bitmat.MustParse(fig1b)
	p := fig1bPartition(m)
	if err := p.Validate(); err != nil {
		t.Fatalf("paper's Figure 1b partition invalid: %v", err)
	}
	if p.Depth() != 5 {
		t.Fatalf("depth = %d, want 5", p.Depth())
	}
}

func TestValidateDetectsNonMonochromatic(t *testing.T) {
	m := bitmat.MustParse("10\n01")
	p := NewPartition(m)
	p.Add(FromIndices(2, 2, []int{0, 1}, []int{0})) // (1,0) is 0
	err := p.Validate()
	if !errors.Is(err, ErrNotMonochromatic) {
		t.Fatalf("got %v, want ErrNotMonochromatic", err)
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	m := bitmat.MustParse("11\n11")
	p := NewPartition(m)
	p.Add(FromIndices(2, 2, []int{0, 1}, []int{0, 1}))
	p.Add(FromIndices(2, 2, []int{0}, []int{0}))
	err := p.Validate()
	if !errors.Is(err, ErrOverlap) {
		t.Fatalf("got %v, want ErrOverlap", err)
	}
}

func TestValidateDetectsUncovered(t *testing.T) {
	m := bitmat.MustParse("11\n00")
	p := NewPartition(m)
	p.Add(FromIndices(2, 2, []int{0}, []int{0}))
	err := p.Validate()
	if !errors.Is(err, ErrUncovered) {
		t.Fatalf("got %v, want ErrUncovered", err)
	}
}

func TestValidateDetectsEmptyRect(t *testing.T) {
	m := bitmat.MustParse("1")
	p := NewPartition(m)
	p.Add(NewRect(1, 1))
	p.Add(FromIndices(1, 1, []int{0}, []int{0}))
	err := p.Validate()
	if !errors.Is(err, ErrEmptyRect) {
		t.Fatalf("got %v, want ErrEmptyRect", err)
	}
}

func TestValidateDetectsDimensionMismatch(t *testing.T) {
	m := bitmat.MustParse("11")
	p := NewPartition(m)
	p.Add(FromIndices(2, 2, []int{0}, []int{0}))
	err := p.Validate()
	if !errors.Is(err, ErrDimension) {
		t.Fatalf("got %v, want ErrDimension", err)
	}
}

func TestValidateEmptyPartitionOfZeroMatrix(t *testing.T) {
	p := NewPartition(bitmat.New(3, 3))
	if err := p.Validate(); err != nil {
		t.Fatalf("empty partition of zero matrix must be valid: %v", err)
	}
}

func TestFactorsReconstruct(t *testing.T) {
	m := bitmat.MustParse(fig1b)
	p := fig1bPartition(m)
	h, w := p.Factors()
	if h.Rows() != 6 || h.Cols() != 5 || w.Rows() != 5 || w.Cols() != 6 {
		t.Fatalf("factor dims H=%d×%d W=%d×%d", h.Rows(), h.Cols(), w.Rows(), w.Cols())
	}
	// Verify M = H·W over the integers (every product entry 0 or 1 and
	// equal to M).
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			sum := 0
			for k := 0; k < h.Cols(); k++ {
				if h.Get(i, k) && w.Get(k, j) {
					sum++
				}
			}
			want := 0
			if m.Get(i, j) {
				want = 1
			}
			if sum != want {
				t.Fatalf("(H·W)[%d][%d] = %d, want %d", i, j, sum, want)
			}
		}
	}
	// Round trip through FromFactors.
	back := FromFactors(m, h, w)
	if err := back.Validate(); err != nil {
		t.Fatalf("FromFactors partition invalid: %v", err)
	}
	if back.Depth() != p.Depth() {
		t.Fatalf("depth changed: %d vs %d", back.Depth(), p.Depth())
	}
}

func TestAssignmentCoversAllOnes(t *testing.T) {
	m := bitmat.MustParse(fig1b)
	p := fig1bPartition(m)
	asg := p.Assignment()
	if len(asg) != m.Ones() {
		t.Fatalf("assignment size %d, want %d", len(asg), m.Ones())
	}
	for pos, k := range asg {
		if k < 0 || k >= p.Depth() {
			t.Fatalf("entry %v assigned to invalid rectangle %d", pos, k)
		}
		if !p.Rects[k].Contains(pos[0], pos[1]) {
			t.Fatalf("rectangle %d does not contain %v", k, pos)
		}
	}
}

func TestLiftThroughCompression(t *testing.T) {
	// A matrix with duplicate rows and columns; partition the reduction and
	// lift back.
	m := bitmat.MustParse("1100\n1100\n0011")
	c := bitmat.Compress(m)
	// The reduction is 2×2 identity-like; partition with singleton rects.
	p := NewPartition(c.Reduced)
	for i := 0; i < c.Reduced.Rows(); i++ {
		row := c.Reduced.Row(i)
		r := NewRect(c.Reduced.Rows(), c.Reduced.Cols())
		r.Rows.Set(i, true)
		row.ForEachOne(func(j int) { r.Cols.Set(j, true) })
		p.Add(r)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("reduced partition invalid: %v", err)
	}
	lifted := Lift(c, m, p)
	if err := lifted.Validate(); err != nil {
		t.Fatalf("lifted partition invalid: %v", err)
	}
	if lifted.Depth() != p.Depth() {
		t.Fatalf("lift changed depth %d → %d", p.Depth(), lifted.Depth())
	}
}

func TestTensorPartitions(t *testing.T) {
	a := bitmat.MustParse("10\n11")
	b := bitmat.AllOnes(2, 2)
	pa := NewPartition(a)
	pa.Add(FromIndices(2, 2, []int{0, 1}, []int{0}))
	pa.Add(FromIndices(2, 2, []int{1}, []int{1}))
	if err := pa.Validate(); err != nil {
		t.Fatal(err)
	}
	pb := NewPartition(b)
	pb.Add(FromIndices(2, 2, []int{0, 1}, []int{0, 1}))
	if err := pb.Validate(); err != nil {
		t.Fatal(err)
	}
	tp := TensorPartitions(pa, pb)
	if err := tp.Validate(); err != nil {
		t.Fatalf("tensor partition invalid: %v", err)
	}
	if tp.Depth() != pa.Depth()*pb.Depth() {
		t.Fatalf("tensor depth = %d, want %d", tp.Depth(), pa.Depth()*pb.Depth())
	}
}

// Property: the sum of rectangle sizes of a valid partition equals the
// number of 1s (disjointness + exact cover).
func TestQuickPartitionSizesSumToOnes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, p := randomValidPartition(rng, 3+rng.Intn(5), 3+rng.Intn(5))
		if err := p.Validate(); err != nil {
			return false
		}
		total := 0
		for _, r := range p.Rects {
			total += r.Size()
		}
		return total == m.Ones()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Factors round-trips depth and validity.
func TestQuickFactorsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, p := randomValidPartition(rng, 2+rng.Intn(6), 2+rng.Intn(6))
		h, w := p.Factors()
		back := FromFactors(m, h, w)
		return back.Validate() == nil && back.Depth() == p.Depth()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerIndicesAgreeWithValidate drives the shared validation kernel
// through both doors — bitset rectangles (Validate) and index lists
// (Checker.AddIndices) — on valid and broken partitions of Fig. 1b: both
// must report the same first error, message included.
func TestCheckerIndicesAgreeWithValidate(t *testing.T) {
	m := bitmat.MustParse(fig1b)
	good := fig1bPartition(m)
	cases := map[string]*Partition{"valid": good}
	overlap := good.Clone()
	overlap.Add(overlap.Rects[0].Clone())
	cases["overlap"] = overlap
	zero := good.Clone()
	zero.Rects[1] = FromIndices(6, 6, []int{1, 3, 4}, []int{1, 2})
	cases["covers a 0"] = zero
	empty := good.Clone()
	empty.Rects[2] = FromIndices(6, 6, nil, []int{3})
	cases["empty"] = empty
	cases["uncovered"] = &Partition{M: m, Rects: good.Clone().Rects[:4]}
	for name, p := range cases {
		want := p.Validate()
		c := NewChecker(m)
		var got error
		for _, r := range p.Rects {
			if got = c.AddIndices(r.RowIndices(), r.ColIndices()); got != nil {
				break
			}
		}
		if got == nil {
			got = c.Done()
		}
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Errorf("%s: AddIndices says %v, Validate says %v", name, got, want)
		}
		if name != "valid" && want == nil {
			t.Errorf("%s: Validate accepted a broken partition", name)
		}
	}
}
