package rect

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bitmat"
)

// Partition is an ordered family of rectangles intended to partition the 1s
// of a specific matrix. Order matters operationally (it is the AOD pulse
// schedule) but not for validity.
type Partition struct {
	// M is the matrix being partitioned.
	M *bitmat.Matrix
	// Rects are the rectangles, one per addressing shot.
	Rects []Rect
}

// NewPartition returns an empty partition of m.
func NewPartition(m *bitmat.Matrix) *Partition {
	return &Partition{M: m}
}

// Depth returns the number of rectangles (the addressing depth).
func (p *Partition) Depth() int { return len(p.Rects) }

// Add appends a rectangle to the partition.
func (p *Partition) Add(r Rect) { p.Rects = append(p.Rects, r) }

// Clone returns a deep copy of the partition.
func (p *Partition) Clone() *Partition {
	c := &Partition{M: p.M, Rects: make([]Rect, len(p.Rects))}
	for i, r := range p.Rects {
		c.Rects[i] = r.Clone()
	}
	return c
}

// Validation failure modes.
var (
	// ErrNotMonochromatic marks a rectangle covering a 0 of the matrix.
	ErrNotMonochromatic = errors.New("rect: rectangle covers a 0 entry")
	// ErrOverlap marks two rectangles sharing an entry.
	ErrOverlap = errors.New("rect: rectangles overlap")
	// ErrUncovered marks a 1 of the matrix covered by no rectangle.
	ErrUncovered = errors.New("rect: a 1 entry is uncovered")
	// ErrEmptyRect marks a rectangle with an empty row or column set.
	ErrEmptyRect = errors.New("rect: empty rectangle")
	// ErrDimension marks a rectangle whose vectors do not match the matrix.
	ErrDimension = errors.New("rect: rectangle dimension mismatch")
)

// Validate checks that the partition is an exact binary matrix factorization
// of p.M: every rectangle is nonempty, 1-monochromatic, pairwise disjoint
// from the others, and together they cover every 1. It returns nil when
// valid, otherwise an error wrapping one of the Err* sentinels with details.
func (p *Partition) Validate() error {
	m := p.M
	c := NewChecker(m)
	for idx, r := range p.Rects {
		if r.Rows.Len() != m.Rows() || r.Cols.Len() != m.Cols() {
			return fmt.Errorf("rectangle %d is %d×%d-dimensional for a %d×%d matrix: %w",
				idx, r.Rows.Len(), r.Cols.Len(), m.Rows(), m.Cols(), ErrDimension)
		}
		c.n++
		if r.IsEmpty() {
			return fmt.Errorf("rectangle %d: %w", idx, ErrEmptyRect)
		}
		var fail error
		r.Rows.ForEachOne(func(i int) {
			if fail == nil {
				fail = c.row(i, r.Cols)
			}
		})
		if fail != nil {
			return fail
		}
	}
	return c.Done()
}

// Checker is the validation kernel behind Partition.Validate and the
// index-space lift of cached partitions: rectangles are checked one at a
// time against one cover matrix, without materializing them.
type Checker struct {
	m     *bitmat.Matrix
	cover *bitmat.Matrix
	mask  bitmat.Vec // column mask of the rectangle in AddIndices
	n     int        // rectangles checked so far
}

// NewChecker starts checking a partition of m.
func NewChecker(m *bitmat.Matrix) *Checker {
	return &Checker{m: m, cover: bitmat.New(m.Rows(), m.Cols())}
}

// AddIndices checks the next rectangle, given as row and column index
// lists, which must lie inside the matrix: nonempty, 1-monochromatic and
// disjoint from the rectangles before it. Rows are checked in list order.
func (c *Checker) AddIndices(rows, cols []int) error {
	c.n++
	if len(rows) == 0 || len(cols) == 0 {
		return fmt.Errorf("rectangle %d: %w", c.n-1, ErrEmptyRect)
	}
	if c.mask.Len() == 0 {
		c.mask = bitmat.NewVec(c.m.Cols())
	}
	for _, j := range cols {
		c.mask.Set(j, true)
	}
	var err error
	for _, i := range rows {
		if err = c.row(i, c.mask); err != nil {
			break
		}
	}
	for _, j := range cols {
		c.mask.Set(j, false)
	}
	return err
}

// row checks row i of the current rectangle, whose columns are cols, and
// marks it covered.
func (c *Checker) row(i int, cols bitmat.Vec) error {
	idx := c.n - 1
	row := c.m.Row(i)
	if !cols.SubsetOf(row) {
		conflict := cols.Clone()
		conflict.AndNot(row)
		return fmt.Errorf("rectangle %d covers 0 at (%d,%d): %w",
			idx, i, conflict.NextOne(0), ErrNotMonochromatic)
	}
	covRow := c.cover.Row(i)
	if cols.Intersects(covRow) {
		overlap := cols.Clone()
		overlap.And(covRow)
		return fmt.Errorf("rectangle %d overlaps earlier rectangle at (%d,%d): %w",
			idx, i, overlap.NextOne(0), ErrOverlap)
	}
	covRow.Or(cols)
	return nil
}

// Done reports whether the rectangles checked so far cover every 1 of the
// matrix.
func (c *Checker) Done() error {
	if c.cover.Equal(c.m) {
		return nil
	}
	// Locate one uncovered 1 for the error message.
	for i := 0; i < c.m.Rows(); i++ {
		missing := c.m.Row(i).Clone()
		missing.AndNot(c.cover.Row(i))
		if !missing.IsZero() {
			return fmt.Errorf("entry (%d,%d): %w", i, missing.NextOne(0), ErrUncovered)
		}
	}
	return nil
}

// Factors converts the partition into explicit EBMF factors H ∈ B^{m×r} and
// W ∈ B^{r×n} with M = H·W over ℝ: column i of H is the row indicator of
// rectangle i and row i of W its column indicator.
func (p *Partition) Factors() (h, w *bitmat.Matrix) {
	r := len(p.Rects)
	h = bitmat.New(p.M.Rows(), r)
	w = bitmat.New(r, p.M.Cols())
	for k, rec := range p.Rects {
		rec.Rows.ForEachOne(func(i int) { h.Set(i, k, true) })
		w.SetRow(k, rec.Cols)
	}
	return h, w
}

// FromFactors reconstructs a partition from EBMF factors: rectangle k is
// (column k of H) × (row k of W). The result is not validated.
func FromFactors(m, h, w *bitmat.Matrix) *Partition {
	if h.Cols() != w.Rows() {
		panic("rect: factor inner dimension mismatch")
	}
	p := NewPartition(m)
	ht := h.Transpose()
	for k := 0; k < h.Cols(); k++ {
		p.Add(Rect{Rows: ht.Row(k).Clone(), Cols: w.Row(k).Clone()})
	}
	return p
}

// Assignment returns, for every 1 entry of the matrix, the index of the
// rectangle covering it, as a map keyed by [2]int{row, col}. Valid only for
// validated partitions (later rectangles win on overlap).
func (p *Partition) Assignment() map[[2]int]int {
	out := make(map[[2]int]int)
	for k, r := range p.Rects {
		r.Rows.ForEachOne(func(i int) {
			r.Cols.ForEachOne(func(j int) {
				out[[2]int{i, j}] = k
			})
		})
	}
	return out
}

// String renders the partition as one rectangle per line.
func (p *Partition) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "partition of %d×%d matrix, depth %d\n", p.M.Rows(), p.M.Cols(), p.Depth())
	for i, r := range p.Rects {
		fmt.Fprintf(&sb, "  P%d = %s\n", i, r)
	}
	return sb.String()
}

// Canonicalize sorts the rectangles deterministically (useful for comparing
// partitions in tests) and returns the partition.
func (p *Partition) Canonicalize() *Partition {
	SortRects(p.Rects)
	return p
}

// Lift maps a partition of a compressed matrix back to a partition of the
// original matrix using the compression record: each reduced row/column index
// expands to its duplicate group.
func Lift(c *bitmat.Compression, orig *bitmat.Matrix, p *Partition) *Partition {
	out := NewPartition(orig)
	for _, r := range p.Rects {
		nr := NewRect(orig.Rows(), orig.Cols())
		r.Rows.ForEachOne(func(ri int) {
			for _, oi := range c.RowGroups[ri] {
				nr.Rows.Set(oi, true)
			}
		})
		r.Cols.ForEachOne(func(rj int) {
			for _, oj := range c.ColGroups[rj] {
				nr.Cols.Set(oj, true)
			}
		})
		out.Add(nr)
	}
	return out
}

// TensorPartitions combines partitions of Â and B into a partition of Â⊗B by
// taking all pairwise tensor products of rectangles (Section V upper-bound
// construction): depth(out) = depth(a)·depth(b).
func TensorPartitions(a, b *Partition) *Partition {
	tm := bitmat.Tensor(a.M, b.M)
	out := NewPartition(tm)
	br, bc := b.M.Rows(), b.M.Cols()
	for _, ra := range a.Rects {
		for _, rb := range b.Rects {
			nr := NewRect(tm.Rows(), tm.Cols())
			ra.Rows.ForEachOne(func(ai int) {
				rb.Rows.ForEachOne(func(bi int) {
					nr.Rows.Set(ai*br+bi, true)
				})
			})
			ra.Cols.ForEachOne(func(aj int) {
				rb.Cols.ForEachOne(func(bj int) {
					nr.Cols.Set(aj*bc+bj, true)
				})
			})
			out.Add(nr)
		}
	}
	return out
}
