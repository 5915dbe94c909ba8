// Package rect defines combinatorial rectangles and rectangle partitions of
// binary matrices — the objects an exact binary matrix factorization (EBMF)
// produces. A rectangle is a set X'×Y' of rows and columns; a partition is a
// family of rectangles whose union covers every 1 of the matrix exactly once
// and touches no 0 (the "depth" of the rectangular addressing schedule is the
// partition size).
package rect

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitmat"
)

// Rect is a combinatorial rectangle: the product of a set of rows and a set
// of columns. Both sets are stored as bit vectors over the dimensions of the
// matrix being partitioned.
type Rect struct {
	// Rows has bit i set if row i belongs to the rectangle.
	Rows bitmat.Vec
	// Cols has bit j set if column j belongs to the rectangle.
	Cols bitmat.Vec
}

// Indices is a rectangle as sorted row and column index lists. It is the one
// index-list form in which partitions cross the cache tiers and the wire:
// solvecache.RectIndices and wire.RectJSON are aliases of it, and its JSON
// form is the wire's {"rows":[…],"cols":[…]}.
type Indices struct {
	Rows []int `json:"rows"`
	Cols []int `json:"cols"`
}

// NewRect returns an empty rectangle for an m×n matrix.
func NewRect(m, n int) Rect {
	return Rect{Rows: bitmat.NewVec(m), Cols: bitmat.NewVec(n)}
}

// FromIndices builds a rectangle from explicit row and column index lists
// for an m×n matrix.
func FromIndices(m, n int, rows, cols []int) Rect {
	r := NewRect(m, n)
	for _, i := range rows {
		r.Rows.Set(i, true)
	}
	for _, j := range cols {
		r.Cols.Set(j, true)
	}
	return r
}

// Clone returns an independent copy of the rectangle.
func (r Rect) Clone() Rect {
	return Rect{Rows: r.Rows.Clone(), Cols: r.Cols.Clone()}
}

// Size returns the number of matrix entries the rectangle covers
// (|rows|·|cols|).
func (r Rect) Size() int { return r.Rows.Ones() * r.Cols.Ones() }

// IsEmpty reports whether the rectangle covers no entries.
func (r Rect) IsEmpty() bool { return r.Rows.IsZero() || r.Cols.IsZero() }

// Contains reports whether entry (i, j) lies in the rectangle.
func (r Rect) Contains(i, j int) bool { return r.Rows.Get(i) && r.Cols.Get(j) }

// Overlaps reports whether two rectangles share at least one entry.
func (r Rect) Overlaps(o Rect) bool {
	return r.Rows.Intersects(o.Rows) && r.Cols.Intersects(o.Cols)
}

// CoveredOnly1s reports whether every entry of the rectangle is a 1 of m,
// i.e. the rectangle is 1-monochromatic.
func (r Rect) CoveredOnly1s(m *bitmat.Matrix) bool {
	ok := true
	r.Rows.ForEachOne(func(i int) {
		if !ok {
			return
		}
		if !r.Cols.SubsetOf(m.Row(i)) {
			ok = false
		}
	})
	return ok
}

// ToMatrix renders the rectangle as an m×n 0/1 matrix (the rank-1 term P_i of
// the factorization).
func (r Rect) ToMatrix() *bitmat.Matrix {
	m := bitmat.New(r.Rows.Len(), r.Cols.Len())
	r.Rows.ForEachOne(func(i int) {
		r.Cols.ForEachOne(func(j int) {
			m.Set(i, j, true)
		})
	})
	return m
}

// RowIndices returns the sorted row indices of the rectangle.
func (r Rect) RowIndices() []int { return r.Rows.OnesPositions() }

// ColIndices returns the sorted column indices of the rectangle.
func (r Rect) ColIndices() []int { return r.Cols.OnesPositions() }

// String renders the rectangle as "{rows}×{cols}".
func (r Rect) String() string {
	return fmt.Sprintf("{%s}×{%s}", joinInts(r.RowIndices()), joinInts(r.ColIndices()))
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// Canonical returns a canonical string key for the rectangle (for dedup and
// deterministic ordering in tests).
func (r Rect) Canonical() string {
	return r.Rows.Key() + "|" + r.Cols.Key()
}

// SortRects orders rectangles deterministically: by first row, then first
// column, then canonical key. It sorts in place and returns its argument.
func SortRects(rs []Rect) []Rect {
	sort.Slice(rs, func(a, b int) bool {
		ra, rb := rs[a], rs[b]
		fa, fb := ra.Rows.NextOne(0), rb.Rows.NextOne(0)
		if fa != fb {
			return fa < fb
		}
		ca, cb := ra.Cols.NextOne(0), rb.Cols.NextOne(0)
		if ca != cb {
			return ca < cb
		}
		return ra.Canonical() < rb.Canonical()
	})
	return rs
}
