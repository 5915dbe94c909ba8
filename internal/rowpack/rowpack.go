// Package rowpack implements the paper's row-packing heuristic (Algorithm 2)
// for exact binary matrix factorization, the trivial row/column heuristic,
// and ablation variants (no basis update, popcount-sorted order).
//
// Row packing processes the matrix row by row, maintaining a basis of
// disjoint column patterns, one per rectangle. Each row is greedily
// decomposed into a disjoint union of basis vectors (growing those
// rectangles vertically); any residue becomes a new basis vector, and basis
// vectors strictly containing the residue are shrunk so that smaller basis
// vectors improve later packings. Because the greedy decomposition follows
// basis order, the heuristic is run multiple times with shuffled row orders,
// and on the transpose, keeping the best result.
package rowpack

import (
	"math/rand"

	"repro/internal/bitmat"
	"repro/internal/rect"
)

// Order selects the row processing order of a packing trial.
type Order int

const (
	// OrderShuffle randomizes the row order each trial (paper default).
	OrderShuffle Order = iota
	// OrderIdentity keeps the original row order (single deterministic trial).
	OrderIdentity
	// OrderSortedAsc processes rows with fewer 1s first (the paper mentions
	// this as a compromise that tends to hit worse local minima).
	OrderSortedAsc
)

// Options configures Pack.
type Options struct {
	// Trials is the number of packing trials (each with a fresh row order).
	// Values < 1 are treated as 1.
	Trials int
	// Seed seeds the shuffling RNG; trials are deterministic given Seed.
	Seed int64
	// Order selects the row ordering strategy.
	Order Order
	// DisableBasisUpdate skips lines 9–16 of Algorithm 2 (basis shrinking);
	// ablation only, the paper keeps the update on.
	DisableBasisUpdate bool
	// SkipTranspose disables the run on the transposed matrix.
	SkipTranspose bool
}

// DefaultOptions mirror the paper's setting: shuffled multi-trial with basis
// update, both orientations.
func DefaultOptions() Options {
	return Options{Trials: 100, Seed: 1, Order: OrderShuffle}
}

// Trivial returns the paper's trivial EBMF: partition into single rows or
// single columns (whichever orientation has fewer distinct nonzero lines),
// consolidating duplicates. The depth equals Matrix.TrivialUpperBound.
func Trivial(m *bitmat.Matrix) *rect.Partition {
	rowP := trivialRows(m)
	colP := trivialCols(m)
	if colP.Depth() < rowP.Depth() {
		return colP
	}
	return rowP
}

func trivialRows(m *bitmat.Matrix) *rect.Partition {
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

func trivialCols(m *bitmat.Matrix) *rect.Partition {
	tp := trivialRows(m.Transpose())
	p := rect.NewPartition(m)
	for _, r := range tp.Rects {
		p.Add(rect.Rect{Rows: r.Cols, Cols: r.Rows})
	}
	return p
}

// Pack runs the row-packing heuristic and returns the best partition found
// across trials and orientations. The result is always a valid EBMF of m and
// never worse than the trivial heuristic. It is PackDownTo with no bound.
func Pack(m *bitmat.Matrix, opts Options) *rect.Partition {
	return PackDownTo(m, opts, 0)
}

// PackDownTo is Pack that returns as soon as its best depth is at most lb:
// before any trial or transpose when Trivial already meets lb, otherwise
// after the first trial that does. When lb is a lower bound on m's binary
// rank (m.Rank() is one), the result is exactly Pack's: Pack starts from
// Trivial and keeps a trial only on a strictly smaller depth, no valid
// partition goes below lb, and the shuffling RNG is local to the call. With
// lb ≤ 0 every trial runs (a zero matrix has nothing to pack).
func PackDownTo(m *bitmat.Matrix, opts Options, lb int) *rect.Partition {
	if opts.Trials < 1 {
		opts.Trials = 1
	}
	best := Trivial(m)
	if best.Depth() <= lb {
		return best
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	run := func(target *bitmat.Matrix, transposed bool) {
		perm := orderFor(rng, target, opts)
		p := packOnce(target, perm, opts)
		if transposed {
			p = transposePartition(m, p)
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
			break // deterministic orders do not benefit from more trials
		}
	}
	return best
}

// orderFor produces the row processing order for one trial.
func orderFor(rng *rand.Rand, m *bitmat.Matrix, opts Options) []int {
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
		// Stable insertion sort by popcount keeps ties in original order.
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

// packOnce is one trial of Algorithm 2 over m with rows processed in the
// order given by perm (perm[t] is the original row index processed at step
// t). Rectangles are expressed in original row indices directly.
func packOnce(m *bitmat.Matrix, perm []int, opts Options) *rect.Partition {
	p := rect.NewPartition(m)
	var basis []bitmat.Vec // basis[k] is also p.Rects[k].Cols

	for _, i := range perm {
		ri := m.Row(i).Clone()
		if ri.IsZero() {
			continue
		}
		// Lines 4–7: greedy in-order subtraction of contained basis vectors.
		for j, vj := range basis {
			if vj.IsZero() || !vj.SubsetOf(ri) {
				continue
			}
			p.Rects[j].Rows.Set(i, true) // vertical grow
			ri.AndNot(vj)
			if ri.IsZero() {
				break
			}
		}
		if ri.IsZero() {
			continue
		}
		// Lines 8–16: residue becomes a new basis vector.
		newRows := bitmat.NewVec(m.Rows())
		newRows.Set(i, true)
		if !opts.DisableBasisUpdate {
			for k := range basis {
				vk := basis[k]
				if vk.IsZero() || !ri.SubsetOf(vk) {
					continue
				}
				// Horizontal shrink: P_k loses the residue's columns; the
				// new rectangle covers those entries for P_k's rows.
				vk.AndNot(ri) // mutates p.Rects[k].Cols in place
				newRows.Or(p.Rects[k].Rows)
			}
		}
		nr := rect.Rect{Rows: newRows, Cols: ri}
		basis = append(basis, ri)
		p.Add(nr)
	}
	return p
}

// transposePartition converts a partition of mᵀ into a partition of m by
// swapping each rectangle's row and column sets.
func transposePartition(m *bitmat.Matrix, tp *rect.Partition) *rect.Partition {
	p := rect.NewPartition(m)
	for _, r := range tp.Rects {
		p.Add(rect.Rect{Rows: r.Cols, Cols: r.Rows})
	}
	return p
}
