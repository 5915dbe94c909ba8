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
// Rectangles follow the first appearance of their line; the duplicate
// groups come from bitmat.Compress, which numbers them in that order.
func Trivial(m *bitmat.Matrix) *rect.Partition {
	c := bitmat.Compress(m)
	p := rect.NewPartition(m)
	if len(c.ColGroups) < len(c.RowGroups) {
		p.Rects = newRects(len(c.ColGroups), m.Rows(), m.Cols())
		for k, group := range c.ColGroups {
			r := p.Rects[k]
			for i := 0; i < m.Rows(); i++ {
				r.Rows.Set(i, m.Get(i, group[0]))
			}
			for _, j := range group {
				r.Cols.Set(j, true)
			}
		}
		return p
	}
	p.Rects = newRects(len(c.RowGroups), m.Rows(), m.Cols())
	for k, group := range c.RowGroups {
		r := p.Rects[k]
		for _, i := range group {
			r.Rows.Set(i, true)
		}
		r.Cols.Or(m.Row(group[0]))
	}
	return p
}

// newRects returns k empty rectangles of a rows×cols matrix, their vectors
// on one backing array; nil when k is 0.
func newRects(k, rows, cols int) []rect.Rect {
	if k == 0 {
		return nil
	}
	rs, cs := bitmat.NewVecPairs(k, rows, cols)
	out := make([]rect.Rect, k)
	for i := range out {
		out[i] = rect.Rect{Rows: rs[i], Cols: cs[i]}
	}
	return out
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
//
// Each orientation packs its trials into one reusable buffer, and the row
// order is drawn into one reused slice with rand.Perm's draws, so the trial
// sequence is the one a fresh allocation per trial would give. A trial that
// wins hands its buffer to best (a transposed one is transposed in place
// first) and the next trial of that orientation gets a new buffer; a trial
// that loses leaves its buffer to be overwritten.
func PackDownTo(m *bitmat.Matrix, opts Options, lb int) *rect.Partition {
	if opts.Trials < 1 {
		opts.Trials = 1
	}
	best := Trivial(m)
	if best.Depth() <= lb {
		return best
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := make([]int, max(m.Rows(), m.Cols()))

	var mt *bitmat.Matrix
	var bufs [2]*trial // per orientation: plain, transposed
	run := func(transposed bool) {
		target, o := m, 0
		if transposed {
			target, o = mt, 1
		}
		if bufs[o] == nil {
			bufs[o] = newTrial(m, target)
		}
		t := bufs[o]
		t.pack(target, orderFor(rng, perm[:target.Rows()], target, opts), opts)
		if t.p.Depth() < best.Depth() {
			if transposed {
				t.transpose()
			}
			best, bufs[o] = &t.p, nil
		}
	}

	for trial := 0; trial < opts.Trials && best.Depth() > lb; trial++ {
		run(false)
		if !opts.SkipTranspose && best.Depth() > lb {
			if mt == nil {
				mt = m.Transpose()
			}
			run(true)
		}
		if opts.Order != OrderShuffle {
			break // deterministic orders do not benefit from more trials
		}
	}
	return best
}

// orderFor fills perm, one entry per row of m, with the row processing
// order of one trial and returns it. The shuffle is rand.Perm's algorithm,
// so it makes the same draws and gives the same order.
func orderFor(rng *rand.Rand, perm []int, m *bitmat.Matrix, opts Options) []int {
	switch opts.Order {
	case OrderIdentity:
		for i := range perm {
			perm[i] = i
		}
	case OrderSortedAsc:
		for i := range perm {
			perm[i] = i
		}
		// Stable insertion sort by popcount keeps ties in original order.
		for i := 1; i < len(perm); i++ {
			for j := i; j > 0 && m.RowOnes(perm[j]) < m.RowOnes(perm[j-1]); j-- {
				perm[j], perm[j-1] = perm[j-1], perm[j]
			}
		}
	default:
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
	}
	return perm
}

// trial is a packing trial's buffer over a target matrix (m or its
// transpose): room for one rectangle per target row, which is the most a
// trial can make, all on one backing array. p is the trial's partition of
// m once a transposed trial is transposed.
type trial struct {
	p     rect.Partition
	rects []rect.Rect
}

func newTrial(m, target *bitmat.Matrix) *trial {
	return &trial{p: rect.Partition{M: m}, rects: newRects(target.Rows(), target.Rows(), target.Cols())}
}

// pack is one trial of Algorithm 2 over target with rows processed in the
// order given by perm (perm[t] is the target row processed at step t),
// overwriting the buffer's previous trial. Rectangles are expressed in the
// target's row indices directly, and rectangle k's columns are basis
// vector k.
func (t *trial) pack(target *bitmat.Matrix, perm []int, opts Options) {
	for _, r := range t.p.Rects {
		r.Rows.AndNot(r.Rows) // clear the previous trial
		r.Cols.AndNot(r.Cols)
	}
	rects := t.rects
	n := 0
	for _, i := range perm {
		row := target.Row(i)
		if row.IsZero() {
			continue
		}
		// The residue is worked out in the next free rectangle's columns,
		// which stay all-zero when nothing is left of the row.
		ri := rects[n].Cols
		ri.Or(row)
		// Lines 4–7: greedy in-order subtraction of contained basis vectors.
		for j := 0; j < n; j++ {
			vj := rects[j].Cols
			if vj.IsZero() || !vj.SubsetOf(ri) {
				continue
			}
			rects[j].Rows.Set(i, true) // vertical grow
			ri.AndNot(vj)
			if ri.IsZero() {
				break
			}
		}
		if ri.IsZero() {
			continue
		}
		// Lines 8–16: residue becomes a new basis vector.
		newRows := rects[n].Rows
		newRows.Set(i, true)
		if !opts.DisableBasisUpdate {
			for k := 0; k < n; k++ {
				vk := rects[k].Cols
				if vk.IsZero() || !ri.SubsetOf(vk) {
					continue
				}
				// Horizontal shrink: P_k loses the residue's columns; the
				// new rectangle covers those entries for P_k's rows.
				vk.AndNot(ri)
				newRows.Or(rects[k].Rows)
			}
		}
		n++
	}
	t.p.Rects = t.rects[:n:n]
}

// transpose swaps each rectangle's row and column sets in place, turning a
// trial over mᵀ into a partition of m.
func (t *trial) transpose() {
	for k := range t.p.Rects {
		r := &t.p.Rects[k]
		r.Rows, r.Cols = r.Cols, r.Rows
	}
}
