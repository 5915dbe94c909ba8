// Package encode compiles the EBMF decision problem "does matrix M admit a
// partition into at most b rectangles?" (equivalently r_B(M) ≤ b) to CNF for
// the sat package.
//
// The paper formulates this for an SMT solver as a function f: E → P over
// the 1-entries E with the closure constraints of its Eq. 4:
//
//	f(i,j) ≠ f(i',j')                      if M[i][j'] = 0
//	f(i,j) = f(i',j') ⇒ f(i,j) = f(i,j')   if M[i][j'] = 1
//
// The compilation is one-hot: x[e][k] ⇔ entry e is assigned rectangle k,
// with exactly-one-per-entry constraints, closure clauses per rectangle
// slot, and slot-ordering symmetry breaking. Narrowing the bound from b to
// b-1 is adding the unit clauses ¬x[e][b-1] (or, in the incremental
// variant, assuming a slot selector false), mirroring the paper's
// narrow_down_depth step.
//
// The paper's bit-vector reading of f, a ⌈log₂ b⌉-bit word per entry, never
// beat the one-hot compilation on any committed instance, so it is not
// compiled (DESIGN.md §3).
package encode

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/rect"
	"repro/internal/sat"
)

// AMO selects the at-most-one encoding used by the one-hot compilation.
type AMO int

const (
	// AMONative (the default) registers each per-entry constraint with the
	// solver's native at-most-one propagator (sat.AddAtMostOne): no clauses,
	// no auxiliary variables, O(b) propagation per assignment. DRAT output is
	// unaffected — the solver renders groups as their pairwise expansion when
	// writing the formula.
	AMONative AMO = iota
	// AMOPairwise uses O(b²) binary clauses per entry (the classic encoding,
	// kept as an ablation and differential baseline).
	AMOPairwise
	// AMOSequential uses the sequential counter with O(b) auxiliary
	// variables and clauses per entry.
	AMOSequential
)

// String names the AMO mode (flag values for -amo and wire options).
func (a AMO) String() string {
	switch a {
	case AMOPairwise:
		return "pairwise"
	case AMOSequential:
		return "sequential"
	default:
		return "native"
	}
}

// ParseAMO maps a mode name to the AMO enum.
func ParseAMO(name string) (AMO, error) {
	switch name {
	case "", "native":
		return AMONative, nil
	case "pairwise":
		return AMOPairwise, nil
	case "sequential":
		return AMOSequential, nil
	}
	return AMONative, fmt.Errorf("encode: unknown AMO mode %q (valid: native, pairwise, sequential)", name)
}

// Encoder is the interface the SAP loop drives. A fresh encoder is built at
// the row-packing upper bound; the loop then alternates Solve and Narrow.
type Encoder interface {
	// Bound returns the current rectangle budget b.
	Bound() int
	// Solver exposes the underlying SAT solver (for budgets and stats).
	Solver() *sat.Solver
	// Solve decides whether r_B(M) ≤ Bound() under the current budget.
	Solve() sat.Status
	// Narrow reduces the bound by one by constraining the formula
	// (only valid after a Sat result or before any solving).
	Narrow()
	// ReadPartition extracts the rectangle partition from the last Sat
	// model.
	ReadPartition() (*rect.Partition, error)
}

// entryIndex enumerates the 1-entries of m in row-major order — the index
// function e(i,j) of the paper.
type entryIndex struct {
	pos [][2]int
	at  map[[2]int]int
}

func newEntryIndex(m *bitmat.Matrix) *entryIndex {
	pos := m.OnesPositions()
	at := make(map[[2]int]int, len(pos))
	for idx, p := range pos {
		at[p] = idx
	}
	return &entryIndex{pos: pos, at: at}
}

// pairKind classifies an unordered pair of entries for the closure
// constraints.
type pairKind int

const (
	pairSkip     pairKind = iota // shares a row or column: no constraint
	pairConflict                 // a cross entry is 0: never the same rectangle
	pairClosure                  // both crosses are 1: same rectangle forces crosses in
)

// kindOf applies Eq. 4 to entries a=(i,j), b=(i',j').
func kindOf(m *bitmat.Matrix, idx *entryIndex, a, b int) pairKind {
	i, j := idx.pos[a][0], idx.pos[a][1]
	i2, j2 := idx.pos[b][0], idx.pos[b][1]
	if i == i2 || j == j2 {
		return pairSkip
	}
	if !m.Get(i, j2) || !m.Get(i2, j) {
		return pairConflict
	}
	return pairClosure
}

// crosses returns the entry indices of the two cross entries (i,j') and
// (i',j) of a closure pair a=(i,j), b=(i',j').
func crosses(idx *entryIndex, a, b int) (int, int) {
	i, j := idx.pos[a][0], idx.pos[a][1]
	i2, j2 := idx.pos[b][0], idx.pos[b][1]
	return idx.at[[2]int{i, j2}], idx.at[[2]int{i2, j}]
}

// partitionFromAssignment reconstructs rectangles from an entry→slot
// assignment, validating on the way.
func partitionFromAssignment(m *bitmat.Matrix, idx *entryIndex, slot []int, b int) (*rect.Partition, error) {
	p := rect.NewPartition(m)
	byRect := make([][]int, b)
	for e, k := range slot {
		if k < 0 || k >= b {
			return nil, fmt.Errorf("encode: entry %d assigned invalid slot %d", e, k)
		}
		byRect[k] = append(byRect[k], e)
	}
	for _, entries := range byRect {
		if len(entries) == 0 {
			continue
		}
		r := rect.NewRect(m.Rows(), m.Cols())
		for _, e := range entries {
			r.Rows.Set(idx.pos[e][0], true)
			r.Cols.Set(idx.pos[e][1], true)
		}
		p.Add(r)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("encode: model does not induce a valid partition: %w", err)
	}
	return p, nil
}
