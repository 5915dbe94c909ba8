package encode

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/fooling"
	"repro/internal/rect"
	"repro/internal/sat"
)

// OneHot is the direct CNF compilation: one variable per (entry, rectangle
// slot) pair.
//
// Its symmetry breaking pins a fooling set. The encoder takes the greedy
// fooling set of m (fooling.Greedy), f entries no two of which can share a
// rectangle, and when f ≤ b fixes its t-th entry to slot t by a unit
// clause. The other slots, f..b-1, are free: the t-th unpinned entry in
// row-major order may open only free slots f..f+t, and consecutive free
// slots have non-decreasing first rows (addSlotOrdering). When f > b
// nothing is pinned (f = 0), which is the plain first-occurrence break.
//
// Soundness: every partition into at most b rectangles has a relabelling
// that satisfies all of it. The entries of a fooling set lie in pairwise
// distinct rectangles, so label the rectangle holding pin[t] as slot t.
// The remaining rectangles hold unpinned entries only; number them f, f+1,
// ... by their first entry in row-major order. The t-th unpinned entry is
// then either in an earlier rectangle or opens one of index at most f+t,
// and first entries increase in row-major order, so free slots have
// non-decreasing first rows (empty ones last). Narrowing stays sound too:
// every satisfiable bound is at least r_B(m) ≥ f, so a bound that disables
// a pinned slot is unsatisfiable anyway.
type OneHot struct {
	m     *bitmat.Matrix
	idx   *entryIndex
	s     *sat.Solver
	b     int
	vars  [][]sat.Var // vars[e][k]
	built int         // initial bound the formula was built for
	sel   []sat.Var   // incremental mode: selector per slot; sel[k] false disables slot k
	inc   bool
}

var _ Encoder = (*OneHot)(nil)

// OneHotConfig tunes the one-hot compilation.
type OneHotConfig struct {
	// AMO selects the at-most-one encoding.
	AMO AMO
	// Incremental adds per-slot selector variables (see
	// NewOneHotIncremental).
	Incremental bool
	// DisableSlotOrdering drops the lexicographic slot-signature symmetry
	// breaking (first-row-index ordering over the row-usage variables
	// r[i][k]); kept as an ablation knob. The pinned fooling set and the
	// weaker per-entry break (see OneHot) are always on.
	DisableSlotOrdering bool
}

// NewOneHot builds the formula for r_B(m) ≤ b with the chosen at-most-one
// encoding and symmetry breaking. b must be ≥ 1 unless the matrix is zero.
// Narrowing mutates the formula with unit clauses; use NewOneHotIncremental
// for the assumption-based variant.
func NewOneHot(m *bitmat.Matrix, b int, amo AMO) *OneHot {
	return NewOneHotConfig(m, b, OneHotConfig{AMO: amo})
}

// NewOneHotIncremental builds the same formula plus one selector variable
// per rectangle slot, with clauses sel[k] ∨ ¬x[e][k] tying each slot's
// entry variables to its selector. Narrowing then never mutates the
// formula: Solve assumes ¬sel[k] for every slot at or above the current
// bound, so learnt clauses, saved phases and VSIDS activities stay valid
// and are reused across the whole depth-narrowing run — the paper's
// narrow_down_depth as an assumption instead of a re-encode.
func NewOneHotIncremental(m *bitmat.Matrix, b int, amo AMO) *OneHot {
	return NewOneHotConfig(m, b, OneHotConfig{AMO: amo, Incremental: true})
}

// NewOneHotConfig builds the one-hot formula with full control over the
// compilation knobs.
func NewOneHotConfig(m *bitmat.Matrix, b int, cfg OneHotConfig) *OneHot {
	return newOneHot(m, b, cfg)
}

func newOneHot(m *bitmat.Matrix, b int, cfg OneHotConfig) *OneHot {
	amo, incremental := cfg.AMO, cfg.Incremental
	e := &OneHot{m: m, idx: newEntryIndex(m), s: sat.New(), b: b, built: b, inc: incremental}
	n := len(e.idx.pos)
	if n == 0 {
		return e
	}
	if b < 1 {
		// No slots but entries to cover: immediately unsatisfiable.
		e.s.AddClause()
		return e
	}
	// The greedy fooling set to pin (see OneHot); too large for b pins
	// nothing.
	pin := fooling.Greedy(m)
	if len(pin) > b {
		pin = nil
	}
	f := len(pin)
	// Size the solver's backing arrays up front: n*b entry-slot variables
	// plus selectors and slot-ordering auxiliaries, and the clause arena to
	// the formula's exact size. Pure capacity hints — encoding is
	// allocation-bound without them.
	e.s.ReserveVars(n*b + b + 2*(m.Rows()+1)*b)
	e.s.ReserveClauses(e.formulaSize(cfg, f))
	e.vars = make([][]sat.Var, n)
	flat := make([]sat.Var, n*b)
	for en := range e.vars {
		e.vars[en] = flat[en*b : (en+1)*b : (en+1)*b]
		for k := range e.vars[en] {
			e.vars[en][k] = e.s.NewVar()
		}
	}
	// Exactly-one slot per entry.
	lits := make([]sat.Lit, b)
	for en := 0; en < n; en++ {
		for k := 0; k < b; k++ {
			lits[k] = sat.PosLit(e.vars[en][k])
		}
		e.s.AddClause(lits...)
		e.addAMO(e.vars[en], amo)
	}
	// Closure constraints (Eq. 4) per unordered pair and slot.
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			switch kindOf(m, e.idx, a, c) {
			case pairConflict:
				for k := 0; k < b; k++ {
					e.s.AddClause(sat.NegLit(e.vars[a][k]), sat.NegLit(e.vars[c][k]))
				}
			case pairClosure:
				crossA, crossB := crosses(e.idx, a, c)
				for k := 0; k < b; k++ {
					e.s.AddClause(sat.NegLit(e.vars[a][k]), sat.NegLit(e.vars[c][k]),
						sat.PosLit(e.vars[crossA][k]))
					e.s.AddClause(sat.NegLit(e.vars[a][k]), sat.NegLit(e.vars[c][k]),
						sat.PosLit(e.vars[crossB][k]))
				}
			}
		}
	}
	// Symmetry breaking (see OneHot): the pinned fooling set, then the
	// t-th unpinned entry opens only free slots f..f+t.
	pinned := make([]bool, n)
	for t, p := range pin {
		en := e.idx.at[p]
		pinned[en] = true
		e.s.AddClause(sat.PosLit(e.vars[en][t]))
	}
	t := 0
	for en := 0; en < n && f+t+1 < b; en++ {
		if pinned[en] {
			continue
		}
		for k := f + t + 1; k < b; k++ {
			e.s.AddClause(sat.NegLit(e.vars[en][k]))
		}
		t++
	}
	if !cfg.DisableSlotOrdering {
		e.addSlotOrdering(f)
	}
	if incremental {
		e.sel = make([]sat.Var, b)
		for k := range e.sel {
			e.sel[k] = e.s.NewVar()
		}
		for en := 0; en < n; en++ {
			for k := 0; k < b; k++ {
				e.s.AddClause(sat.PosLit(e.sel[k]), sat.NegLit(e.vars[en][k]))
			}
		}
	}
	return e
}

// formulaSize counts the clauses of two or more literals newOneHot emits for
// f pinned slots, and their literals: the clause arena's exact size as
// emitted. Units never reach the arena, and the solver's root-level
// simplification against the symmetry-breaking units can only shrink the
// slot-ordering and selector clauses that follow them.
func (e *OneHot) formulaSize(cfg OneHotConfig, f int) (clauses, lits int) {
	n, b := len(e.idx.pos), e.b
	add := func(count, size int) {
		if size >= 2 {
			clauses += count
			lits += count * size
		}
	}
	add(n, b) // exactly one slot per entry
	switch cfg.AMO {
	case AMOPairwise:
		add(n*b*(b-1)/2, 2)
	case AMOSequential:
		if b >= 2 {
			add(n*(3*b-4), 2)
		}
	}
	var conflicts, closures int
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			switch kindOf(e.m, e.idx, a, c) {
			case pairConflict:
				conflicts++
			case pairClosure:
				closures++
			}
		}
	}
	add(conflicts*b, 2)
	add(closures*2*b, 3)
	if free := b - f; !cfg.DisableSlotOrdering && free > 0 {
		rows := 0
		for en := range e.idx.pos {
			if en == 0 || e.idx.pos[en][0] != e.idx.pos[en-1][0] {
				rows++
			}
		}
		// Per free slot and row of L entries: L binaries x → r and one
		// (L+1)-clause back; the u chain's two binaries per row and one
		// ternary per row after the first. Then the ordering binaries.
		add(free*n, 2)
		clauses += free * rows
		lits += free * (n + rows)
		add(free*2*rows, 2)
		add(free*(rows-1), 3)
		add((free-1)*rows, 2)
	}
	if cfg.Incremental {
		add(n*b, 2) // selectors
	}
	return clauses, lits
}

// addSlotOrdering adds the lexicographic slot-signature symmetry breaking
// over the free slots from..b-1: read in index order, they must have
// non-decreasing first-row index, with empty slots sorting last. This kills
// the k! permutation symmetry of the rectangle slots beyond what the
// per-entry break prunes — every UNSAT proof otherwise re-refutes
// row-permuted copies of the same partition attempt.
//
// Encoding: row-usage variables r[i][k] ⇔ slot k contains an entry of row i,
// prefix variables u[i][k] ⇔ slot k uses some row ≤ i (chained per slot), and
// ordering clauses u[i][k+1] → u[i][k]. The prefix property for every i is
// equivalent to firstRow(k) ≤ firstRow(k+1) (empty slots have all-false u, so
// used slots are forced into a prefix). The constraint is satisfied by the
// canonical representative of the per-entry break — slots numbered by first
// entry in row-major order have non-decreasing first rows — so adding both is
// sound, and it composes with selector-based narrowing: a disabled slot's x
// variables are all false, which forces its r and u chains false, making the
// ordering clauses vacuous for the disabled suffix.
func (e *OneHot) addSlotOrdering(from int) {
	// Entries of each nonzero row, in row order (row-major entry index).
	n := len(e.idx.pos)
	var rows []int          // distinct rows with entries, ascending
	rowEntries := [][]int{} // entries per row, parallel to rows
	for en := 0; en < n; en++ {
		i := e.idx.pos[en][0]
		if len(rows) == 0 || rows[len(rows)-1] != i {
			rows = append(rows, i)
			rowEntries = append(rowEntries, nil)
		}
		rowEntries[len(rowEntries)-1] = append(rowEntries[len(rowEntries)-1], en)
	}
	u := make([][]sat.Var, len(rows)) // u[ri][k]
	for ri := range u {
		u[ri] = make([]sat.Var, e.b)
	}
	lits := make([]sat.Lit, 0, 8)
	for k := from; k < e.b; k++ {
		for ri := range rows {
			// r ⇔ some entry of this row is in slot k.
			r := e.s.NewVar()
			lits = lits[:0]
			for _, en := range rowEntries[ri] {
				e.s.AddClause(sat.NegLit(e.vars[en][k]), sat.PosLit(r))
				lits = append(lits, sat.PosLit(e.vars[en][k]))
			}
			e.s.AddClause(append(lits, sat.NegLit(r))...)
			// u[ri][k] ⇔ r ∨ u[ri-1][k].
			uk := e.s.NewVar()
			u[ri][k] = uk
			e.s.AddClause(sat.NegLit(r), sat.PosLit(uk))
			if ri > 0 {
				prev := u[ri-1][k]
				e.s.AddClause(sat.NegLit(prev), sat.PosLit(uk))
				e.s.AddClause(sat.NegLit(uk), sat.PosLit(r), sat.PosLit(prev))
			} else {
				e.s.AddClause(sat.NegLit(uk), sat.PosLit(r))
			}
		}
	}
	// Ordering: slot k+1 may only reach into row prefixes slot k already
	// uses.
	for k := from; k+1 < e.b; k++ {
		for ri := range rows {
			e.s.AddClause(sat.NegLit(u[ri][k+1]), sat.PosLit(u[ri][k]))
		}
	}
}

// addAMO constrains at most one of vs to be true.
func (e *OneHot) addAMO(vs []sat.Var, amo AMO) {
	switch amo {
	case AMOSequential:
		e.addAMOSequential(vs)
	case AMOPairwise:
		for a := 0; a < len(vs); a++ {
			for b := a + 1; b < len(vs); b++ {
				e.s.AddClause(sat.NegLit(vs[a]), sat.NegLit(vs[b]))
			}
		}
	default: // AMONative
		lits := make([]sat.Lit, len(vs))
		for i, v := range vs {
			lits[i] = sat.PosLit(v)
		}
		e.s.AddAtMostOne(lits...)
	}
}

// addAMOSequential is the sequential-counter at-most-one: s_k carries
// "some x_{≤k} is true".
func (e *OneHot) addAMOSequential(vs []sat.Var) {
	if len(vs) <= 1 {
		return
	}
	prev := sat.Var(-1)
	for k, x := range vs {
		if k == len(vs)-1 {
			if prev >= 0 {
				e.s.AddClause(sat.NegLit(x), sat.NegLit(prev))
			}
			break
		}
		sk := e.s.NewVar()
		e.s.AddClause(sat.NegLit(x), sat.PosLit(sk))
		if prev >= 0 {
			e.s.AddClause(sat.NegLit(prev), sat.PosLit(sk))
			e.s.AddClause(sat.NegLit(x), sat.NegLit(prev))
		}
		prev = sk
	}
}

// Bound returns the current rectangle budget.
func (e *OneHot) Bound() int { return e.b }

// Solver exposes the SAT solver.
func (e *OneHot) Solver() *sat.Solver { return e.s }

// Solve decides the current bound. In incremental mode every slot at or
// above the bound is switched off by assuming its selector false; the
// formula itself is never touched, so the solver's learnt clauses survive
// from one bound to the next.
func (e *OneHot) Solve() sat.Status {
	if len(e.idx.pos) == 0 {
		return sat.Sat
	}
	if !e.inc {
		return e.s.Solve()
	}
	assumptions := make([]sat.Lit, 0, e.built-e.b)
	for k := e.b; k < e.built; k++ {
		assumptions = append(assumptions, sat.NegLit(e.sel[k]))
	}
	return e.s.SolveAssuming(assumptions...)
}

// Narrow forbids the highest remaining slot, reducing the bound by one —
// the paper's narrow_down_depth: add f(e) ≠ b for every entry. In
// incremental mode it only moves the bound; the next Solve disables the
// slot by assumption.
func (e *OneHot) Narrow() {
	if e.b <= 0 {
		return
	}
	e.b--
	if e.inc || len(e.idx.pos) == 0 {
		return
	}
	if e.b == 0 {
		e.s.AddClause() // entries exist but no slots remain
		return
	}
	for en := range e.vars {
		e.s.AddClause(sat.NegLit(e.vars[en][e.b]))
	}
}

// SolveAt decides r_B(m) ≤ bound without permanently narrowing the formula,
// by assuming every slot ≥ bound away (solver assumptions instead of unit
// clauses). bound must be ≤ the bound the formula was built for. Useful for
// probing several bounds on one formula; the SAP loop itself runs Solve and
// Narrow, which in incremental mode (the default) disable slots by the same
// selector assumptions, so learnt clauses stay sound across calls either
// way.
func (e *OneHot) SolveAt(bound int) sat.Status {
	if len(e.idx.pos) == 0 {
		return sat.Sat
	}
	if bound < 0 {
		bound = 0
	}
	if bound > e.built {
		bound = e.built
	}
	if bound == 0 {
		return sat.Unsat // entries exist but no slots allowed
	}
	var assumptions []sat.Lit
	if e.inc {
		// One selector assumption per disabled slot.
		for k := bound; k < e.built; k++ {
			assumptions = append(assumptions, sat.NegLit(e.sel[k]))
		}
	} else {
		for en := range e.vars {
			for k := bound; k < e.built; k++ {
				assumptions = append(assumptions, sat.NegLit(e.vars[en][k]))
			}
		}
	}
	return e.s.SolveAssuming(assumptions...)
}

// ReadPartition decodes the last Sat model into a partition.
func (e *OneHot) ReadPartition() (*rect.Partition, error) {
	if len(e.idx.pos) == 0 {
		return rect.NewPartition(e.m), nil
	}
	slot := make([]int, len(e.idx.pos))
	for en := range e.vars {
		slot[en] = -1
		for k := 0; k < e.built; k++ {
			if e.s.Value(e.vars[en][k]) {
				if slot[en] >= 0 {
					return nil, fmt.Errorf("encode: entry %d in two slots", en)
				}
				slot[en] = k
			}
		}
	}
	return partitionFromAssignment(e.m, e.idx, slot, e.built)
}
