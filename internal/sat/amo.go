package sat

import (
	"fmt"
	"slices"
)

// Native at-most-one propagation. The EBMF one-hot encoding is dominated by
// at-most-one constraints (one per 1-entry of the matrix); encoding each as
// O(b²) pairwise clauses makes the watched-literal loop grind through binary
// watch traffic on exactly the constraints every instance is made of. A
// registered AMO group instead propagates "one member true ⇒ all other
// members false" in O(group) directly from the trail, with no clauses, no
// watchers and no auxiliary variables.
//
// Conflict analysis needs a clausal justification for every propagated
// assignment, so AMO consequences carry a *tagged* reason: the top bit of the
// reason cref marks it as an AMO reason and the low bits hold the triggering
// literal (arena crefs are provably below 1<<31, see clauseArena.alloc).
// When analyze, or clause minimization, dereferences such a reason, the
// binary justification clause [asserted, ¬trigger] — a clause of the group's
// pairwise expansion — is synthesized on demand into a scratch buffer. The
// clauses are never allocated in the arena: they exist only at the moment a
// resolution step needs them, and in the DIMACS rendering of the formula
// (WriteDIMACS emits each group's pairwise expansion), which is what keeps
// every learnt clause a RUP consequence and DRAT certification working
// unchanged. See DESIGN.md §12.

// amoReasonFlag tags a reason cref as an AMO propagation; the remaining bits
// hold the triggering literal. crefUndef also has the top bit set, so every
// reason dereference checks crefUndef first.
const amoReasonFlag cref = 1 << 31

// amoConflictRef is the sentinel conflict cref returned by propagate when two
// members of one AMO group are true; the conflicting binary clause is staged
// in Solver.amoConflLits. It can never collide with a tagged reason: the
// literal it would encode is out of range for any real instance, and it is
// never stored in reason[].
const amoConflictRef cref = ^cref(0) - 1

// AddAtMostOne registers the constraint "at most one of lits is true" with
// the native propagator. Like AddClause it must be called at decision level 0
// and may be interleaved with Solve calls. Degenerate inputs reduce to their
// unit consequences instead of a group registration: a duplicated literal
// must be false, a complementary pair l/¬l forces every other member false
// (one of the pair is always true), and so does a root-true member;
// root-false members drop out. A group of fewer than two surviving members
// constrains nothing.
func (s *Solver) AddAtMostOne(lits ...Lit) {
	if s.unsatRoot {
		return
	}
	s.cancelUntil(0)
	// The group is normalized in addBuf, AddClause's buffer; registerAMO
	// copies it.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)

	// Normalize: l and ¬l sort adjacently (2v, 2v+1), duplicates likewise.
	group := ls[:0]
	var forceFalse []Lit // duplicated literals: must be false outright
	pairs := 0           // complementary pairs l/¬l: each contributes one true member
	for i := 0; i < len(ls); i++ {
		l := ls[i]
		if l.Var() >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v references undeclared variable", l))
		}
		if i+1 < len(ls) && ls[i+1] == l {
			forceFalse = append(forceFalse, l)
			for i+1 < len(ls) && ls[i+1] == l {
				i++
			}
			continue
		}
		if i+1 < len(ls) && ls[i+1] == l.Neg() {
			pairs++
			i++
			continue
		}
		if s.value(l) == lFalse {
			continue // can never be the one member; drop
		}
		group = append(group, l)
	}
	if pairs >= 2 {
		// Two complementary pairs are two guaranteed-true members: the
		// constraint is contradictory outright (WriteDIMACS renders the
		// root-unsat state as an explicit empty clause, as AddClause does).
		s.unsatRoot = true
		return
	}
	pairSat := pairs == 1

	trueAt := -1
	if !pairSat {
		// With a complementary pair in the group the "one" is the pair itself:
		// a root-true member elsewhere is a second true member, so it must NOT
		// be exempted here — forcing its negation below exposes the conflict.
		for i, l := range group {
			if s.value(l) == lTrue {
				trueAt = i
				break
			}
		}
	}
	if pairSat || trueAt >= 0 {
		// The "one" is already spoken for: every other member must be false,
		// and the surviving constraint is implied by those units — no group.
		for i, l := range group {
			if i == trueAt {
				continue
			}
			if !s.enqueue(l.Neg(), crefUndef) {
				s.unsatRoot = true
				return
			}
		}
		for _, l := range forceFalse {
			if !s.enqueue(l.Neg(), crefUndef) {
				s.unsatRoot = true
				return
			}
		}
		if s.propagate() != crefUndef {
			s.unsatRoot = true
		}
		return
	}

	if len(group) >= 2 {
		s.registerAMO(group)
	}
	for _, l := range forceFalse {
		if !s.enqueue(l.Neg(), crefUndef) {
			s.unsatRoot = true
			return
		}
	}
	if s.propagate() != crefUndef {
		s.unsatRoot = true
	}
}

// registerAMO appends a normalized group (≥2 distinct unassigned literals)
// to the flat group store and indexes it in the per-literal occurrence lists.
func (s *Solver) registerAMO(group []Lit) {
	if s.amoStart == nil {
		s.amoStart = append(s.amoStart, 0)
	}
	for len(s.amoOcc) < 2*s.NumVars() {
		s.amoOcc = append(s.amoOcc, nil)
	}
	g := int32(len(s.amoStart) - 1)
	s.amoLits = append(s.amoLits, group...)
	s.amoStart = append(s.amoStart, int32(len(s.amoLits)))
	for _, l := range group {
		s.amoOcc[l] = append(s.amoOcc[l], g)
	}
}

// NumAMOGroups returns the number of registered at-most-one groups.
func (s *Solver) NumAMOGroups() int {
	if len(s.amoStart) == 0 {
		return 0
	}
	return len(s.amoStart) - 1
}

// amoPropagate enforces every group containing the just-assigned true
// literal p: all other members become false with a tagged reason naming p.
// It returns amoConflictRef (with the conflicting binary clause staged in
// amoConflLits) when another member is already true, crefUndef otherwise.
func (s *Solver) amoPropagate(p Lit) cref {
	reason := amoReasonFlag | cref(p)
	for _, g := range s.amoOcc[p] {
		lits := s.amoLits[s.amoStart[g]:s.amoStart[g+1]]
		for _, m := range lits {
			if m == p {
				continue
			}
			if !s.enqueue(m.Neg(), reason) {
				// m is true too: the group's pairwise clause [¬p, ¬m] is
				// falsified.
				s.amoConflLits[0] = uint32(p.Neg())
				s.amoConflLits[1] = uint32(m.Neg())
				return amoConflictRef
			}
		}
	}
	return crefUndef
}

// amoReasonLit recovers the trigger literal from a tagged reason.
func amoReasonLit(r cref) Lit { return Lit(r &^ amoReasonFlag) }

// isAMOReason reports whether a reason cref is a tagged AMO reason (the
// crefUndef sentinel also has the tag bit set and must be excluded).
func isAMOReason(r cref) bool { return r != crefUndef && r&amoReasonFlag != 0 }

// sharesAMOGroup reports whether literals a and b appear together in some
// registered group — i.e. the binary clause [¬a, ¬b] is implied by a group's
// pairwise expansion. Occurrence lists are sorted (groups are appended in
// registration order), so a linear merge suffices.
func (s *Solver) sharesAMOGroup(a, b Lit) bool {
	if len(s.amoOcc) == 0 {
		return false
	}
	ga, gb := s.amoOcc[a], s.amoOcc[b]
	i, j := 0, 0
	for i < len(ga) && j < len(gb) {
		switch {
		case ga[i] == gb[j]:
			return true
		case ga[i] < gb[j]:
			i++
		default:
			j++
		}
	}
	return false
}
