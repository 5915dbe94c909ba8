package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// addClauseEager is AddClause as it was before problem clauses waited for
// attachPending: each clause of two or more literals is watched at once.
// The differential test below runs it as the oracle.
func (s *Solver) addClauseEager(lits ...Lit) {
	if s.unsatRoot {
		return
	}
	s.cancelUntil(0)
	out, keep := s.prepareClause(lits)
	if !keep {
		return
	}
	switch len(out) {
	case 0:
		s.unsatRoot = true
	case 1:
		if !s.enqueue(out[0], crefUndef) {
			s.unsatRoot = true
			return
		}
		if s.propagate() != crefUndef {
			s.unsatRoot = true
		}
	default:
		c := s.ca.alloc(out, false)
		s.clauses = append(s.clauses, c)
		s.attachClause(c)
		s.attached = len(s.clauses)
	}
}

// sameWatches reports the first literal whose long or binary watch list
// differs, element by element, between the two solvers.
func sameWatches(t *testing.T, deferred, eager *Solver) bool {
	t.Helper()
	for l := range eager.watches {
		if !slices.Equal(deferred.watches[l], eager.watches[l]) {
			t.Errorf("literal %v: long watchers %v, eager %v", Lit(l), deferred.watches[l], eager.watches[l])
			return false
		}
		if !slices.Equal(deferred.binWatches[l], eager.binWatches[l]) {
			t.Errorf("literal %v: binary watchers %v, eager %v", Lit(l), deferred.binWatches[l], eager.binWatches[l])
			return false
		}
	}
	return true
}

// TestDeferredAttachMatchesEager builds random CNFs twice, interleaving
// clauses with units and at-most-one groups: once through AddClause, whose
// watchers wait for attachPending, and once through the eager copy above.
// Whenever the deferred solver has no clause waiting, and after every flush
// the test forces, every watch list must equal the eager one element by
// element; then both solve (again after more clauses, with inprocessing
// forced on some instances) with the same status, conflicts, decisions and
// propagations.
func TestDeferredAttachMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		nVars := 5 + rng.Intn(40)
		deferred, eager := New(), New()
		for i := 0; i < nVars; i++ {
			deferred.NewVar()
			eager.NewVar()
		}
		randLit := func() Lit { return MkLit(rng.Intn(nVars), rng.Intn(2) == 0) }
		add := func(n int) {
			for i := 0; i < n; i++ {
				switch r := rng.Intn(20); {
				case r == 0:
					l := randLit()
					deferred.AddClause(l)
					eager.addClauseEager(l)
				case r <= 2:
					group := make([]Lit, 2+rng.Intn(4))
					for j := range group {
						group[j] = randLit()
					}
					deferred.AddAtMostOne(group...)
					eager.AddAtMostOne(group...)
				case r == 3:
					deferred.attachPending()
				default:
					cl := make([]Lit, 2+rng.Intn(3))
					for j := range cl {
						cl[j] = randLit()
					}
					deferred.AddClause(cl...)
					eager.addClauseEager(cl...)
				}
				if deferred.attached == len(deferred.clauses) && !sameWatches(t, deferred, eager) {
					t.Fatalf("trial %d: watch lists differ after addition %d", trial, i)
				}
			}
		}
		add(10 + rng.Intn(6*nVars))
		inprocess := trial%3 == 0
		for round := 0; round < 2; round++ {
			if inprocess {
				forceInprocess(deferred)
				forceInprocess(eager)
			}
			deferred.SetConflictBudget(200)
			eager.SetConflictBudget(200)
			got, want := deferred.Solve(), eager.Solve()
			if got != want || deferred.Conflicts != eager.Conflicts || deferred.Decisions != eager.Decisions ||
				deferred.Propagations != eager.Propagations {
				t.Fatalf("trial %d round %d: status/conflicts/decisions/propagations %v/%d/%d/%d, eager %v/%d/%d/%d",
					trial, round, got, deferred.Conflicts, deferred.Decisions, deferred.Propagations,
					want, eager.Conflicts, eager.Decisions, eager.Propagations)
			}
			deferred.attachPending()
			if !sameWatches(t, deferred, eager) {
				t.Fatalf("trial %d round %d: watch lists differ after solving", trial, round)
			}
			add(5 + rng.Intn(2*nVars))
		}
	}
}

// TestDeferredAttachAfterSweep: binary self-subsumption shrinks a problem
// clause to a unit and drops it from the clause list, so the attached
// boundary must follow the shorter list, or a clause added next is never
// watched. Enough other clauses keep the arena from a collection, which
// would rebuild every list and hide a stale boundary.
func TestDeferredAttachAfterSweep(t *testing.T) {
	s := New()
	x, y, z, w, v := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(x), PosLit(y), PosLit(z))
	s.AddClause(NegLit(y), PosLit(x))
	s.AddClause(NegLit(z), PosLit(x))
	for i := 0; i < 10; i++ {
		a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
		s.AddClause(PosLit(a), PosLit(b), PosLit(c))
	}
	forceInprocess(s)
	s.maybeInprocess()
	if s.value(PosLit(x)) != lTrue || s.NumClauses() != 12 {
		t.Fatalf("sweep left x %v and %d problem clauses, want x true and 12", s.value(PosLit(x)), s.NumClauses())
	}
	s.AddClause(PosLit(w), PosLit(v))
	s.AddClause(NegLit(w))
	if s.value(PosLit(v)) != lTrue {
		t.Fatal("the clause added after the sweep did not propagate: it was never watched")
	}
}
