package sat

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// forceInprocess makes the next restart-point check run a pass regardless of
// how many conflicts have accumulated.
func forceInprocess(s *Solver) { s.lastInprocess = -inprocessInterval }

func TestInprocessDirectPass(t *testing.T) {
	// Generate learnt clauses with a budgeted solve, then run one pass
	// directly and finish the proof — the full DRAT trace (search learnts +
	// inprocessing rewrites) must check.
	s := pigeonhole(7, 6)
	var formula bytes.Buffer
	if err := s.WriteDIMACS(&formula); err != nil {
		t.Fatal(err)
	}
	var proof bytes.Buffer
	s.AttachProof(&proof)
	s.SetConflictBudget(500)
	if got := s.Solve(); got != Unknown {
		t.Skipf("PHP(7,6) decided within 500 conflicts: %v", got)
	}
	forceInprocess(s)
	s.maybeInprocess()
	if s.InprocPasses != 1 {
		t.Fatalf("InprocPasses = %d, want 1", s.InprocPasses)
	}
	s.SetConflictBudget(-1)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(7,6): %v", got)
	}
	if err := s.FlushProof(); err != nil {
		t.Fatal(err)
	}
	if err := CheckDRAT(&formula, &proof); err != nil {
		t.Fatalf("proof with inprocessing rejected: %v", err)
	}
}

func TestInprocessSelfSubsumption(t *testing.T) {
	// C = (a ∨ b ∨ c) with binary (¬c ∨ b) resolves to (a ∨ b).
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b), PosLit(c))
	s.AddClause(NegLit(c), PosLit(b))
	s.selfSubsumeSweep()
	if s.InprocStrengthened != 1 {
		t.Fatalf("InprocStrengthened = %d, want 1", s.InprocStrengthened)
	}
	// The strengthened database must still be equivalent: ¬b forces a.
	if got := s.SolveAssuming(NegLit(b)); got != Sat {
		t.Fatalf("status %v", got)
	}
	if !s.Value(a) {
		t.Fatal("¬b must force a through the strengthened clause")
	}
}

func TestInprocessSelfSubsumptionViaAMO(t *testing.T) {
	// The group AMO(b, c) implies (¬b ∨ ¬c), so C = (a ∨ ¬b ∨ c) resolves on
	// c (using ¬c ∨ ¬b? no — C ∋ c and ¬b: the implied binary [¬c, ¬b] has
	// its second literal in C) down to (a ∨ ¬b).
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddAtMostOne(PosLit(b), PosLit(c))
	s.AddClause(PosLit(a), NegLit(b), PosLit(c))
	s.selfSubsumeSweep()
	if s.InprocStrengthened != 1 {
		t.Fatalf("InprocStrengthened = %d, want 1", s.InprocStrengthened)
	}
	if got := s.SolveAssuming(PosLit(b), NegLit(a)); got != Unsat {
		t.Fatalf("status %v, want Unsat (b ∧ ¬a contradicts a ∨ ¬b)", got)
	}
}

func TestInprocessMutualSubsumptionCycleSound(t *testing.T) {
	// b ↔ c equivalence: both (¬b ∨ c) and (¬c ∨ b) exist. A naive sweep
	// would drop BOTH b and c from (a ∨ b ∨ c), which is unsound; dropping
	// one at a time against the remaining clause must keep it satisfiable
	// with a false.
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b), PosLit(c))
	s.AddClause(NegLit(b), PosLit(c))
	s.AddClause(NegLit(c), PosLit(b))
	s.selfSubsumeSweep()
	if got := s.SolveAssuming(NegLit(a)); got != Sat {
		t.Fatalf("status %v: b=c=true must still satisfy the clause", got)
	}
}

func TestInprocessVivification(t *testing.T) {
	// Learnt clause (a ∨ b ∨ c) where the database already implies ¬a → b:
	// vivification assuming ¬a propagates b and truncates the clause to
	// (a ∨ b).
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	_ = c
	s.AddClause(PosLit(a), PosLit(b)) // ¬a → b
	addLearnt(s, []Lit{PosLit(a), PosLit(b), PosLit(c)}, 2)
	s.vivifySweep()
	if s.InprocStrengthened != 1 {
		t.Fatalf("InprocStrengthened = %d, want 1", s.InprocStrengthened)
	}
	if n := s.ca.size(s.learnts[0]); n != 2 {
		t.Fatalf("vivified clause size = %d, want 2", n)
	}
}

// addLearnt installs lits, which must be a clause of distinct variables
// unassigned at the root, as a learnt clause with the given LBD.
func addLearnt(s *Solver, lits []Lit, lbd int) {
	c := s.ca.alloc(lits, true)
	s.ca.setActivity(c, s.claInc)
	s.ca.setLBD(c, lbd)
	s.learnts = append(s.learnts, c)
	s.attachClause(c)
}

func TestInprocessAblationAgrees(t *testing.T) {
	for n := 5; n <= 6; n++ {
		on := pigeonhole(n+1, n)
		forceInprocess(on)
		off := pigeonhole(n+1, n)
		off.Inprocess = false
		if a, b := on.Solve(), off.Solve(); a != b || a != Unsat {
			t.Fatalf("PHP(%d,%d): inprocess=%v, ablation=%v", n+1, n, a, b)
		}
	}
}

func TestQuickInprocessDifferentialRandom(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 4 + rng.Intn(10)
		native, encoded := randomAMOInstance(rng, nVars)
		encoded.Inprocess = false
		var formula bytes.Buffer
		if err := native.WriteDIMACS(&formula); err != nil {
			t.Fatal(err)
		}
		var proof bytes.Buffer
		native.AttachProof(&proof)
		// Run a pass mid-solve on every instance, not just those that restart.
		native.SetConflictBudget(30)
		got := native.Solve()
		if got == Unknown {
			forceInprocess(native)
			native.maybeInprocess()
			native.SetConflictBudget(-1)
			got = native.Solve()
		}
		if err := native.FlushProof(); err != nil {
			t.Fatal(err)
		}
		want := encoded.Solve()
		if got != want {
			t.Logf("seed %d: inprocessed %v, plain %v", seed, got, want)
			return false
		}
		if got == Unsat {
			if err := CheckDRAT(&formula, &proof); err != nil {
				t.Logf("seed %d: inprocessed proof rejected: %v", seed, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}
