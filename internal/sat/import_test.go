package sat

import "testing"

// TestConfigRoundTrip: ApplyTo sets every knob, and New's knobs equal
// DefaultConfig — the portfolio's canonical strategy and core's sequential
// loop both rely on the latter to build the same solver.
func TestConfigRoundTrip(t *testing.T) {
	knobs := func(s *Solver) Config {
		return Config{PhaseSaving: s.PhaseSaving, LubyRestarts: s.LubyRestarts, Inprocess: s.Inprocess}
	}
	cfg := Config{PhaseSaving: false, LubyRestarts: true, Inprocess: false}
	s := New()
	cfg.ApplyTo(s)
	if got := knobs(s); got != cfg {
		t.Fatalf("after ApplyTo = %+v, want %+v", got, cfg)
	}
	if def := knobs(New()); def != DefaultConfig() {
		t.Fatalf("New() config = %+v, want DefaultConfig %+v", def, DefaultConfig())
	}
	if !New().DeepMinimize {
		t.Fatal("New() must minimize learnt clauses recursively")
	}
}

// TestLearntHookObservesClauses: the hook sees learnt clauses during a
// conflict-heavy solve, and uninstalling it stops the flow.
func TestLearntHookObservesClauses(t *testing.T) {
	s := New()
	// Pigeonhole 4→3: UNSAT with plenty of conflicts.
	const holes, pigeons = 3, 4
	v := make([][]Var, pigeons)
	for p := range v {
		v[p] = make([]Var, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(v[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(v[p1][h]), NegLit(v[p2][h]))
			}
		}
	}
	var seen int
	s.SetLearntHook(func(lits []Lit, lbd int) {
		if len(lits) == 0 {
			t.Error("hook received an empty clause")
		}
		if lbd < 0 {
			t.Errorf("hook received negative LBD %d", lbd)
		}
		seen++
	})
	if s.Solve() != Unsat {
		t.Fatal("pigeonhole 4→3 must be UNSAT")
	}
	if seen == 0 {
		t.Fatal("hook never fired on an UNSAT proof")
	}
	if int64(seen) != s.Learned {
		t.Fatalf("hook fired %d times, solver learned %d clauses", seen, s.Learned)
	}
}

// TestImportLearnt: imported clauses land in the learnt database, propagate,
// and survive normalization edge cases.
func TestImportLearnt(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(PosLit(a), NegLit(b), PosLit(c))

	if !s.ImportLearnt([]Lit{NegLit(b), PosLit(c)}, 1) {
		t.Fatal("useful import rejected")
	}
	if s.NumLearnts() != 1 {
		t.Fatalf("learnt count = %d, want 1", s.NumLearnts())
	}
	// Tautology and duplicate-literal normalization.
	if s.ImportLearnt([]Lit{PosLit(a), NegLit(a)}, 1) {
		t.Fatal("tautology import accepted")
	}
	// Unit import assigns at the root.
	if !s.ImportLearnt([]Lit{PosLit(a)}, 1) {
		t.Fatal("unit import rejected")
	}
	if s.Solve() != Sat {
		t.Fatal("expected Sat")
	}
	if !s.Value(a) {
		t.Fatal("imported unit not honoured by the model")
	}
}

// TestImportLearntEquivalentSolvers: clauses exported by one solver on a
// shared formula import soundly into a twin and do not change the verdict.
func TestImportLearntEquivalentSolvers(t *testing.T) {
	build := func() *Solver {
		s := New()
		const holes, pigeons = 3, 4
		v := make([][]Var, pigeons)
		for p := range v {
			v[p] = make([]Var, holes)
			for h := range v[p] {
				v[p][h] = s.NewVar()
			}
		}
		for p := 0; p < pigeons; p++ {
			lits := make([]Lit, holes)
			for h := 0; h < holes; h++ {
				lits[h] = PosLit(v[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					s.AddClause(NegLit(v[p1][h]), NegLit(v[p2][h]))
				}
			}
		}
		return s
	}
	src, dst := build(), build()
	var shared [][]Lit
	src.SetLearntHook(func(lits []Lit, lbd int) {
		if lbd <= 2 && len(lits) <= 8 {
			shared = append(shared, append([]Lit(nil), lits...))
		}
	})
	if src.Solve() != Unsat {
		t.Fatal("source must prove UNSAT")
	}
	for _, cl := range shared {
		dst.ImportLearnt(cl, 2)
	}
	if dst.Solve() != Unsat {
		t.Fatal("importing sound clauses flipped the verdict")
	}
}

// TestImportLearntRefusedUnderDRAT: importing while proof logging is active
// would record underivable clauses, so it must be refused.
func TestImportLearntRefusedUnderDRAT(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	var sink nopWriter
	s.AttachProof(&sink)
	if s.ImportLearnt([]Lit{NegLit(a), PosLit(b)}, 1) {
		t.Fatal("import accepted while DRAT logging is active")
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
