package portfolio

import (
	"context"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/rowpack"
	"repro/internal/sat"
)

func fig1b(t testing.TB) *bitmat.Matrix {
	t.Helper()
	return bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
}

func TestNamesResolve(t *testing.T) {
	for _, name := range Names() {
		st, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if st.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, st.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown strategy resolved")
	}
}

func TestDefaultStrategiesDeterministic(t *testing.T) {
	base := Canonical()
	a := DefaultStrategies(base, 4, 42)
	b := DefaultStrategies(base, 4, 42)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("expected 4 strategies, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("same seed produced different sets: %v vs %v", a, b)
		}
	}
	if a[0].Name != "canonical" {
		t.Fatalf("strategy 0 must be the base, got %q", a[0].Name)
	}
	seen := map[string]bool{}
	for _, st := range a {
		if seen[st.Name] {
			t.Fatalf("duplicate strategy %q", st.Name)
		}
		seen[st.Name] = true
	}
	// A different seed may reorder the companions. k beyond the pool clamps
	// to every name except native-amo, which is skipped as a clone of the
	// canonical base.
	c := DefaultStrategies(base, len(Names())+2, 7)
	if len(c) != len(Names())-1 {
		t.Fatalf("k beyond the pool should clamp to %d, got %d", len(Names())-1, len(c))
	}
}

func TestSeedStableAndDiscriminating(t *testing.T) {
	m := fig1b(t)
	if Seed(m) != Seed(m.Clone()) {
		t.Fatal("seed not a function of the matrix")
	}
	other := m.Clone()
	other.Set(0, 1, true)
	if Seed(m) == Seed(other) {
		t.Fatal("seed collision on a one-bit flip (vanishingly unlikely)")
	}
}

func TestExchangePublishCollect(t *testing.T) {
	ex := NewExchange(4)
	ex.Publish(0, []sat.Lit{sat.PosLit(1), sat.NegLit(2)}, 2)
	ex.Publish(1, []sat.Lit{sat.PosLit(3)}, 1)

	var got [][]sat.Lit
	cursor := ex.Collect(0, 0, func(lits []sat.Lit, lbd int) {
		got = append(got, append([]sat.Lit(nil), lits...))
	})
	if len(got) != 1 || got[0][0] != sat.PosLit(3) {
		t.Fatalf("collector 0 should only see racer 1's clause, got %v", got)
	}
	// Nothing new: cursor advanced to head.
	n := 0
	cursor = ex.Collect(cursor, 0, func([]sat.Lit, int) { n++ })
	if n != 0 {
		t.Fatalf("stale cursor re-delivered %d clauses", n)
	}
	// Lapping: publish 2×capacity more, the stale reader resumes at the
	// oldest surviving entry instead of reading recycled slots twice.
	for i := 0; i < 8; i++ {
		ex.Publish(1, []sat.Lit{sat.PosLit(sat.Var(10 + i))}, 1)
	}
	n = 0
	ex.Collect(cursor, 0, func([]sat.Lit, int) { n++ })
	if n != 4 {
		t.Fatalf("lapped reader should see exactly capacity entries, got %d", n)
	}
	if ex.Exported() != 10 {
		t.Fatalf("exported = %d, want 10", ex.Exported())
	}
}

// TestRaceFig1bUnsatImmediately: the heuristic finds depth 5 (optimal), so
// the race's only round proves bound 4 UNSAT.
func TestRaceFig1bUnsatImmediately(t *testing.T) {
	m := fig1b(t)
	ub := rowpack.Pack(m, rowpack.Options{Trials: 100, Seed: 1}).Depth()
	if ub != 5 {
		t.Fatalf("fig1b heuristic depth = %d, want 5", ub)
	}
	for _, share := range []bool{false, true} {
		out := Race(context.Background(), RaceSpec{
			M:            m,
			Start:        ub - 1,
			LB:           m.Rank(),
			Strategies:   DefaultStrategies(Canonical(), 3, Seed(m)),
			ShareClauses: share,
		})
		if !out.UnsatProven || out.BestBound != -1 {
			t.Fatalf("share=%v: want immediate UNSAT, got %+v", share, out)
		}
		if out.Rounds != 1 || out.Winner == "" {
			t.Fatalf("share=%v: want one decided round, got %+v", share, out)
		}
		if out.Wins[out.Winner] != 1 {
			t.Fatalf("share=%v: winner not recorded in Wins: %+v", share, out)
		}
	}
}

// TestRaceNarrowsToBound: a matrix whose heuristic overshoots races down to
// the rank bound and stops there, satisfiable.
func TestRaceNarrowsToBound(t *testing.T) {
	// Identity-like matrix: depth = rank = 3, but give the race a start
	// above the bound so it must prove Sat rounds on the way down.
	m := bitmat.MustParse("100\n010\n001")
	out := Race(context.Background(), RaceSpec{
		M:          m,
		Start:      4,
		LB:         3,
		Strategies: DefaultStrategies(Canonical(), 3, Seed(m)),
	})
	if out.BestBound != 3 || out.UnsatProven {
		t.Fatalf("want Sat down to bound 3, got %+v", out)
	}
	if out.Rounds != 2 {
		t.Fatalf("want 2 rounds (bounds 4 and 3), got %+v", out)
	}
}

// TestRaceStrategyBudgetsForceWinner: starving all but one racer forces the
// verdict to come from the survivor, and the statuses stay correct.
func TestRaceStrategyBudgetsForceWinner(t *testing.T) {
	m := fig1b(t)
	strategies := DefaultStrategies(Canonical(), 3, Seed(m))
	for forced := range strategies {
		budgets := make([]int64, len(strategies))
		for i := range budgets {
			budgets[i] = 1
		}
		budgets[forced] = 0 // uncapped
		out := Race(context.Background(), RaceSpec{
			M:               m,
			Start:           4,
			LB:              m.Rank(),
			Strategies:      strategies,
			StrategyBudgets: budgets,
		})
		if !out.UnsatProven {
			t.Fatalf("forced=%d: race failed to prove UNSAT: %+v", forced, out)
		}
		// The bound-4 refutation needs well over one conflict, so only the
		// uncapped racer can have delivered it.
		if out.Winner != strategies[forced].Name {
			t.Fatalf("forced=%d: winner = %q, want %q", forced, out.Winner, strategies[forced].Name)
		}
	}
}

// TestRaceGlobalBudgetExhausts: a tiny shared budget ends the race undecided.
func TestRaceGlobalBudgetExhausts(t *testing.T) {
	m := fig1b(t)
	out := Race(context.Background(), RaceSpec{
		M:              m,
		Start:          4,
		LB:             m.Rank(),
		Strategies:     DefaultStrategies(Canonical(), 3, Seed(m)),
		ConflictBudget: 1,
		Chunk:          1,
	})
	if !out.TimedOut {
		t.Fatalf("want TimedOut on a 1-conflict budget, got %+v", out)
	}
}

// TestRaceCanceledContext: cancellation surfaces as TimedOut+Canceled.
func TestRaceCanceledContext(t *testing.T) {
	m := fig1b(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := Race(ctx, RaceSpec{
		M:          m,
		Start:      4,
		LB:         m.Rank(),
		Strategies: DefaultStrategies(Canonical(), 3, Seed(m)),
		Chunk:      64,
	})
	if !out.TimedOut || !out.Canceled {
		t.Fatalf("want canceled outcome, got %+v", out)
	}
}

// TestRaceDeadline: an already-expired deadline ends the race undecided.
func TestRaceDeadline(t *testing.T) {
	m := fig1b(t)
	out := Race(context.Background(), RaceSpec{
		M:          m,
		Start:      4,
		LB:         m.Rank(),
		Strategies: DefaultStrategies(Canonical(), 3, Seed(m)),
		Deadline:   time.Now().Add(-time.Second),
	})
	if !out.TimedOut || out.Canceled {
		t.Fatalf("want deadline timeout, got %+v", out)
	}
}

// TestRaceSharingTraffic: with sharing on, a conflict-heavy UNSAT proof
// exports glue clauses and at least lets other racers import them without
// corrupting the verdict (the disagreement panic in runRound guards
// soundness on every test that races).
func TestRaceSharingTraffic(t *testing.T) {
	m := fig1b(t)
	// Pin the set rather than draw it from the default shuffle, so the
	// racers of this round do not move when the pool changes.
	sts, err := Resolve(Canonical(), []string{"canonical", "pairwise-amo", "seq-amo", "destructive"})
	if err != nil {
		t.Fatal(err)
	}
	out := Race(context.Background(), RaceSpec{
		M:            m,
		Start:        4,
		LB:           m.Rank(),
		Strategies:   sts,
		ShareClauses: true,
		Chunk:        256, // frequent import points
		HeadStart:    -1,  // race from the first conflict
	})
	if !out.Escalated {
		t.Fatal("HeadStart<0 must race immediately")
	}
	if !out.UnsatProven {
		t.Fatalf("want UNSAT, got %+v", out)
	}
	if out.SharedExported == 0 {
		t.Fatal("sharing enabled but nothing was exported")
	}
}
