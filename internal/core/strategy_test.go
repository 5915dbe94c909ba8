package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/encode"
)

// fig1bMatrix is the paper's Figure 1b pattern: rank 4, optimum 5, and
// bound 4 is refuted in 10 conflicts.
func fig1bMatrix() *bitmat.Matrix {
	return bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
}

// strategyTestOptions solves exactly under a generous budget with the
// fooling bound off, so Fig. 1b's optimality needs the SAT stage.
func strategyTestOptions() Options {
	opts := DefaultOptions()
	opts.FoolingBudget = 0
	opts.ConflictBudget = 5_000_000
	return opts
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

// TestResolveStrategiesBaseMirrorsOptions: the empty strategy and
// "canonical" run the configuration the ablation fields describe, the
// default options map to Canonical, and any other name runs its pool entry
// as it stands.
func TestResolveStrategiesBaseMirrorsOptions(t *testing.T) {
	if got, err := strategyFor(DefaultOptions()); err != nil || got != Canonical() {
		t.Fatalf("default options map to %+v (%v), want Canonical %+v", got, err, Canonical())
	}
	opts := DefaultOptions()
	opts.AMO = encode.AMOSequential
	opts.DisableIncremental = true
	opts.DisableSymmetryBreaking = true
	opts.DisablePhaseSaving = true
	opts.DisableInprocessing = true
	for _, name := range []string{"", "canonical"} {
		opts.Strategy = name
		st, err := strategyFor(opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Name != "canonical" || st.AMO != encode.AMOSequential || !st.Destructive ||
			!st.NoSymmetryBreaking || st.Solver.PhaseSaving || st.Solver.Inprocess {
			t.Fatalf("strategy %q does not mirror the options: %+v", name, st)
		}
	}
	opts.Strategy = "luby"
	luby, _ := ByName("luby")
	if st, err := strategyFor(opts); err != nil || st != luby {
		t.Fatalf("named strategy resolved to %+v (%v), want %+v", st, err, luby)
	}
}

// TestPortfolioSingleNamedStrategy: naming one strategy (the wire's
// one-name "portfolio_strategies") runs that strategy alone, not silently
// the canonical one.
func TestPortfolioSingleNamedStrategy(t *testing.T) {
	opts := strategyTestOptions()
	opts.Strategy = "luby"
	if st, err := strategyFor(opts); err != nil || !st.Solver.LubyRestarts {
		t.Fatalf("luby resolved to %+v (%v)", st, err)
	}
	res, err := Solve(fig1bMatrix(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 5 || !res.Optimal || res.Certificate != CertUnsat {
		t.Fatalf("luby-only solve wrong: depth=%d optimal=%v certificate=%v", res.Depth, res.Optimal, res.Certificate)
	}
}

// TestPortfolioUnknownStrategy: a bad strategy name, or a list of names, is
// an error on every input, not a panic or a silent fallback.
func TestPortfolioUnknownStrategy(t *testing.T) {
	for _, name := range []string{"bogus", "canonical,luby"} {
		opts := strategyTestOptions()
		opts.Strategy = name
		for _, m := range []*bitmat.Matrix{fig1bMatrix(), bitmat.MustParse("11\n01")} {
			if _, err := Solve(m, opts); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
				t.Fatalf("strategy %q on\n%s: err %v, want unknown strategy", name, m, err)
			}
		}
	}
}

// TestPortfolioTimeBudget: a time budget that expires before the SAT stage
// still returns a valid heuristic partition with TimedOut set.
func TestPortfolioTimeBudget(t *testing.T) {
	opts := strategyTestOptions()
	opts.TimeBudget = time.Nanosecond
	res, err := Solve(fig1bMatrix(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.SATCalls != 0 {
		t.Fatalf("nanosecond budget: timed out %v, SAT calls %d; want true, 0", res.TimedOut, res.SATCalls)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("invalid partition after timeout: %v", err)
	}
}

// TestUndecidedProbeCountsSATCall: a budget that runs out inside a bound
// still counts the attempted bound as a SAT call, and charges exactly the
// budget. Fig. 1b's bound-4 refutation needs 10 conflicts, so a
// 5-conflict budget leaves it undecided.
func TestUndecidedProbeCountsSATCall(t *testing.T) {
	opts := strategyTestOptions()
	opts.ConflictBudget = 5
	res, err := Solve(fig1bMatrix(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SATCalls != 1 || res.Conflicts != 5 || !res.TimedOut || res.Canceled {
		t.Errorf("SAT calls %d, conflicts %d, timed out %v, canceled %v; want 1, 5, true, false",
			res.SATCalls, res.Conflicts, res.TimedOut, res.Canceled)
	}
}

// TestNarrowOutcomes drives the narrowing loop directly through each way it
// can end: an UNSAT bound, the lower bound, the conflict budget, the
// context and the deadline.
func TestNarrowOutcomes(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name         string
		ctx          context.Context
		m            *bitmat.Matrix
		start, lb    int
		budget       int64
		deadline     time.Time
		unsat        bool
		depth        int // partition depth after the loop, 0 = none found
		calls        int
		conflicts    int64 // -1 = not checked
		timedOut     bool
		wantCanceled bool
	}{
		// Packing finds Fig. 1b's optimum, so the first bound is UNSAT.
		{name: "unsat-immediately", m: fig1bMatrix(), start: 4, lb: 4, unsat: true, calls: 1, conflicts: 10},
		// Start above the optimum: satisfiable bounds narrow down to lb.
		{name: "narrows-to-bound", m: bitmat.MustParse("100\n010\n001"), start: 4, lb: 3, depth: 3, calls: 2, conflicts: -1},
		{name: "budget-exhausts", m: fig1bMatrix(), start: 4, lb: 4, budget: 1, calls: 1, conflicts: 1, timedOut: true},
		{name: "canceled", ctx: canceled, m: fig1bMatrix(), start: 4, lb: 4, calls: 1, timedOut: true, wantCanceled: true},
		{name: "deadline", m: fig1bMatrix(), start: 4, lb: 4, deadline: time.Now().Add(-time.Second), calls: 1, timedOut: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			res := &Result{}
			unsat, err := narrow(ctx, res, tc.m, 0, tc.start, tc.lb, Canonical(), tc.budget, tc.deadline)
			if err != nil {
				t.Fatal(err)
			}
			depth := 0
			if res.Partition != nil {
				if err := res.Partition.Validate(); err != nil {
					t.Fatal(err)
				}
				depth = res.Partition.Depth()
			}
			if unsat != tc.unsat || depth != tc.depth || res.SATCalls != tc.calls ||
				res.TimedOut != tc.timedOut || res.Canceled != tc.wantCanceled {
				t.Errorf("unsat %v, depth %d, SAT calls %d, timed out %v, canceled %v; want %v, %d, %d, %v, %v",
					unsat, depth, res.SATCalls, res.TimedOut, res.Canceled,
					tc.unsat, tc.depth, tc.calls, tc.timedOut, tc.wantCanceled)
			}
			if tc.conflicts >= 0 && res.Conflicts != tc.conflicts {
				t.Errorf("conflicts %d, want %d", res.Conflicts, tc.conflicts)
			}
		})
	}
}
