package core

import (
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/encode"
	"repro/internal/portfolio"
)

// portfolioTestOptions is the base configuration the portfolio tests race
// under: exact solves with a generous budget, fooling off for speed.
func portfolioTestOptions() Options {
	opts := DefaultOptions()
	opts.FoolingBudget = 0
	opts.ConflictBudget = 5_000_000
	return opts
}

// TestPortfolioMatchesSequential: on the Table I gap suites the racing
// solver must agree with the unraced (one-strategy) solver on depth,
// optimality and certificate — with and without clause sharing.
func TestPortfolioMatchesSequential(t *testing.T) {
	for pairs := 2; pairs <= 4; pairs++ {
		for _, ins := range benchgen.GapSuite(14+int64(pairs), 10, 10, []int{pairs}, 2) {
			seq, err := Solve(ins.M, portfolioTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, share := range []bool{false, true} {
				opts := portfolioTestOptions()
				opts.Portfolio.Size = 3
				opts.Portfolio.ShareClauses = share
				res, err := Solve(ins.M, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Depth != seq.Depth || res.Optimal != seq.Optimal || res.Certificate != seq.Certificate {
					t.Fatalf("share=%v: portfolio (depth=%d opt=%v cert=%v) != sequential (depth=%d opt=%v cert=%v)\n%s",
						share, res.Depth, res.Optimal, res.Certificate,
						seq.Depth, seq.Optimal, seq.Certificate, ins.M)
				}
				if err := res.Partition.Validate(); err != nil {
					t.Fatalf("share=%v: invalid portfolio partition: %v", share, err)
				}
				if res.Portfolio == nil {
					t.Fatalf("share=%v: racing ran but Result.Portfolio is nil", share)
				}
			}
		}
	}
}

// TestPortfolioDeterministicAcrossWinners is the determinism contract's
// direct test: the same matrix solved with each strategy forced to win in
// turn (every other racer starved to a 1-conflict lifetime budget) must
// produce the identical depth, partition and certificate.
func TestPortfolioDeterministicAcrossWinners(t *testing.T) {
	strategies := []string{"canonical", "luby", "destructive"}
	for _, ins := range benchgen.GapSuite(17, 10, 10, []int{3}, 2) {
		type outcome struct {
			depth     int
			partition string
			cert      Certificate
			optimal   bool
		}
		var outcomes []outcome
		for forced := range strategies {
			budgets := make([]int64, len(strategies))
			for i := range budgets {
				budgets[i] = 1
			}
			budgets[forced] = 0 // uncapped
			opts := portfolioTestOptions()
			opts.Portfolio.Strategies = strategies
			opts.Portfolio.StrategyBudgets = budgets
			res, err := Solve(ins.M, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Partition.Validate(); err != nil {
				t.Fatalf("forced=%s: invalid partition: %v", strategies[forced], err)
			}
			outcomes = append(outcomes, outcome{
				depth:     res.Depth,
				partition: res.Partition.Canonicalize().String(),
				cert:      res.Certificate,
				optimal:   res.Optimal,
			})
		}
		for i := 1; i < len(outcomes); i++ {
			if outcomes[i] != outcomes[0] {
				t.Fatalf("forced winner %s changed the result:\n%+v\nvs %s:\n%+v\non\n%s",
					strategies[i], outcomes[i], strategies[0], outcomes[0], ins.M)
			}
		}
	}
}

// TestPortfolioRepeatedRunsIdentical: racing is timing-nondeterministic
// internally, so re-running the same solve must still give the same
// partition bits (the canonical re-derivation contract).
func TestPortfolioRepeatedRunsIdentical(t *testing.T) {
	ins := benchgen.GapSuite(21, 10, 10, []int{4}, 1)[0]
	opts := portfolioTestOptions()
	opts.Portfolio.Size = 4
	opts.Portfolio.ShareClauses = true
	var first string
	for run := 0; run < 3; run++ {
		res, err := Solve(ins.M, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Partition.Canonicalize().String()
		if run == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d produced a different partition:\n%s\nvs\n%s", run, got, first)
		}
	}
}

// TestPortfolioBlockStats: a block-diagonal matrix decomposes, and the
// recombiner must line BlockWinners up with the block order and merge the
// win counts.
func TestPortfolioBlockStats(t *testing.T) {
	// Two copies of Fig. 1b (rank 4 < depth 5, so each block really races)
	// on a block diagonal.
	a := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	n := a.Rows()
	m := bitmat.New(2*n, 2*n)
	a.ForEachOne(func(i, j int) {
		m.Set(i, j, true)
		m.Set(i+n, j+n, true)
	})
	opts := portfolioTestOptions()
	opts.Portfolio.Size = 3
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 2 {
		t.Fatalf("expected 2 blocks, got %d", res.Blocks)
	}
	if res.Portfolio == nil || len(res.Portfolio.BlockWinners) != res.Blocks {
		t.Fatalf("BlockWinners misaligned: %+v", res.Portfolio)
	}
	total := 0
	for _, n := range res.Portfolio.Wins {
		total += n
	}
	if total == 0 {
		t.Fatalf("no race wins recorded: %+v", res.Portfolio)
	}
}

// TestPortfolioSingleNamedStrategy: naming one strategy must run that
// strategy alone (the "-strategies implies -portfolio" contract), not
// silently fall back to the canonical one.
func TestPortfolioSingleNamedStrategy(t *testing.T) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	opts := portfolioTestOptions()
	opts.Portfolio.Strategies = []string{"luby"}
	if !opts.Portfolio.Enabled() {
		t.Fatal("a single named strategy must enable the racing layer")
	}
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 5 || !res.Optimal {
		t.Fatalf("luby-only solve wrong: depth=%d optimal=%v", res.Depth, res.Optimal)
	}
	if res.Portfolio == nil || res.Portfolio.Wins["luby"] == 0 {
		t.Fatalf("luby strategy did not run: %+v", res.Portfolio)
	}
}

// TestPortfolioUnknownStrategy: a bad strategy name must error, not panic.
func TestPortfolioUnknownStrategy(t *testing.T) {
	opts := portfolioTestOptions()
	opts.Portfolio.Strategies = []string{"canonical", "bogus"}
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	if _, err := Solve(m, opts); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestPortfolioTimeBudget: an expired time budget still returns a valid
// heuristic partition with TimedOut set.
func TestPortfolioTimeBudget(t *testing.T) {
	// Fig. 1b: rank 4 < depth 5, so the SAT stage must run — and hit the
	// already-expired deadline before racing.
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	opts := portfolioTestOptions()
	opts.Portfolio.Size = 3
	opts.TimeBudget = time.Nanosecond
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("nanosecond budget did not time out")
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("invalid partition after timeout: %v", err)
	}
}

// TestUndecidedHeadStartCountsSATCall: a budget that runs out during the
// solo head start still counts the attempted bound as a SAT call, exactly
// like the unraced solve of the same block. Fig. 1b's bound-4 refutation
// needs 10 conflicts, so a 5-conflict budget leaves it undecided.
func TestUndecidedHeadStartCountsSATCall(t *testing.T) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	for _, size := range []int{0, 3} {
		opts := portfolioTestOptions()
		opts.ConflictBudget = 5
		opts.Portfolio.Size = size
		res, err := Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.SATCalls != 1 || res.Conflicts != 5 || !res.TimedOut {
			t.Errorf("portfolio size %d: SAT calls %d, conflicts %d, timed out %v; want 1, 5, true",
				size, res.SATCalls, res.Conflicts, res.TimedOut)
		}
	}
}

// TestResolveStrategiesBaseMirrorsOptions: racer 0 must inherit the
// single-strategy knobs, so "canonical" in a race is exactly the solver a
// non-racing Solve would run, and the default options map to Canonical.
func TestResolveStrategiesBaseMirrorsOptions(t *testing.T) {
	if got := baseStrategy(DefaultOptions()); got != portfolio.Canonical() {
		t.Fatalf("default options map to %+v, want Canonical %+v", got, portfolio.Canonical())
	}
	opts := DefaultOptions()
	opts.AMO = encode.AMOSequential
	opts.DisableIncremental = true
	opts.DisableSymmetryBreaking = true
	opts.DisablePhaseSaving = true
	opts.DisableInprocessing = true
	opts.Portfolio.Size = 3
	m := bitmat.MustParse("11\n01")
	sts, err := resolveStrategies(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := sts[0]
	if base.Name != "canonical" || base.AMO != encode.AMOSequential || !base.Destructive ||
		!base.NoSymmetryBreaking || base.Solver.PhaseSaving || base.Solver.Inprocess {
		t.Fatalf("base strategy does not mirror options: %+v", base)
	}
}
