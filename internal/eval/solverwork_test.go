package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/sat"
)

// The solver-work pins: for each committed suite on the default solve path,
// the summed depth, SAT conflicts, decisions and propagations, SAT calls,
// rank and fooling lower bounds and heuristic depth, plus a SHA-256 over
// every partition as index lists. Propagations see a reordered watch list
// even where the conflict counts happen to coincide.
// All of them repeat exactly per input, so a change that means to leave the
// search alone (a refactor, a deleted ablation) must leave every value here
// unchanged, and a change that means to move the search states its new
// values in review.
//
// Reproduce one row: go test -count=1 -run TestSolverWorkPins -v ./internal/eval/

// workPin is one suite's expected totals.
type workPin struct {
	name      string
	ms        func() []*bitmat.Matrix
	opts      func() core.Options
	depth     int
	conflicts int64
	decisions int64
	props     int64 // propagations
	satCalls  int
	optimal   int // instances proved optimal
	rankLB    int
	foolingLB int
	heuristic int // summed Result.HeuristicDepth
	sha       string
}

func foolingOff() core.Options {
	opts := core.DefaultOptions()
	opts.FoolingBudget = 0
	return opts
}

func matrices(suite []benchgen.Instance) []*bitmat.Matrix {
	ms := make([]*bitmat.Matrix, len(suite))
	for i, ins := range suite {
		ms[i] = ins.M
	}
	return ms
}

// paperSuitesSmall is PaperSuites(2024, 2, 10) without the 100×100 cell
// (too large for the exact stage), in Table I row order.
func paperSuitesSmall() []*bitmat.Matrix {
	suites := PaperSuites(2024, 2, 10)
	var ms []*bitmat.Matrix
	for _, name := range SuiteOrder() {
		if name == "100x100, rand" {
			continue
		}
		ms = append(ms, matrices(suites[name])...)
	}
	return ms
}

// hardTail is the hard-tail suite of DESIGN §9: 15 gap instances, each of
// which took at least 1 s under core.DefaultOptions() before the encoder
// pinned a fooling set, listed as (seed, n, pairs)[indices] of
// benchgen.GapSuite(seed, n, n, []int{pairs}, 8).
func hardTail() []*bitmat.Matrix {
	calls := []struct {
		seed     int64
		n, pairs int
		idx      []int
	}{
		{77, 14, 4, []int{5}},
		{77, 16, 4, []int{3, 4, 5}},
		{77, 16, 6, []int{4, 6}},
		{1203, 16, 4, []int{4, 5}},
		{4242, 14, 4, []int{5}},
		{4242, 16, 4, []int{3, 6}},
		{9001, 14, 4, []int{4}},
		{9001, 16, 4, []int{2, 4, 7}},
	}
	var ms []*bitmat.Matrix
	for _, c := range calls {
		suite := benchgen.GapSuite(c.seed, c.n, c.n, []int{c.pairs}, 8)
		for _, i := range c.idx {
			ms = append(ms, suite[i].M)
		}
	}
	return ms
}

func solverWorkPins() []workPin {
	return []workPin{
		{
			name: "table-i-gap", ms: GapSuiteMatrices, opts: TableIGapSAPOptions,
			depth: 141, conflicts: 503, satCalls: 4, optimal: 20,
			decisions: 664, props: 41_959,
			rankLB: 137, heuristic: 141,
			sha: "c8dc566e7288c72a8abc96c6c3334acd39c0cd9ee910222c0ae16a41d294b9ed",
		},
		{
			// The narrowing ablations of the Table I gap suite.
			name: "table-i-gap-destructive", ms: GapSuiteMatrices,
			opts: func() core.Options {
				opts := TableIGapSAPOptions()
				opts.DisableIncremental = true
				return opts
			},
			depth: 141, conflicts: 395, satCalls: 4, optimal: 20,
			decisions: 530, props: 36_341,
			rankLB: 137, heuristic: 141,
			sha: "c8dc566e7288c72a8abc96c6c3334acd39c0cd9ee910222c0ae16a41d294b9ed",
		},
		{
			name: "table-i-gap-no-symbreak", ms: GapSuiteMatrices,
			opts: func() core.Options {
				opts := TableIGapSAPOptions()
				opts.DisableSymmetryBreaking = true
				return opts
			},
			depth: 141, conflicts: 7_082, satCalls: 4, optimal: 20,
			decisions: 7994, props: 389_779,
			rankLB: 137, heuristic: 141,
			sha: "c8dc566e7288c72a8abc96c6c3334acd39c0cd9ee910222c0ae16a41d294b9ed",
		},
		{
			name: "blockdiag-decomposed", ms: BlockDiagSAPMatrices,
			opts:  func() core.Options { return BlockDiagSAPOptions(true) },
			depth: 75, conflicts: 0, satCalls: 1, optimal: 3,
			decisions: 0, props: 141,
			rankLB: 74, heuristic: 75,
			sha: "a175b932e75a2cf99776824d45fce5055f9755222fb450f945ae6e64e8c086db",
		},
		{
			name: "blockdiag-whole", ms: BlockDiagSAPMatrices,
			opts:  func() core.Options { return BlockDiagSAPOptions(false) },
			depth: 75, conflicts: 0, satCalls: 1, optimal: 3,
			decisions: 0, props: 1763,
			rankLB: 74, heuristic: 75,
			sha: "c474c8b20ab9f8cfa9d618b3f5c66cc72eda470202dfdeb5a17f141620caae17",
		},
		{
			name: "gap-12x12-p3",
			ms:   func() []*bitmat.Matrix { return matrices(benchgen.GapSuite(1203, 12, 12, []int{3}, 4)) },
			opts: foolingOff, depth: 43, conflicts: 542, satCalls: 3, optimal: 4,
			decisions: 719, props: 55_632,
			rankLB: 39, heuristic: 43,
			sha: "5ba6f1673c97d58ede6314cbd78aadb7186e44bf756ba1eadeec8dddc8044e82",
		},
		{
			name: "paper-suites-small", ms: paperSuitesSmall,
			opts: func() core.Options {
				opts := foolingOff()
				opts.ConflictBudget = 200_000
				return opts
			},
			depth: 886, conflicts: 401, satCalls: 9, optimal: 114,
			decisions: 554, props: 34_088,
			rankLB: 876, heuristic: 886,
			sha: "c863bc0aa8e6b044dee1898fd44e9d65ae6025ede6f41aa3d931621eeebb7d71",
		},
		{
			// One probe of ~25k conflicts crosses the narrowing loop's
			// 20 000-conflict chunk boundary (a 30 000 chunk spends 25 164).
			name: "chunk-boundary",
			ms: func() []*bitmat.Matrix {
				return matrices(benchgen.GapSuite(1203, 12, 12, []int{3, 4, 5}, 3)[5:6])
			},
			opts: func() core.Options {
				opts := foolingOff()
				opts.DisableSymmetryBreaking = true
				return opts
			},
			depth: 11, conflicts: 25_502, satCalls: 1, optimal: 1,
			decisions: 27_661, props: 1_375_152,
			rankLB: 9, heuristic: 11,
			sha: "4b05260eef176345c421b18e7e703a3c2a702df32a82260a8b83fffd68a3c334",
		},
		{
			// The budget runs out inside a probe on one instance (300 of
			// the 531 conflicts its proof takes unbudgeted).
			name: "budget-mid-probe",
			ms:   func() []*bitmat.Matrix { return matrices(benchgen.GapSuite(1203, 12, 12, []int{3}, 4)) },
			opts: func() core.Options {
				opts := foolingOff()
				opts.ConflictBudget = 300
				return opts
			},
			depth: 43, conflicts: 311, satCalls: 3, optimal: 3,
			decisions: 406, props: 32_809,
			rankLB: 39, heuristic: 43,
			sha: "5ba6f1673c97d58ede6314cbd78aadb7186e44bf756ba1eadeec8dddc8044e82",
		},
		{
			// A single named strategy runs alone through the one narrowing loop.
			name: "single-named-strategy", ms: GapSuiteMatrices,
			opts: func() core.Options {
				opts := TableIGapSAPOptions()
				opts.Strategy = "luby"
				return opts
			},
			depth: 141, conflicts: 486, satCalls: 4, optimal: 20,
			decisions: 732, props: 43_429,
			rankLB: 137, heuristic: 141,
			sha: "c8dc566e7288c72a8abc96c6c3334acd39c0cd9ee910222c0ae16a41d294b9ed",
		},
		{
			// The path the daemons run: default options (fooling bound on)
			// under the load benchmark's per-request conflict budget. Its
			// rank-certified blocks report their greedy fooling sets
			// (830 when every block ran the exact search).
			name: "daemon-default",
			ms: func() []*bitmat.Matrix {
				return append(paperSuitesSmall(), matrices(benchgen.GapSuite(1203, 12, 12, []int{3}, 4))...)
			},
			opts: func() core.Options {
				opts := core.DefaultOptions()
				opts.ConflictBudget = 1_000
				return opts
			},
			depth: 929, conflicts: 13, satCalls: 7, optimal: 118,
			decisions: 21, props: 3107,
			rankLB: 915, foolingLB: 804, heuristic: 929,
			sha: "8bf5c46ce4a68f321d63abc5f2e4d20f565872d364cd95e54beb0185a9543334",
		},
		{
			// The hard tail under the default options, unbudgeted in
			// conflicts: every instance is proved optimal.
			name: "hard-tail", ms: hardTail, opts: core.DefaultOptions,
			depth: 220, conflicts: 6_303, satCalls: 18, optimal: 15,
			decisions: 10_655, props: 860_716,
			rankLB: 185, foolingLB: 183, heuristic: 223,
			sha: "8a327af078fb50cb21783fb07554a552fcc505c9d929bfa0df90b64470e6bffe",
		},
		{
			// An instance that stays hard with the pinned fooling set: one
			// UNSAT proof of about 30 000 conflicts under the default options.
			name: "still-hard",
			ms: func() []*bitmat.Matrix {
				return matrices(benchgen.GapSuite(1203, 20, 20, []int{4}, 8)[1:2])
			},
			opts:  core.DefaultOptions,
			depth: 20, conflicts: 30_893, satCalls: 1, optimal: 1,
			decisions: 63_040, props: 5_959_351,
			rankLB: 17, foolingLB: 15, heuristic: 20,
			sha: "2c8548bc4cec624e607c621eba6939a0bc6d21d6ecbfc18686f6cf72a8f5a88a",
		},
	}
}

// partitionDigest hashes partitions as "rows|cols;" index lists, one line
// per matrix, in suite order.
func partitionDigest(results []*core.Result) string {
	h := sha256.New()
	for _, res := range results {
		for _, r := range res.Partition.Rects {
			fmt.Fprintf(h, "%v|%v;", r.RowIndices(), r.ColIndices())
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSolverWorkPins solves every pinned suite and compares the totals.
func TestSolverWorkPins(t *testing.T) {
	for _, pin := range solverWorkPins() {
		t.Run(pin.name, func(t *testing.T) {
			opts := pin.opts()
			var (
				depth, calls, optimal        int
				rankLB, foolingLB, heuristic int
				conflicts, decisions, props  int64
				results                      []*core.Result
			)
			for i, m := range pin.ms() {
				res, err := core.Solve(m, opts)
				if err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				depth += res.Depth
				conflicts += res.Conflicts
				decisions += res.Decisions
				props += res.Propagations
				calls += res.SATCalls
				rankLB += res.RankLB
				foolingLB += res.FoolingLB
				heuristic += res.HeuristicDepth
				if res.Optimal {
					optimal++
				}
				results = append(results, res)
			}
			sha := partitionDigest(results)
			t.Logf("%d instances: depth %d, conflicts %d, decisions %d, propagations %d, SAT calls %d, optimal %d, rank LB %d, fooling LB %d, heuristic depth %d, partitions %s",
				len(results), depth, conflicts, decisions, props, calls, optimal, rankLB, foolingLB, heuristic, sha)
			if depth != pin.depth || conflicts != pin.conflicts || calls != pin.satCalls || optimal != pin.optimal {
				t.Errorf("depth/conflicts/calls/optimal = %d/%d/%d/%d, pinned %d/%d/%d/%d",
					depth, conflicts, calls, optimal, pin.depth, pin.conflicts, pin.satCalls, pin.optimal)
			}
			if decisions != pin.decisions || props != pin.props {
				t.Errorf("decisions/propagations = %d/%d, pinned %d/%d", decisions, props, pin.decisions, pin.props)
			}
			if rankLB != pin.rankLB || foolingLB != pin.foolingLB || heuristic != pin.heuristic {
				t.Errorf("rank LB/fooling LB/heuristic depth = %d/%d/%d, pinned %d/%d/%d",
					rankLB, foolingLB, heuristic, pin.rankLB, pin.foolingLB, pin.heuristic)
			}
			if sha != pin.sha {
				t.Errorf("partition digest %s, pinned %s", sha, pin.sha)
			}
		})
	}
}

// TestFig1bDecisionPin pins the encoder's work on the paper's Figure 1b
// pattern at bound 4, one below its optimum of 5: the default encoder, and
// the pairwise-AMO encoder BenchmarkSolverFig1bUnsat times. (Solve itself
// proves Fig. 1b by its fooling set, without SAT.)
func TestFig1bDecisionPin(t *testing.T) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	for _, c := range []struct {
		name                               string
		enc                                encode.Encoder
		conflicts, decisions, propagations int64
	}{
		{"native", core.Canonical().NewEncoder(m, 4), 10, 9, 375},
		{"pairwise", encode.NewOneHot(m, 4, encode.AMOPairwise), 10, 9, 345},
	} {
		if st := c.enc.Solve(); st != sat.Unsat {
			t.Fatalf("%s: status %v, want UNSAT", c.name, st)
		}
		s := c.enc.Solver()
		if s.Conflicts != c.conflicts || s.Decisions != c.decisions || s.Propagations != c.propagations {
			t.Errorf("%s: conflicts/decisions/propagations = %d/%d/%d, pinned %d/%d/%d", c.name,
				s.Conflicts, s.Decisions, s.Propagations, c.conflicts, c.decisions, c.propagations)
		}
	}
}
