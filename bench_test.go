// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md. Percentages that the paper reports are attached to the bench
// output via b.ReportMetric (look for pct_* metrics); runtimes come from the
// usual ns/op.
//
// The suites are scaled down from the paper's counts so `go test -bench=.`
// finishes on a laptop; scale up with cmd/evaltable -scale paper.
package ebmf_test

import (
	"fmt"
	"math/rand"
	"testing"

	ebmf "repro"
	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/bmf"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/eval"
	"repro/internal/ftqc"
	"repro/internal/rowpack"
	"repro/internal/sat"
)

// benchEvalOptions are the per-instance budgets used by the Table I benches.
func benchEvalOptions() eval.Options {
	return eval.Options{
		TrialCounts:    []int{1, 10, 100},
		ConflictBudget: 1_000_000,
		MaxSATEntries:  400,
		Seed:           1,
	}
}

// reportRow attaches Table I percentages as bench metrics.
func reportRow(b *testing.B, row eval.Row) {
	b.Helper()
	den := float64(row.Decided)
	if den == 0 {
		return
	}
	b.ReportMetric(100*float64(row.RankEq)/den, "pct_rank")
	b.ReportMetric(100*float64(row.TrivialOpt)/den, "pct_trivial")
	for _, t := range []int{1, 10, 100} {
		b.ReportMetric(100*float64(row.PackOpt[t])/den, fmt.Sprintf("pct_rp%d", t))
	}
	b.ReportMetric(float64(row.Decided), "decided")
}

// --- Table I, rows 1–3: small random benchmarks ---

func benchTableIRandom(b *testing.B, rows, cols int) {
	suite := benchgen.RandomSuite(11, rows, cols, benchgen.PaperOccupanciesSmall(), 1)
	var row eval.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, _ = eval.EvalSuite("bench", suite, benchEvalOptions())
	}
	reportRow(b, row)
}

func BenchmarkTableIRand10x10(b *testing.B) { benchTableIRandom(b, 10, 10) }
func BenchmarkTableIRand10x20(b *testing.B) { benchTableIRandom(b, 10, 20) }
func BenchmarkTableIRand10x30(b *testing.B) { benchTableIRandom(b, 10, 30) }

// --- Table I, row 4: 100×100 random benchmarks (heuristics + rank
// certificate only; the exact stage is skipped exactly as in the paper) ---

func BenchmarkTableIRand100x100(b *testing.B) {
	suite := benchgen.RandomSuite(12, 100, 100, benchgen.PaperOccupanciesLarge(), 1)
	opts := benchEvalOptions()
	opts.TrialCounts = []int{1, 10, 100}
	var row eval.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, _ = eval.EvalSuite("bench", suite, opts)
	}
	reportRow(b, row)
}

// --- Table I, row 5: known-optimal benchmarks ---

func BenchmarkTableIOpt10x10(b *testing.B) {
	suite := benchgen.OptSuite(13, 10, 10, 10, 1)
	var row eval.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, _ = eval.EvalSuite("bench", suite, benchEvalOptions())
	}
	reportRow(b, row)
}

// --- Table I, rows 6–9: gap benchmarks ---

func benchTableIGap(b *testing.B, pairs int) {
	suite := benchgen.GapSuite(14+int64(pairs), 10, 10, []int{pairs}, 5)
	var row eval.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, _ = eval.EvalSuite("bench", suite, benchEvalOptions())
	}
	reportRow(b, row)
}

func BenchmarkTableIGap2(b *testing.B) { benchTableIGap(b, 2) }
func BenchmarkTableIGap3(b *testing.B) { benchTableIGap(b, 3) }
func BenchmarkTableIGap4(b *testing.B) { benchTableIGap(b, 4) }
func BenchmarkTableIGap5(b *testing.B) { benchTableIGap(b, 5) }

// --- Figure 4: hardest cases are UNSAT proofs; SAT time dominates pack
// time. The bench solves one hard gap instance exactly and reports the
// pack/SAT time split. ---

func BenchmarkFigure4HardestCase(b *testing.B) {
	// A gap-5 instance forces the solver to prove UNSAT below the packing
	// depth.
	suite := benchgen.GapSuite(99, 10, 10, []int{5}, 3)
	var packNS, satNS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ins := range suite {
			opts := core.DefaultOptions()
			opts.Packing.Trials = 100
			opts.FoolingBudget = 0
			opts.ConflictBudget = 2_000_000
			res, err := core.Solve(ins.M, opts)
			if err != nil {
				b.Fatal(err)
			}
			packNS += float64(res.PackTime.Nanoseconds())
			satNS += float64(res.SATTime.Nanoseconds())
		}
	}
	b.ReportMetric(packNS/float64(b.N), "pack_ns")
	b.ReportMetric(satNS/float64(b.N), "sat_ns")
	if satNS > 0 {
		b.ReportMetric(satNS/(packNS+1), "sat_over_pack")
	}
}

// --- Figure 1b: the running example (optimal depth 5 via fooling set) ---

func BenchmarkFigure1b(b *testing.B) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	var depth int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(m, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		depth = res.Depth
	}
	b.ReportMetric(float64(depth), "depth")
}

// --- Figure 3: row packing order dependence (identity 5 vs shuffled 4) ---

func BenchmarkFigure3RowPacking(b *testing.B) {
	m := bitmat.MustParse("11000\n00110\n01100\n10011\n11111")
	var identityDepth, shuffledDepth int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		identityDepth = rowpack.Pack(m, rowpack.Options{Trials: 1, Order: rowpack.OrderIdentity, SkipTranspose: true}).Depth()
		shuffledDepth = rowpack.Pack(m, rowpack.Options{Trials: 200, Seed: 7}).Depth()
	}
	b.ReportMetric(float64(identityDepth), "depth_identity")
	b.ReportMetric(float64(shuffledDepth), "depth_shuffled")
}

// --- Figure 5 / Section V: two-level FTQC solve ---

func BenchmarkFigure5TwoLevel(b *testing.B) {
	logical := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	patch := ftqc.TransversalPatch(5)
	var depth int
	var optimal bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ftqc.SolveTwoLevel(logical, patch, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		depth = res.UpperBound
		optimal = res.Optimal
	}
	b.ReportMetric(float64(depth), "depth")
	b.ReportMetric(boolMetric(optimal), "optimal")
}

// --- Section V conjecture: row sufficiency for wide matrices ---

func BenchmarkQLDPCRowSufficiency(b *testing.B) {
	var square, wide ftqc.RowSufficiencyStat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		square = ftqc.RowSufficiency(42, 10, 10, 0.5, 50)
		wide = ftqc.RowSufficiency(42, 10, 30, 0.5, 50)
	}
	b.ReportMetric(100*square.RowOptimalFraction(), "pct_rowopt_10x10")
	b.ReportMetric(100*wide.RowOptimalFraction(), "pct_rowopt_10x30")
}

// --- Ablations (design choices from DESIGN.md §6) ---

// benchEncoding runs the SAP narrowing loop with one encoder configuration
// over a small gap suite.
func benchEncoding(b *testing.B, mk func(*bitmat.Matrix, int) encode.Encoder) {
	suite := benchgen.GapSuite(55, 8, 8, []int{3}, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ins := range suite {
			ub := rowpack.Pack(ins.M, rowpack.Options{Trials: 20, Seed: 1}).Depth()
			enc := mk(ins.M, ub-1)
			lb := ins.M.Rank()
			for enc.Bound() >= lb {
				st := enc.Solve()
				if st != sat.Sat {
					break
				}
				enc.Narrow()
			}
		}
	}
}

// Ablation: at-most-one encodings. Native is the default (the solver's
// built-in propagator); pairwise and sequential are the encoded ablations.
func BenchmarkAblationAMONative(b *testing.B) {
	benchEncoding(b, func(m *bitmat.Matrix, bound int) encode.Encoder {
		return encode.NewOneHot(m, bound, encode.AMONative)
	})
}

func BenchmarkAblationAMOPairwise(b *testing.B) {
	benchEncoding(b, func(m *bitmat.Matrix, bound int) encode.Encoder {
		return encode.NewOneHot(m, bound, encode.AMOPairwise)
	})
}

func BenchmarkAblationAMOSequential(b *testing.B) {
	benchEncoding(b, func(m *bitmat.Matrix, bound int) encode.Encoder {
		return encode.NewOneHot(m, bound, encode.AMOSequential)
	})
}

// Ablation: row-packing basis update on/off (paper keeps it on).
func benchPackVariant(b *testing.B, opts rowpack.Options) {
	suite := benchgen.GapSuite(66, 10, 10, []int{4}, 10)
	var totalDepth int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalDepth = 0
		for _, ins := range suite {
			totalDepth += rowpack.Pack(ins.M, opts).Depth()
		}
	}
	b.ReportMetric(float64(totalDepth), "total_depth")
}

func BenchmarkAblationBasisUpdateOn(b *testing.B) {
	benchPackVariant(b, rowpack.Options{Trials: 20, Seed: 1})
}

func BenchmarkAblationBasisUpdateOff(b *testing.B) {
	benchPackVariant(b, rowpack.Options{Trials: 20, Seed: 1, DisableBasisUpdate: true})
}

// Ablation: shuffled vs popcount-sorted row order.
func BenchmarkAblationOrderShuffle(b *testing.B) {
	benchPackVariant(b, rowpack.Options{Trials: 20, Seed: 1, Order: rowpack.OrderShuffle})
}

func BenchmarkAblationOrderSorted(b *testing.B) {
	benchPackVariant(b, rowpack.Options{Trials: 1, Order: rowpack.OrderSortedAsc})
}

// --- Solver / SAP benchmarks: the perf-tracked set (DESIGN.md §7). These
// isolate the CDCL core and the SAP narrowing loop on the Table I suites so
// the solver's trajectory across PRs is visible without packing/fooling
// noise; cmd/timing -json snapshots the same workloads. ---

// BenchmarkSolverTableIGapNarrowing drives the incremental narrowing loop —
// encode once at the heuristic bound, SolveAssuming per depth — over the
// Table I gap suites, down to the rank bound or UNSAT. The job list and
// loop live in internal/eval so cmd/timing -json measures the identical
// workload.
func BenchmarkSolverTableIGapNarrowing(b *testing.B) {
	jobs := eval.TableIGapSolverJobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			eval.NarrowToRank(j, true, true)
		}
	}
}

// BenchmarkSolverTableIGapDestructive is the ablation twin of the above:
// narrowing by unit clauses on one solver (the pre-incremental strategy).
func BenchmarkSolverTableIGapDestructive(b *testing.B) {
	jobs := eval.TableIGapSolverJobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			eval.NarrowToRank(j, false, true)
		}
	}
}

// BenchmarkSolverTableIGapNoSymBreak is the symmetry-breaking ablation:
// incremental narrowing without the slot-ordering clauses, so every UNSAT
// proof re-refutes permuted-slot duplicates.
func BenchmarkSolverTableIGapNoSymBreak(b *testing.B) {
	jobs := eval.TableIGapSolverJobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			eval.NarrowToRank(j, true, false)
		}
	}
}

// BenchmarkSAPBlockDiagParallel runs the staged pipeline (decompose +
// per-block SAP on the worker pool) over the block-diagonal perf suite.
func BenchmarkSAPBlockDiagParallel(b *testing.B) {
	ms := eval.BlockDiagSAPMatrices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RunBlockDiagSAP(ms, true)
	}
}

// BenchmarkSAPBlockDiagSequentialWhole is its ablation twin: one monolithic
// SAP loop over each whole matrix, single-threaded — the pre-pipeline
// behaviour.
func BenchmarkSAPBlockDiagSequentialWhole(b *testing.B) {
	ms := eval.BlockDiagSAPMatrices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RunBlockDiagSAP(ms, false)
	}
}

// BenchmarkSolverFig1bUnsat is the single hardest paper instance's final
// UNSAT proof, solver only.
func BenchmarkSolverFig1bUnsat(b *testing.B) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := encode.NewOneHot(m, 4, encode.AMOPairwise)
		if enc.Solve() != sat.Unsat {
			b.Fatal("b=4 must be UNSAT")
		}
	}
}

// BenchmarkSAPTableIGap runs the full SAP pipeline (pack + narrowing +
// certificates) over the Table I gap suites — the end-to-end number the
// paper's Table I reports.
func BenchmarkSAPTableIGap(b *testing.B) {
	ms := eval.GapSuiteMatrices()
	opts := eval.TableIGapSAPOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RunGapSuiteSAP(ms, opts)
	}
}

// BenchmarkSAPTableIRandom is the same over the small random suites.
func BenchmarkSAPTableIRandom(b *testing.B) {
	suite := benchgen.RandomSuite(11, 10, 10, benchgen.PaperOccupanciesSmall(), 1)
	opts := core.DefaultOptions()
	opts.FoolingBudget = 0
	opts.ConflictBudget = 2_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ins := range suite {
			if _, err := core.Solve(ins.M, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- micro-benchmarks of the substrates ---

func BenchmarkRowPack100x100(b *testing.B) {
	suite := benchgen.RandomSuite(77, 100, 100, []float64{0.05}, 1)
	m := suite[0].M
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rowpack.Pack(m, rowpack.Options{Trials: 1, Seed: int64(i)})
	}
}

func BenchmarkRank100x100(b *testing.B) {
	suite := benchgen.RandomSuite(78, 100, 100, []float64{0.10}, 1)
	m := suite[0].M
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Rank() < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkSATFig1bUnsatProof(b *testing.B) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := encode.NewOneHot(m, 4, encode.AMOPairwise)
		if enc.Solve() != sat.Unsat {
			b.Fatal("b=4 must be UNSAT")
		}
	}
}

func BenchmarkFoolingSetExact(b *testing.B) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set, ok := ebmf.FoolingSet(m, 0); !ok || len(set) != 5 {
			b.Fatal("fooling set")
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// --- Baseline comparison: approximate BMF (Zhang et al. / NIMFA) ---

func BenchmarkBaselineBMFvsRowPack(b *testing.B) {
	suite := benchgen.RandomSuite(88, 7, 7, []float64{0.45}, 5)
	var packOK, bmfOK int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packOK, bmfOK = 0, 0
		for _, ins := range suite {
			packDepth := rowpack.Pack(ins.M, rowpack.Options{Trials: 10, Seed: 1}).Depth()
			packOK++
			if _, ok := bmf.SolveEBMF(ins.M, packDepth, bmf.Options{Restarts: 5, MaxSweeps: 60, Seed: 1}); ok {
				bmfOK++
			}
		}
	}
	b.ReportMetric(float64(packOK), "rowpack_solved")
	b.ReportMetric(float64(bmfOK), "bmf_solved")
}

// --- Circuit-level workload: total shots across program layers ---

func BenchmarkCircuitCompile(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	c := circuit.RandomCircuit(rng, 10, 10, 4, 0.3)
	opts := core.DefaultOptions()
	opts.Packing.Trials = 20
	opts.ConflictBudget = 200_000
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := circuit.Compile(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		total = res.TotalShots
	}
	b.ReportMetric(float64(total), "total_shots")
}

// --- Certified optimality: UNSAT proof emission + independent checking ---

func BenchmarkCertifiedUnsatProof(b *testing.B) {
	// Figure 1b: rank 4 < r_B 5, so certification requires emitting and
	// replaying a DRAT proof for the b=4 UNSAT instance.
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.CertifyDepth(m, 5); err != nil {
			b.Fatal(err)
		}
	}
}
