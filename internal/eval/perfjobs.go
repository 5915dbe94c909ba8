package eval

import (
	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/rowpack"
	"repro/internal/sat"
)

// The Solver/SAP workloads. bench_test.go (`go test -bench 'Solver|SAP'`)
// times these jobs and TestSolverWorkPins pins their work by counts, so
// both read the same instances.

// SolverJob is one Table I gap decision problem: a matrix plus its
// row-packing upper bound, the input the SAP loop hands the SAT solver.
type SolverJob struct {
	M  *bitmat.Matrix
	UB int
}

// TableIGapSolverJobs collects the gap-suite decision problems (pair counts
// 2–5, 5 instances each, the bench_test seeds).
func TableIGapSolverJobs() []SolverJob {
	var jobs []SolverJob
	for pairs := 2; pairs <= 5; pairs++ {
		for _, ins := range benchgen.GapSuite(14+int64(pairs), 10, 10, []int{pairs}, 5) {
			ub := rowpack.Pack(ins.M, rowpack.Options{Trials: 100, Seed: 1}).Depth()
			jobs = append(jobs, SolverJob{M: ins.M, UB: ub})
		}
	}
	return jobs
}

// NarrowToRank runs the SAP narrowing loop on one job — encode at UB-1,
// solve and narrow until UNSAT or the rank bound — with the incremental
// (selector-assumption) or destructive (unit-clause) one-hot encoder.
// symBreak toggles the slot-ordering symmetry-breaking clauses (the
// ablation pair for the decomposition PR's encoder change).
func NarrowToRank(j SolverJob, incremental, symBreak bool) {
	enc := encode.NewOneHotConfig(j.M, j.UB-1, encode.OneHotConfig{
		Incremental:         incremental,
		DisableSlotOrdering: !symBreak,
	})
	lb := j.M.Rank()
	for enc.Bound() >= lb {
		if enc.Solve() != sat.Sat {
			return
		}
		enc.Narrow()
	}
}

// TableIGapSAPOptions are the end-to-end SAP options of the Table I gap
// workload (BenchmarkSAPTableIGap and the table-i-gap work pins).
func TableIGapSAPOptions() core.Options {
	opts := core.DefaultOptions()
	opts.FoolingBudget = 0
	opts.ConflictBudget = 2_000_000
	return opts
}

// GapSuiteMatrices returns the SAPTableIGap instance set (pair counts 2–5,
// 5 instances each, bench_test seeds).
func GapSuiteMatrices() []*bitmat.Matrix {
	var ms []*bitmat.Matrix
	for pairs := 2; pairs <= 5; pairs++ {
		for _, ins := range benchgen.GapSuite(14+int64(pairs), 10, 10, []int{pairs}, 5) {
			ms = append(ms, ins.M)
		}
	}
	return ms
}

// RunGapSuiteSAP solves every gap-suite matrix under opts, panicking on
// error (perf workloads must not silently degrade into no-ops).
func RunGapSuiteSAP(ms []*bitmat.Matrix, opts core.Options) {
	for _, m := range ms {
		if _, err := core.Solve(m, opts); err != nil {
			panic(err)
		}
	}
}

// BlockDiagSAPMatrices is the decomposition perf suite: permuted
// block-diagonal compositions of four 8×8 gap-2 components. Each instance
// splits into ≥4 connected components, every component carries an UNSAT
// tail, and the sequential whole-matrix solve still terminates — the
// workload where the Decompose stage and per-block parallelism show up as
// wall-clock.
func BlockDiagSAPMatrices() []*bitmat.Matrix {
	var ms []*bitmat.Matrix
	for _, ins := range benchgen.BlockDiagSuite(2024, 4, 8, 8, 2, 3, true) {
		ms = append(ms, ins.M)
	}
	return ms
}

// BlockDiagSAPOptions are the pipeline options the decomposition perf pair
// runs under: parallel decomposed (the default pipeline) vs the sequential
// whole-matrix ablation.
func BlockDiagSAPOptions(parallel bool) core.Options {
	opts := core.DefaultOptions()
	opts.Packing.Trials = 100
	opts.FoolingBudget = 0
	opts.ConflictBudget = 20_000_000
	if !parallel {
		opts.DisableDecomposition = true
		opts.Parallelism = 1
	}
	return opts
}

// RunBlockDiagSAP solves every decomposition-suite matrix under the chosen
// pipeline configuration, panicking on error (perf workloads must not
// silently degrade into no-ops).
func RunBlockDiagSAP(ms []*bitmat.Matrix, parallel bool) {
	opts := BlockDiagSAPOptions(parallel)
	for _, m := range ms {
		if _, err := core.Solve(m, opts); err != nil {
			panic(err)
		}
	}
}
