// Package core implements SAP (SMT-and-packing, Algorithm 1 of the paper):
// the combined EBMF solver. The row-packing heuristic supplies a valid
// partition quickly; a SAT-backed exact solver (the paper uses z3; this
// reproduction compiles the same constraints to CNF) then repeatedly narrows
// the rectangle budget until it proves unsatisfiability or reaches the
// rational-rank lower bound, at which point the best partition found is
// optimal.
//
// Solving runs as a staged pipeline:
//
//	Preprocess (bitmat.Compress)   — drop zero rows/cols, merge duplicates
//	Decompose  (bitmat.Decompose)  — split into bipartite connected components
//	Per-block SAP (solveBlock)     — Algorithm 1 on each block, concurrently
//	Recombine                      — union the partitions, stitch certificates
//
// Each block's SAT stage is one narrowing loop (narrow) over one Strategy:
// the configuration the ablation fields describe, or a named one
// (Options.Strategy).
//
// The depth objective is additive over components (a rectangle spanning two
// components would cover a 0), so the blockwise union of optima is a global
// optimum and blocks can be solved independently on a worker pool
// (Options.Parallelism). A context.Context threads cancellation through the
// pipeline into the SAT solver's search loop, so a canceled request stops
// mid-search instead of at the next depth bound.
//
// The solver always returns the best valid partition found so far, even when
// interrupted by a conflict budget, deadline or cancellation — mirroring the
// paper's "when we terminate at any time, we can return P".
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/encode"
	"repro/internal/fooling"
	"repro/internal/obs"
	"repro/internal/rect"
	"repro/internal/rowpack"
	"repro/internal/sat"
)

// Certificate says why a result is known optimal.
type Certificate int

const (
	// CertNone: no optimality proof (heuristic result only).
	CertNone Certificate = iota
	// CertRank: depth equals the rational-rank lower bound (Eq. 3).
	CertRank
	// CertFooling: depth equals a fooling-set lower bound.
	CertFooling
	// CertUnsat: the SAT solver proved depth-1 infeasible.
	CertUnsat
)

// String names the certificate.
func (c Certificate) String() string {
	switch c {
	case CertRank:
		return "rank"
	case CertFooling:
		return "fooling-set"
	case CertUnsat:
		return "unsat-proof"
	default:
		return "none"
	}
}

// Options configures Solve.
type Options struct {
	// Packing configures the row-packing heuristic stage.
	Packing rowpack.Options
	// AMO selects the at-most-one encoding.
	AMO encode.AMO
	// SkipSAT stops after the heuristic stage (still reports lower bounds
	// and certificates when the heuristic happens to match them).
	SkipSAT bool
	// ConflictBudget bounds total SAT conflicts across the narrowing loop;
	// ≤ 0 means unlimited. When exhausted the best partition so far is
	// returned with TimedOut set. After decomposition the budget is
	// apportioned across blocks proportionally to their 1-entry counts.
	ConflictBudget int64
	// TimeBudget bounds wall-clock time of the solve; 0 means unlimited.
	// The deadline is anchored when the pipeline starts (after
	// preprocessing), so per-block packing and queueing time count against
	// it, and the SAT loops of all blocks share the single deadline.
	TimeBudget time.Duration
	// FoolingBudget is the node budget for the exact fooling-set lower
	// bound; 0 skips the fooling bound entirely (the paper's loop uses only
	// the rank bound; fooling strengthens certificates on small instances).
	// The budget applies per block, and only blocks whose packed depth is
	// above their rank bound run the search (see Result.FoolingLB).
	FoolingBudget int64
	// DisableCompression solves on the raw matrix instead of the
	// deduplicated reduction.
	DisableCompression bool
	// DisableDecomposition skips the connected-component split and runs one
	// monolithic SAP loop over the whole (compressed) matrix — the
	// pre-pipeline behaviour, kept as an ablation and differential-test
	// baseline.
	DisableDecomposition bool
	// Parallelism bounds how many blocks are solved concurrently after
	// decomposition; ≤ 0 means runtime.GOMAXPROCS(0). Results are
	// deterministic regardless of the setting: blocks are independent and
	// recombined in a fixed order.
	Parallelism int
	// MaxSATEntries skips the SAT stage for matrices with more 1-entries
	// (mirrors the paper: 100×100 instances are "too large for SMT").
	// 0 means no limit. Applied per block, so a large matrix that
	// decomposes into small components still gets exact per-block solves.
	MaxSATEntries int
	// DisableIncremental narrows the depth bound by adding unit clauses
	// (re-constraining the formula) instead of the default selector
	// assumptions. Kept as an ablation: incremental narrowing reuses learnt
	// clauses and heuristic state across every depth bound of the SAP loop.
	DisableIncremental bool
	// DisableSymmetryBreaking drops the slot-ordering symmetry-breaking
	// clauses (lexicographic first-row-index ordering of rectangle slots)
	// from the one-hot encoding, leaving only the per-entry break
	// (ablation). Without them the solver re-explores permuted-slot
	// duplicates of every partition attempt on UNSAT proofs.
	DisableSymmetryBreaking bool
	// DisablePhaseSaving turns off the solver's saved-polarity decision
	// heuristic (ablation).
	DisablePhaseSaving bool
	// DisableInprocessing turns off the solver's between-restart clause
	// database simplification (vivification + binary self-subsumption);
	// kept as an ablation (DESIGN §12 times it on the hard-tail suite).
	DisableInprocessing bool
	// Strategy names the solver configuration of the narrowing loop
	// ("canonical" or a name from Names()). Empty means the configuration
	// the ablation fields above describe, as does "canonical"; any other
	// name runs that strategy as it stands.
	Strategy string
}

// DefaultOptions mirror the paper's configuration at moderate effort:
// 100 packing trials and an unbounded exact stage for small matrices.
func DefaultOptions() Options {
	return Options{
		Packing:       rowpack.DefaultOptions(),
		FoolingBudget: 200_000,
		MaxSATEntries: 400,
	}
}

// Result is the outcome of a Solve call.
type Result struct {
	// Partition is the best EBMF found; always valid for the input matrix.
	Partition *rect.Partition
	// Depth is len(Partition.Rects) = the addressing depth.
	Depth int
	// RankLB is the rational-rank lower bound (Eq. 3; summed over blocks —
	// rank is additive over the connected-component decomposition).
	RankLB int
	// FoolingLB is the size of a fooling set the solve found (0 when
	// FoolingBudget is 0). The exact search runs only on blocks where the
	// rank bound leaves a gap; a block the rank bound certifies reports its
	// greedy set (fooling.Greedy), since no larger set could change its
	// depth or certificate. So this is a lower bound on the depth, not the
	// largest fooling set. Blockwise fooling sets union into a fooling set
	// of the whole matrix, so this too is summed over blocks.
	FoolingLB int
	// Optimal reports whether Depth is proved minimal, i.e. Depth = r_B(M).
	// After decomposition this holds iff every block was solved optimally.
	Optimal bool
	// Certificate says how optimality was established: the strongest
	// machinery any block needed (unsat-proof > fooling-set > rank).
	Certificate Certificate
	// TimedOut reports that a conflict budget, deadline or cancellation
	// interrupted the narrowing loop on some block (the result may still be
	// optimal-by-bound).
	TimedOut bool
	// Canceled reports that the context was canceled mid-solve. The
	// partition is still valid; the SAT stage of unfinished blocks was
	// abandoned. Canceled results follow the same stage-timing contract as
	// complete ones: PackTime covers the heuristic stage (which always
	// runs), SATTime covers only SAT work actually performed (zero when the
	// cancellation landed before the SAT stage started).
	Canceled bool
	// CacheHit reports that the result was served from a fingerprint cache
	// (see internal/solvecache) rather than a pipeline run. On cache hits
	// the solver-stage fields — SATCalls, Conflicts, Decisions,
	// Propagations, PackTime, SATTime — are zeroed rather than replaying
	// the original solve's values: they describe work this request did,
	// which was none.
	CacheHit bool
	// Blocks is the number of connected components the solve decomposed
	// into (1 when decomposition is disabled or the matrix is connected).
	Blocks int
	// HeuristicDepth is the depth after the packing stage, before SAT
	// (summed over blocks).
	HeuristicDepth int
	// SATCalls counts decision-problem invocations across all blocks.
	SATCalls int
	// Conflicts is the total SAT conflicts spent across all blocks.
	Conflicts int64
	// Decisions and Propagations are the SAT solver's decision and unit
	// propagation counts, summed over blocks like Conflicts.
	Decisions, Propagations int64
	// PackTime and SATTime split the runtime by stage (Figure 4's split),
	// summed over blocks — with Parallelism > 1 these are aggregate
	// per-block times and may exceed the wall clock. PackTime times packing
	// only until it meets the block's rank bound (rowpack.PackDownTo), so
	// a rank-certified block's share is a fraction of a full Pack's.
	PackTime, SATTime time.Duration
}

// markOptimalByBound records optimality established by the depth meeting a
// lower bound, with the certificate naming the stronger bound. Shared by the
// heuristic stage and the narrowing loop so their certificates cannot
// drift.
func (r *Result) markOptimalByBound() {
	r.Optimal = true
	r.Certificate = CertRank
	if r.FoolingLB > r.RankLB {
		r.Certificate = CertFooling
	}
}

// ErrNilMatrix is returned when Solve receives a nil matrix.
var ErrNilMatrix = errors.New("core: nil matrix")

// Solve runs the staged SAP pipeline on m and returns the best partition
// with provenance. It is SolveContext with a background context.
func Solve(m *bitmat.Matrix, opts Options) (*Result, error) {
	return SolveContext(context.Background(), m, opts)
}

// SolveContext is Solve with cancellation: when ctx is canceled the SAT
// stage stops mid-search (the cancellation is polled inside the solver's
// propagate loop) and the best partition found so far is returned with
// Canceled and TimedOut set. The heuristic stage always completes, so the
// returned partition is valid even for an already-canceled context.
func SolveContext(ctx context.Context, m *bitmat.Matrix, opts Options) (*Result, error) {
	if m == nil {
		return nil, ErrNilMatrix
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Resolve the strategy up front, so a typo is an error on every input
	// and not only on those that reach the SAT stage.
	st, err := strategyFor(opts)
	if err != nil {
		return nil, err
	}

	// Stage 1: Preprocess — work on the compressed matrix; lift the
	// partition back at the end.
	work := m
	var comp *bitmat.Compression
	if !opts.DisableCompression {
		_, sp := obs.StartSpan(ctx, "preprocess")
		comp = bitmat.Compress(m)
		work = comp.Reduced
		sp.SetAttrInt("rows", int64(work.Rows()))
		sp.SetAttrInt("cols", int64(work.Cols()))
		sp.End()
	}

	finish := func(res *Result, p *rect.Partition) (*Result, error) {
		if comp != nil {
			p = rect.Lift(comp, m, p)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("core: internal error: produced invalid partition: %w", err)
		}
		res.Partition = p
		res.Depth = p.Depth()
		return res, nil
	}

	if work.Ones() == 0 {
		res := &Result{Optimal: true, Certificate: CertRank}
		return finish(res, rect.NewPartition(work))
	}

	// Stage 2: Decompose — split into bipartite connected components.
	var blocks []bitmat.Block
	if opts.DisableDecomposition {
		blocks = []bitmat.Block{wholeBlock(work)}
	} else {
		_, sp := obs.StartSpan(ctx, "decompose")
		blocks = bitmat.Decompose(work).Blocks
		sp.SetAttrInt("blocks", int64(len(blocks)))
		sp.End()
	}

	deadline := time.Time{}
	if opts.TimeBudget > 0 {
		deadline = time.Now().Add(opts.TimeBudget)
	}
	budgets := apportionConflicts(opts.ConflictBudget, blocks)

	// Stage 3: per-block SAP on a bounded worker pool.
	results := make([]*Result, len(blocks))
	errs := make([]error, len(blocks))
	if par := parallelism(opts, len(blocks)); par <= 1 {
		for i := range blocks {
			results[i], errs[i] = solveBlock(ctx, i, blocks[i].M, opts, st, budgets[i], deadline)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = solveBlock(ctx, i, blocks[i].M, opts, st, budgets[i], deadline)
				}
			}()
		}
		for i := range blocks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Stage 4: Recombine — union the block partitions on the work matrix
	// and stitch the per-block provenance together.
	_, rsp := obs.StartSpan(ctx, "recombine")
	defer rsp.End()
	res := &Result{Blocks: len(blocks), Optimal: true, Certificate: CertRank}
	union := rect.NewPartition(work)
	for bi, br := range results {
		blk := blocks[bi]
		for _, r := range br.Partition.Rects {
			nr := rect.NewRect(work.Rows(), work.Cols())
			r.Rows.ForEachOne(func(i int) { nr.Rows.Set(blk.Rows[i], true) })
			r.Cols.ForEachOne(func(j int) { nr.Cols.Set(blk.Cols[j], true) })
			union.Add(nr)
		}
		res.RankLB += br.RankLB
		res.FoolingLB += br.FoolingLB
		res.HeuristicDepth += br.HeuristicDepth
		res.SATCalls += br.SATCalls
		res.Conflicts += br.Conflicts
		res.Decisions += br.Decisions
		res.Propagations += br.Propagations
		res.PackTime += br.PackTime
		res.SATTime += br.SATTime
		res.TimedOut = res.TimedOut || br.TimedOut
		res.Canceled = res.Canceled || br.Canceled
		res.Optimal = res.Optimal && br.Optimal
		if br.Certificate > res.Certificate {
			res.Certificate = br.Certificate
		}
	}
	if !res.Optimal {
		res.Certificate = CertNone
	}
	return finish(res, union)
}

// wholeBlock wraps a matrix as a single block with identity lift maps.
func wholeBlock(m *bitmat.Matrix) bitmat.Block {
	rows := make([]int, m.Rows())
	for i := range rows {
		rows[i] = i
	}
	cols := make([]int, m.Cols())
	for j := range cols {
		cols[j] = j
	}
	return bitmat.Block{M: m, Rows: rows, Cols: cols}
}

// parallelism resolves the worker-pool width for nBlocks blocks.
func parallelism(opts Options, nBlocks int) int {
	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > nBlocks {
		p = nBlocks
	}
	if p < 1 {
		p = 1
	}
	return p
}

// apportionConflicts splits a global conflict budget across blocks
// proportionally to their 1-entry counts (the driver of CNF size and search
// hardness), guaranteeing each block at least one conflict; any rounding
// remainder goes to the largest block. total ≤ 0 means unlimited for every
// block (zero shares).
func apportionConflicts(total int64, blocks []bitmat.Block) []int64 {
	out := make([]int64, len(blocks))
	if total <= 0 || len(blocks) <= 1 {
		if total > 0 && len(blocks) == 1 {
			out[0] = total
		}
		return out
	}
	ones := make([]int64, len(blocks))
	var sum int64
	maxI := 0
	for i, b := range blocks {
		ones[i] = int64(b.M.Ones())
		sum += ones[i]
		if ones[i] > ones[maxI] {
			maxI = i
		}
	}
	var used int64
	for i := range out {
		out[i] = total * ones[i] / sum
		if out[i] < 1 {
			out[i] = 1
		}
		used += out[i]
	}
	if rem := total - used; rem > 0 {
		out[maxI] += rem
	}
	return out
}

// solveBlock runs Algorithm 1 on one connected block, bounds first: rank,
// then row packing down to the rank bound, then, where packing stayed above
// rank, the fooling search capped at the packed depth, then SAT narrowing
// from the packed depth − 1. Both stops leave the result exactly as an
// uncapped run would (see PackDownTo and ExactUpTo). The returned Result
// carries a block-local partition (not yet lifted or validated) plus the
// block's provenance fields.
func solveBlock(ctx context.Context, blockIdx int, m *bitmat.Matrix, opts Options, st Strategy, conflictBudget int64, deadline time.Time) (*Result, error) {
	res := &Result{Blocks: 1}
	if m.Ones() == 0 {
		res.Optimal = true
		res.Certificate = CertRank
		res.Partition = rect.NewPartition(m)
		return res, nil
	}
	ctx, bsp := obs.StartSpan(ctx, "block")
	bsp.SetAttrInt("block", int64(blockIdx))
	bsp.SetAttrInt("ones", int64(m.Ones()))
	defer bsp.End()
	defer func() {
		if res.Partition != nil {
			bsp.SetAttrInt("depth", int64(res.Partition.Depth()))
		}
		bsp.SetAttrInt("conflicts", res.Conflicts)
	}()

	// The rank bound (Eq. 3) first: packing need not go below it.
	res.RankLB = m.Rank()

	// Stage 1: heuristic upper bound (Algorithm 1, line 1).
	t0 := time.Now()
	_, psp := obs.StartSpan(ctx, "pack")
	best := rowpack.PackDownTo(m, opts.Packing, res.RankLB)
	psp.SetAttrInt("depth", int64(best.Depth()))
	psp.End()
	res.PackTime = time.Since(t0)
	res.HeuristicDepth = best.Depth()

	// The fooling bound, which cannot exceed the packed depth. Once packing
	// meets the rank bound no fooling set can move the depth or the
	// certificate (CertFooling needs FoolingLB > RankLB, and here FoolingLB
	// ≤ depth = RankLB), so the exact search runs only where rank leaves a
	// gap, and a rank-certified block reports the greedy set the search
	// would start from.
	lb := res.RankLB
	if opts.FoolingBudget > 0 {
		if best.Depth() <= res.RankLB {
			res.FoolingLB = len(fooling.Greedy(m))
		} else {
			fs, _ := fooling.ExactUpTo(m, opts.FoolingBudget, best.Depth())
			res.FoolingLB = len(fs)
		}
		lb = max(lb, res.FoolingLB)
	}

	res.Partition = best
	if best.Depth() <= lb {
		res.markOptimalByBound()
		return res, nil
	}
	if opts.SkipSAT || (opts.MaxSATEntries > 0 && m.Ones() > opts.MaxSATEntries) {
		return res, nil
	}
	if ctx.Err() != nil {
		res.TimedOut, res.Canceled = true, true
		return res, nil
	}
	if deadlineExpired(deadline) {
		// A block queued behind slow siblings must not start a conflict
		// chunk against an already-spent budget.
		res.TimedOut = true
		return res, nil
	}

	// Stage 2: SAT narrowing loop (Algorithm 1, lines 2–10).
	tSAT := time.Now()
	defer func() { res.SATTime = time.Since(tSAT) }()
	unsat, err := narrow(ctx, res, m, blockIdx, best.Depth()-1, lb, st, conflictBudget, deadline)
	if err != nil {
		return nil, err
	}
	// With unsat the partition has the proven-optimal depth: either no bound
	// was satisfiable (the packed partition one above the UNSAT bound
	// stands) or it is the model one above it.
	switch {
	case unsat:
		res.Optimal = true
		res.Certificate = CertUnsat
	case !res.TimedOut && res.Partition.Depth() <= lb:
		res.markOptimalByBound()
	}
	return res, nil
}

// probeChunk is the conflict chunk of one bound's SAT call: between chunks
// the deadline and the context are re-checked.
const probeChunk = 20_000

// narrow is the SAP narrowing loop (Algorithm 1, lines 2–10). It builds the
// strategy's encoder at bound start (the packed depth − 1) and decides one
// bound per SAT call, counted in res.SATCalls and recorded as a probe span.
// Each satisfiable bound's model becomes res.Partition and the bound narrows
// by one, until a bound is UNSAT (reported as unsat), the lower bound lb is
// met, or the block's conflict budget, the deadline or the context stops it
// (res.TimedOut, res.Canceled). The encoder keeps its learnt clauses,
// phases and activities from one bound to the next.
func narrow(ctx context.Context, res *Result, m *bitmat.Matrix, blockIdx, start, lb int, st Strategy, budget int64, deadline time.Time) (unsat bool, err error) {
	enc := st.NewEncoder(m, start)
	s := enc.Solver()
	defer func() { res.Decisions, res.Propagations = s.Decisions, s.Propagations }()
	defer progress(ctx, enc, blockIdx, lb)()
	s.SetInterrupt(func() bool { return ctx.Err() != nil })
	defer s.SetInterrupt(nil)

	remaining := budget // ≤ 0: unlimited
	exhausted := func() bool { return budget > 0 && remaining <= 0 }
	for b := start; b >= lb; b-- {
		res.SATCalls++
		_, sp := obs.StartSpan(ctx, "probe")
		sp.SetAttrInt("bound", int64(b))
		status, spent := solveBound(ctx, enc, deadline, remaining)
		res.Conflicts += spent
		if budget > 0 {
			remaining -= spent
		}
		sp.SetAttr("status", status.String())
		sp.SetAttrInt("conflicts", spent)
		sp.End()
		switch status {
		case sat.Unknown:
			res.TimedOut = true
			res.Canceled = ctx.Err() != nil && !exhausted()
			return false, nil
		case sat.Unsat:
			return true, nil
		}
		p, err := enc.ReadPartition()
		if err != nil {
			return false, fmt.Errorf("core: model readout failed: %w", err)
		}
		res.Partition = p
		if b == lb {
			return false, nil // optimal by bound
		}
		if exhausted() {
			res.TimedOut = true
			return false, nil
		}
		enc.Narrow()
	}
	return false, nil
}

// solveBound decides the encoder's current bound in conflict chunks of
// probeChunk, re-checking the context and the deadline between chunks, and
// spends at most remaining conflicts (≤ 0 = unbounded). It returns Unknown
// when any of them stops it first.
func solveBound(ctx context.Context, enc encode.Encoder, deadline time.Time, remaining int64) (sat.Status, int64) {
	s := enc.Solver()
	var spent int64
	for {
		if ctx.Err() != nil || deadlineExpired(deadline) {
			return sat.Unknown, spent
		}
		chunk := int64(probeChunk)
		if remaining > 0 {
			if rem := remaining - spent; rem <= 0 {
				return sat.Unknown, spent
			} else if rem < chunk {
				chunk = rem
			}
		}
		s.SetConflictBudget(chunk)
		before := s.Conflicts
		status := enc.Solve()
		spent += s.Conflicts - before
		if status != sat.Unknown {
			s.SetConflictBudget(-1)
			return status, spent
		}
	}
}

// progress installs the sampled search-telemetry hook on the encoder's
// solver for the whole narrowing loop and returns its uninstaller. An
// initial sample marks the SAT stage start, so every traced block that
// reaches SAT has at least one sample even when it decides in fewer
// conflicts than the sampling interval. The hook runs on the loop's own
// goroutine, so reading the live bound needs no synchronization. No-op on
// untraced contexts.
func progress(ctx context.Context, enc encode.Encoder, block, lb int) func() {
	every := obs.ProgressEvery(ctx)
	if every <= 0 {
		return func() {}
	}
	obs.AddProgress(ctx, obs.ProgressSample{Time: time.Now(), Block: block, Bound: enc.Bound(), LB: lb})
	s := enc.Solver()
	s.SetProgress(every, func(p sat.Progress) {
		obs.AddProgress(ctx, obs.ProgressSample{
			Time:         time.Now(),
			Block:        block,
			Bound:        enc.Bound(),
			LB:           lb,
			Conflicts:    p.Conflicts,
			Restarts:     p.Restarts,
			Propagations: p.Propagations,
			Learnts:      p.Learnts,
		})
	})
	return func() { s.SetProgress(0, nil) }
}

// deadlineExpired reports whether a nonzero deadline has passed.
func deadlineExpired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// BinaryRank computes r_B(m) exactly (no budgets). For matrices beyond the
// SAT stage's reach this may take exponential time; prefer Solve with
// budgets for untrusted inputs.
func BinaryRank(m *bitmat.Matrix) (int, error) {
	opts := DefaultOptions()
	opts.ConflictBudget = 0
	opts.TimeBudget = 0
	opts.MaxSATEntries = 0
	res, err := Solve(m, opts)
	if err != nil {
		return 0, err
	}
	if !res.Optimal {
		return res.Depth, fmt.Errorf("core: optimality not established for %d×%d matrix", m.Rows(), m.Cols())
	}
	return res.Depth, nil
}
