package portfolio

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmat"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/rect"
	"repro/internal/sat"
)

// RaceSpec describes one block's depth-narrowing race.
type RaceSpec struct {
	// M is the (block) matrix.
	M *bitmat.Matrix
	// Block is the block's index within the enclosing solve — telemetry
	// only (progress samples are labelled with it).
	Block int
	// Start is the first bound to decide: heuristic depth − 1.
	Start int
	// LB is the lower bound: a bound proven satisfiable at LB ends the race
	// (optimal by bound).
	LB int
	// Strategies are the racer configurations (at least one). With one
	// strategy every round is solo.
	Strategies []Strategy
	// StrategyBudgets optionally caps each racer's lifetime conflicts
	// across the whole race (aligned with Strategies; ≤ 0 = uncapped). A
	// racer that exhausts its cap drops out of subsequent rounds. This is
	// how tests force each strategy to win in turn.
	StrategyBudgets []int64
	// ConflictBudget is the block's shared budget with winner-side
	// accounting: only the round winner's conflicts are charged, so racing
	// does not exhaust a budget K× faster than a solo race. ≤ 0 means
	// unlimited.
	ConflictBudget int64
	// Deadline is the shared wall-clock deadline (zero = none).
	Deadline time.Time
	// ShareClauses exchanges short glue clauses between same-family racers.
	ShareClauses bool
	// Chunk is the conflict-chunk size of raced rounds between
	// cancellation/import points (default 4096). Solo rounds run in chunks
	// of soloChunk.
	Chunk int64
	// HeadStart delays the portfolio: the first strategy runs alone with
	// this many conflicts per round, and the competitors are only built
	// and launched when a round survives the head start (0 = default 3000,
	// negative = race from the first conflict). Easy instances thus pay no
	// racing overhead at all, and because the trigger is the solo racer's
	// own deterministic conflict count, the solo/raced decision — and with
	// it the whole result — stays a pure function of the input.
	HeadStart int64
}

// Outcome is what a race proved, plus its work accounting.
type Outcome struct {
	// BestBound is the lowest bound proven satisfiable (−1 if none was).
	BestBound int
	// UnsatProven reports that the round below the final BestBound (or the
	// Start bound itself when BestBound is −1) was proven unsatisfiable, so
	// the depth BestBound+1 (resp. Start+1) is optimal.
	UnsatProven bool
	// Rounds is the number of depth-decision rounds attempted (SAT calls),
	// decided or not.
	Rounds int
	// Wins counts round wins per strategy name.
	Wins map[string]int
	// Winner is the strategy that decided the final round ("" when the race
	// ended on budgets rather than a verdict).
	Winner string
	// WinnerConflicts is the total conflicts spent by solo rounds and round
	// winners — the work charged against ConflictBudget.
	WinnerConflicts int64
	// LoserConflicts is the total conflicts spent by cancelled or exhausted
	// racers — the cost of racing.
	LoserConflicts int64
	// SharedExported and SharedImported count exchange traffic.
	SharedExported, SharedImported int64
	// Partition is the model of the final satisfiable round when a solo
	// round decided it (every round of a one-strategy race, the head start
	// of a larger one): a deterministic single-solver narrowing loop, so the
	// model needs no canonical re-derivation — including races that
	// escalated only afterwards, for the closing UNSAT round. nil when a
	// competitor decided the final satisfiable bound or no bound was proven
	// satisfiable.
	Partition *rect.Partition
	// Err is a failed model readout of a solo satisfiable round; the race
	// stops at that bound.
	Err error
	// Escalated reports that the competitors were actually built and
	// raced (false = solo rounds decided every round).
	Escalated bool
	// TimedOut reports that budgets, the deadline or cancellation ended the
	// race before a verdict.
	TimedOut bool
	// Canceled reports the context was canceled (and the budget was not
	// what ran out).
	Canceled bool
}

// soloChunk is the conflict chunk of a solo round: between chunks the
// deadline and the context are re-checked.
const soloChunk = 20_000

// racer is one strategy's persistent state across rounds.
type racer struct {
	id       int
	strat    Strategy
	enc      encode.Encoder
	ex       *Exchange
	cursor   uint64
	cap      int64 // lifetime conflict cap (≤0 = none)
	spent    int64
	imported int64
	out      bool // dropped out (cap exhausted)
}

// Race is the SAP narrowing loop (Algorithm 1, lines 2–10): it decides the
// bounds from spec.Start down to spec.LB, one round per bound, until a bound
// is UNSAT, the lower bound is reached or a budget runs out. A solo round
// runs the first strategy alone on the caller's goroutine, in chunks of
// soloChunk conflicts. With one strategy every round is solo and records a
// probe span. With more, each round records a round span; the first
// strategy runs solo only for the HeadStart, and when a round survives it
// the remaining strategies are built (at spec.Start, so their variable
// layouts match for clause sharing, then narrowed into lockstep) and every
// later decision is raced: one goroutine per live racer, the first to
// decide the bound wins, and the rest are cancelled through SetInterrupt.
// Racers keep their solver state (learnt clauses, phases, activities)
// across rounds, narrowing in lockstep after every satisfiable verdict.
func Race(ctx context.Context, spec RaceSpec) *Outcome {
	out := &Outcome{BestBound: -1, Wins: map[string]int{}}
	if spec.Start < spec.LB || len(spec.Strategies) == 0 {
		return out
	}
	chunk := spec.Chunk
	if chunk <= 0 {
		chunk = 4096
	}
	headStart := spec.HeadStart
	if headStart == 0 {
		headStart = 3000
	}
	racing := len(spec.Strategies) > 1

	var ex *Exchange
	attachHook := func(r *racer) {
		if !spec.ShareClauses {
			return
		}
		if ex == nil {
			ex = NewExchange(0)
		}
		r.ex = ex
		coreVars := r.enc.CoreVars()
		id := r.id
		r.enc.Solver().SetLearntHook(func(lits []sat.Lit, lbd int) {
			if lbd > ShareMaxLBD || len(lits) > ShareMaxLen || len(lits) == 0 {
				return
			}
			for _, l := range lits {
				if int(l.Var()) >= coreVars {
					return
				}
			}
			ex.Publish(id, lits, lbd)
		})
	}
	newRacer := func(i int) *racer {
		r := &racer{id: i, strat: spec.Strategies[i], enc: spec.Strategies[i].NewEncoder(spec.M, spec.Start)}
		if i < len(spec.StrategyBudgets) {
			r.cap = spec.StrategyBudgets[i]
		}
		return r
	}

	lead := newRacer(0)
	racers := []*racer{lead}
	stopProgress := lead.progress(ctx, spec.Block, spec.LB)
	defer func() {
		stopProgress()
		for _, r := range racers {
			r.enc.Solver().SetLearntHook(nil)
		}
		if ex != nil {
			out.SharedExported = ex.Exported()
		}
		for _, r := range racers {
			out.SharedImported += r.imported
		}
	}()

	// escalate builds the competitors at spec.Start (identical variable
	// layout per family, so sharing stays sound) and narrows them into the
	// current round's bound. Raced rounds carry no progress hook.
	escalate := func(b int) {
		out.Escalated = true
		stopProgress()
		attachHook(lead)
		for i := 1; i < len(spec.Strategies); i++ {
			r := newRacer(i)
			for nb := spec.Start; nb > b; nb-- {
				r.enc.Narrow()
			}
			attachHook(r)
			racers = append(racers, r)
		}
	}

	remaining := spec.ConflictBudget // ≤0: unlimited
	charge := func(n int64) {
		out.WinnerConflicts += n
		if spec.ConflictBudget > 0 {
			remaining -= n
		}
	}
	exhausted := func() bool { return spec.ConflictBudget > 0 && remaining <= 0 }
	spanName := "probe"
	if racing {
		spanName = "round"
	}

	for b := spec.Start; b >= spec.LB; b-- {
		out.Rounds++
		_, sp := obs.StartSpan(ctx, spanName)
		sp.SetAttrInt("bound", int64(b))
		status, winner, spent := sat.Unknown, 0, int64(0)
		if !out.Escalated && (!racing || headStart > 0) {
			roundCap := remaining
			if racing && (roundCap <= 0 || headStart < roundCap) {
				roundCap = headStart
			}
			status, spent = lead.solveRound(ctx, spec.Deadline, nil, soloChunk, roundCap)
			charge(spent)
		}
		// Once escalated, or with no head start, every round is raced. A head
		// start that ran out (the lead's own strategy cap included) escalates
		// and re-runs this bound as a full race; the lead keeps its learnt
		// state and continues from where it stopped.
		if status == sat.Unknown && racing && ctx.Err() == nil && !deadlineExpired(spec.Deadline) && !exhausted() {
			if !out.Escalated {
				escalate(b)
			}
			var winSpent, loseSpent int64
			status, winner, winSpent, loseSpent = runRound(ctx, racers, spec.Deadline, chunk, remaining)
			charge(winSpent)
			spent += winSpent
			out.LoserConflicts += loseSpent
		}
		sp.SetAttr("status", status.String())
		if racing && status != sat.Unknown {
			sp.SetAttr("winner", racers[winner].strat.Name)
		}
		sp.SetAttrInt("conflicts", spent)
		sp.End()
		if status == sat.Unknown {
			out.TimedOut = true
			out.Canceled = ctx.Err() != nil && !exhausted()
			out.Winner = "" // any earlier round's winner did not decide this block
			return out
		}
		out.Winner = racers[winner].strat.Name
		out.Wins[out.Winner]++
		if status == sat.Unsat {
			out.UnsatProven = true
			return out
		}
		out.BestBound, out.Partition = b, nil
		if !out.Escalated {
			// A solo round's model is the deterministic narrowing loop's
			// own partition, so the caller can skip the re-derivation.
			if out.Partition, out.Err = lead.enc.ReadPartition(); out.Err != nil {
				return out
			}
		}
		if b == spec.LB {
			return out // optimal by bound
		}
		if exhausted() {
			out.TimedOut = true
			out.Winner = "" // the block's final round went undecided
			return out
		}
		for _, r := range racers {
			r.enc.Narrow()
		}
	}
	return out
}

// progress installs the sampled search-telemetry hook on the racer for the
// whole race and returns its uninstaller. An initial sample marks the SAT
// stage start, so every traced block that reaches SAT has at least one
// sample even when it decides in fewer conflicts than the sampling
// interval. The hook reads the racer's live bound; it runs only in solo
// rounds, on Race's own goroutine, so the read needs no synchronization
// (escalate uninstalls it before any raced round). No-op on untraced
// contexts.
func (r *racer) progress(ctx context.Context, block, lb int) func() {
	every := obs.ProgressEvery(ctx)
	if every <= 0 {
		return func() {}
	}
	obs.AddProgress(ctx, obs.ProgressSample{Time: time.Now(), Block: block, Bound: r.enc.Bound(), LB: lb})
	s := r.enc.Solver()
	s.SetProgress(every, func(p sat.Progress) {
		obs.AddProgress(ctx, obs.ProgressSample{
			Time:         time.Now(),
			Block:        block,
			Bound:        r.enc.Bound(),
			LB:           lb,
			Conflicts:    p.Conflicts,
			Restarts:     p.Restarts,
			Propagations: p.Propagations,
			Learnts:      p.Learnts,
		})
	})
	return func() { s.SetProgress(0, nil) }
}

// runRound races all live racers on the current bound. It returns the round
// status (Unknown when every racer gave up), the winning racer index and
// the conflicts spent by the winner and by everyone else. roundCap bounds
// any single racer's spend this round (≤0 = unbounded) so the shared budget
// is honoured even when no racer reaches a verdict.
func runRound(ctx context.Context, racers []*racer, deadline time.Time, chunk, roundCap int64) (sat.Status, int, int64, int64) {
	var (
		winner    atomic.Int32
		status    sat.Status // written once by the CAS winner before close(done)
		winSpent  int64      // written by the CAS winner
		loseSpent atomic.Int64
		done      = make(chan struct{})
		wg        sync.WaitGroup
	)
	winner.Store(-1)
	for _, r := range racers {
		if r.out {
			continue
		}
		wg.Add(1)
		go func(r *racer) {
			defer wg.Done()
			st, spent := r.solveRound(ctx, deadline, done, chunk, roundCap)
			if st != sat.Unknown {
				if winner.CompareAndSwap(-1, int32(r.id)) {
					status = st
					winSpent = spent
					close(done)
					return
				}
				// Lost the CAS: the winner exists and closes done after
				// writing status, so waiting on done makes reading it safe.
				<-done
				if st != status {
					// Two sound solvers cannot disagree on a decision
					// problem; if they do, clause sharing (or a solver bug)
					// corrupted a racer. Fail loudly rather than return a
					// wrong verdict.
					panic(fmt.Sprintf("portfolio: racers disagree on bound (%v vs %v)", st, status))
				}
			}
			loseSpent.Add(spent)
		}(r)
	}
	wg.Wait()
	if w := winner.Load(); w >= 0 {
		return status, int(w), winSpent, loseSpent.Load()
	}
	return sat.Unknown, -1, 0, loseSpent.Load()
}

// solveRound runs one racer's conflict-chunked solve loop for the current
// bound, polling the round's done channel and the context through the
// solver interrupt so a decided round cancels mid-search. A solo round
// passes a nil done. roundCap bounds the racer's spend this round (≤0 =
// unbounded).
func (r *racer) solveRound(ctx context.Context, deadline time.Time, done <-chan struct{}, chunk, roundCap int64) (sat.Status, int64) {
	s := r.enc.Solver()
	s.SetInterrupt(func() bool {
		select {
		case <-done:
			return true
		default:
		}
		return ctx.Err() != nil
	})
	defer s.SetInterrupt(nil)

	var spent int64
	for {
		select {
		case <-done:
			return sat.Unknown, spent
		default:
		}
		if ctx.Err() != nil || deadlineExpired(deadline) {
			return sat.Unknown, spent
		}
		budget := chunk
		if r.cap > 0 {
			rem := r.cap - r.spent
			if rem <= 0 {
				r.out = true
				return sat.Unknown, spent
			}
			if rem < budget {
				budget = rem
			}
		}
		if roundCap > 0 {
			if rem := roundCap - spent; rem <= 0 {
				return sat.Unknown, spent
			} else if rem < budget {
				budget = rem
			}
		}
		// Import pending shared clauses at the root, between chunks — the
		// only point where the solver is guaranteed to be at level 0.
		if r.ex != nil {
			r.cursor = r.ex.Collect(r.cursor, r.id, func(lits []sat.Lit, lbd int) {
				if s.ImportLearnt(lits, lbd) {
					r.imported++
				}
			})
		}
		s.SetConflictBudget(budget)
		before := s.Conflicts
		st := r.enc.Solve()
		spent += s.Conflicts - before
		r.spent += s.Conflicts - before
		if st != sat.Unknown {
			s.SetConflictBudget(-1)
			return st, spent
		}
	}
}

// deadlineExpired reports whether a nonzero deadline has passed.
func deadlineExpired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}
