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
	// only (round spans and progress samples are labelled with it).
	Block int
	// Start is the first bound to decide — heuristic depth − 1, exactly
	// where the sequential narrowing loop starts.
	Start int
	// LB is the lower bound: a bound proven satisfiable at LB ends the race
	// (optimal by bound).
	LB int
	// Strategies are the racer configurations (at least one).
	Strategies []Strategy
	// StrategyBudgets optionally caps each racer's lifetime conflicts
	// across the whole race (aligned with Strategies; ≤ 0 = uncapped). A
	// racer that exhausts its cap drops out of subsequent rounds. This is
	// how tests force each strategy to win in turn.
	StrategyBudgets []int64
	// ConflictBudget is the block's shared budget with winner-side
	// accounting: only the round winner's conflicts are charged, so racing
	// does not exhaust a budget K× faster than the sequential loop. ≤ 0
	// means unlimited.
	ConflictBudget int64
	// Deadline is the shared wall-clock deadline (zero = none).
	Deadline time.Time
	// ShareClauses exchanges short glue clauses between same-family racers.
	ShareClauses bool
	// Chunk is the conflict-chunk size between cancellation/import points
	// (default 4096).
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
	// Rounds is the number of depth-decision rounds run (SAT calls).
	Rounds int
	// Wins counts round wins per strategy name.
	Wins map[string]int
	// Winner is the strategy that decided the final round ("" when the race
	// ended on budgets rather than a verdict).
	Winner string
	// WinnerConflicts is the total conflicts spent by round winners — the
	// work the sequential loop would also have had to do.
	WinnerConflicts int64
	// LoserConflicts is the total conflicts spent by cancelled or exhausted
	// racers — the cost of racing.
	LoserConflicts int64
	// SharedExported and SharedImported count exchange traffic.
	SharedExported, SharedImported int64
	// Partition is the model of the final satisfiable round when that round
	// was decided by the solo head-start phase (a deterministic
	// single-solver narrowing loop, so the model needs no canonical
	// re-derivation) — including races that escalated only afterwards, for
	// the closing UNSAT round. nil when a competitor decided the final
	// satisfiable bound or no bound was proven satisfiable.
	Partition *rect.Partition
	// Escalated reports that the competitors were actually built and
	// raced (false = the solo head start decided every round).
	Escalated bool
	// TimedOut reports that budgets, the deadline or cancellation ended the
	// race before a verdict.
	TimedOut bool
	// Canceled reports the context was canceled.
	Canceled bool
}

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

// Race runs the per-bound strategy competition from spec.Start down to
// spec.LB. The first strategy starts alone; when a round survives its
// conflict head start, the remaining strategies are built (at spec.Start,
// so their variable layouts match for clause sharing, then narrowed into
// lockstep) and every subsequent decision is raced: one goroutine per live
// racer, the first to decide the bound wins, and the rest are cancelled
// through SetInterrupt. Racers keep their solver state (learnt clauses,
// phases, activities) across rounds, narrowing in lockstep after every
// satisfiable verdict.
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

	racers := []*racer{newRacer(0)}
	defer func() {
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

	// The solo phase captures the model of each Sat round it decides; the
	// capture survives escalation and is returned whenever it still matches
	// the final BestBound, so a race that escalates only for the closing
	// UNSAT round spares the caller the canonical re-derivation.
	var soloPartition *rect.Partition
	soloBound := -2
	defer func() {
		if soloPartition != nil && out.BestBound == soloBound {
			out.Partition = soloPartition
		} else {
			out.Partition = nil
		}
	}()

	// escalate builds the competitors at spec.Start (identical variable
	// layout per family, so sharing stays sound) and narrows them into the
	// current round's bound.
	escalate := func(b int) {
		out.Escalated = true
		attachHook(racers[0])
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
	charge := func(winSpent int64) bool {
		if spec.ConflictBudget <= 0 {
			return true
		}
		remaining -= winSpent
		return remaining > 0
	}

	for b := spec.Start; b >= spec.LB; b-- {
		var (
			status    sat.Status
			winner    int
			winSpent  int64
			loseSpent int64
		)
		_, rsp := obs.StartSpan(ctx, "round")
		rsp.SetAttrInt("bound", int64(b))
		solo := !out.Escalated && len(spec.Strategies) > 1 && headStart > 0
		if solo {
			stopProgress := soloProgress(ctx, racers[0], spec.Block, b, spec.LB)
			status, winSpent = racers[0].soloAttempt(ctx, spec.Deadline, headStart, remaining)
			stopProgress()
			out.WinnerConflicts += winSpent
			if status == sat.Unknown {
				if ctx.Err() != nil || deadlineExpired(spec.Deadline) || !charge(winSpent) {
					out.TimedOut = true
					out.Canceled = ctx.Err() != nil
					out.Winner = "" // any earlier round's winner did not decide this block
					rsp.SetAttr("status", status.String())
					rsp.End()
					return out
				}
				// Note: a lead racer that exhausted its own strategy cap
				// also lands here — the competitors still get their shot.
				// The head start was not enough: bring in the portfolio and
				// re-run this bound as a full race (racer 0 keeps its
				// learnt state and continues from where it stopped).
				escalate(b)
				status, winner, winSpent, loseSpent = runRound(ctx, racers, spec.Deadline, chunk, remaining)
				out.WinnerConflicts += winSpent
				out.LoserConflicts += loseSpent
			}
		} else {
			if !out.Escalated && len(spec.Strategies) > 1 {
				escalate(b)
			}
			status, winner, winSpent, loseSpent = runRound(ctx, racers, spec.Deadline, chunk, remaining)
			out.WinnerConflicts += winSpent
			out.LoserConflicts += loseSpent
		}
		out.Rounds++
		if status == sat.Unknown {
			out.TimedOut = true
			out.Canceled = ctx.Err() != nil
			out.Winner = "" // any earlier round's winner did not decide this block
			rsp.SetAttr("status", status.String())
			rsp.End()
			return out
		}
		name := racers[winner].strat.Name
		out.Wins[name]++
		out.Winner = name
		rsp.SetAttr("status", status.String())
		rsp.SetAttr("winner", name)
		rsp.SetAttrInt("conflicts", winSpent)
		rsp.End()
		if status == sat.Unsat {
			out.UnsatProven = true
			return out
		}
		out.BestBound = b
		if !out.Escalated {
			// Solo phase: capture the model now — it is the deterministic
			// narrowing loop's own partition, so the caller can skip the
			// canonical re-derivation. A readout failure just falls back.
			if p, err := racers[0].enc.ReadPartition(); err == nil {
				soloPartition, soloBound = p, b
			} else {
				soloPartition = nil
			}
		}
		if b == spec.LB {
			return out // optimal by bound
		}
		if !charge(winSpent) {
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

// soloProgress installs the sampled search-telemetry hook on the lead racer
// for one solo round and returns the uninstaller. Solo only: the hook and
// soloAttempt run on Race's own goroutine, so the captured bound needs no
// synchronization — raced rounds (runRound) deliberately carry no hook.
// No-op on untraced contexts.
func soloProgress(ctx context.Context, r *racer, block, bound, lb int) func() {
	every := obs.ProgressEvery(ctx)
	if every <= 0 {
		return func() {}
	}
	s := r.enc.Solver()
	s.SetProgress(every, func(p sat.Progress) {
		obs.AddProgress(ctx, obs.ProgressSample{
			Time:         time.Now(),
			Block:        block,
			Bound:        bound,
			LB:           lb,
			Conflicts:    p.Conflicts,
			Restarts:     p.Restarts,
			Propagations: p.Propagations,
			Learnts:      p.Learnts,
		})
	})
	return func() { s.SetProgress(0, nil) }
}

// soloAttempt is the head-start phase of a round: the lead racer alone, one
// bounded budget, no competitors to cancel it.
func (r *racer) soloAttempt(ctx context.Context, deadline time.Time, headStart, roundCap int64) (sat.Status, int64) {
	if ctx.Err() != nil || deadlineExpired(deadline) {
		return sat.Unknown, 0
	}
	budget := headStart
	if r.cap > 0 {
		rem := r.cap - r.spent
		if rem <= 0 {
			r.out = true
			return sat.Unknown, 0
		}
		if rem < budget {
			budget = rem
		}
	}
	if roundCap > 0 && roundCap < budget {
		budget = roundCap
	}
	s := r.enc.Solver()
	s.SetInterrupt(func() bool { return ctx.Err() != nil })
	defer s.SetInterrupt(nil)
	s.SetConflictBudget(budget)
	before := s.Conflicts
	st := r.enc.Solve()
	spent := s.Conflicts - before
	r.spent += spent
	if st != sat.Unknown {
		s.SetConflictBudget(-1)
	} else if r.cap > 0 && r.cap-r.spent <= 0 {
		r.out = true
	}
	return st, spent
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
// solver interrupt so a decided round cancels mid-search.
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
