package sat

import (
	"bufio"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
// Clauses may be added between Solve calls (the solver restarts from decision
// level 0), which is how the EBMF loop narrows the rectangle budget; the
// preferred incremental style is SolveAssuming with selector literals, which
// keeps learnt clauses and VSIDS state valid across calls without mutating
// the formula.
//
// All clauses live in a flat arena (see arena.go) and are addressed by
// 32-bit crefs; watch lists carry blocker literals so satisfied clauses are
// skipped without a memory load from the arena.
type Solver struct {
	ca      clauseArena
	clauses []cref // problem clauses
	learnts []cref // learnt clauses
	// attached is the length of the prefix of clauses whose watchers are
	// installed; the problem clauses after it wait for attachPending.
	attached int
	// attachCount is attachPending's per-literal watcher count, zero
	// between calls: long-clause lists first, then binary ones.
	attachCount []int32
	// watches holds the two-watched-literal lists of clauses with ≥3
	// literals; binary clauses live in binWatches, where an entry's
	// blocker is the entire rest of the clause (see attachClause).
	watches    [][]watcher
	binWatches [][]watcher

	// assign is indexed by LITERAL, not variable: assign[l] is l's truth
	// value under the current assignment (both polarities are written on
	// every enqueue). Indexing by literal makes value() a single array
	// load — no Var/Sign extraction, no conditional negation — which is
	// what the propagate inner loop spends most of its time asking.
	assign   []lbool
	level    []int // decision level per assigned variable
	reason   []cref
	trail    []Lit
	trailLim []int // trail index per decision level
	qhead    int

	activity   []float64
	varInc     float64
	claInc     float32
	heap       *varHeap
	phase      []bool // saved polarity per variable
	seen       []bool // scratch for analyze
	analyzeBuf []Lit
	clearBuf   []Lit   // literals whose seen flag must be reset after analyze
	addBuf     []Lit   // scratch for AddClause normalization
	lvlStamp   []int64 // per-decision-level scratch for LBD computation
	stamp      int64
	redStamp   []int64 // per-variable memo stamps for litRedundantDeep
	redVal     []bool  // memoized verdicts, valid when redStamp matches
	redEpoch   int64

	// Glucose-style restart state: a sliding window of recent learnt-clause
	// LBDs against the lifetime average, plus a trail-size EMA that blocks
	// restarts when the search looks close to a model.
	lbdWin    [50]int64
	lbdWinSum int64
	lbdWinN   int
	lbdWinIdx int
	lbdSum    float64
	trailAvg  float64

	unsatRoot bool // formula already false at level 0

	// Native at-most-one propagator state (see amo.go): all groups in one
	// flat literal store with start offsets, indexed per literal. The scratch
	// buffers hold the synthesized conflict/justification clauses analyze
	// dereferences through the tagged-reason scheme.
	amoLits      []Lit
	amoStart     []int32
	amoOcc       [][]int32
	amoConflLits [2]uint32
	amoReasonBuf [2]uint32

	lastInprocess int64 // Conflicts at the last inprocessing pass
	vivifyIdx     int   // rotating cursor over the learnt list for vivification

	// DeepMinimize enables recursive learnt-clause minimization (default
	// on; switch off to fall back to one-step self-subsumption).
	DeepMinimize bool
	// PhaseSaving remembers each variable's last polarity across
	// backtracking and reuses it on the next decision (default on; switch
	// off for the ablation).
	PhaseSaving bool
	// LubyRestarts switches from the default Glucose-style LBD-driven
	// restarts back to the Luby sequence (ablation).
	LubyRestarts bool
	// Inprocess enables between-restart clause vivification and binary
	// self-subsumption (default on; see inprocess.go). Switch off for the
	// ablation.
	Inprocess bool

	proof    *bufio.Writer // DRAT trace (nil when disabled)
	proofBuf []Lit         // scratch for proof deletions

	interrupt     func() bool // polled during search; true stops with Unknown
	interruptTick uint32      // iteration counter between interrupt polls

	progressFn    func(Progress) // sampled search telemetry (nil = off)
	progressEvery int64          // conflicts between samples
	progressNext  int64          // conflict count at which to fire next

	// Statistics.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learned      int64
	// InprocPasses and InprocStrengthened count inprocessing activity:
	// passes run, and clauses shrunk (by vivification or self-subsumption).
	InprocPasses       int64
	InprocStrengthened int64

	maxLearnts   float64
	learntAdjust int64

	budgetConflicts int64 // <0 means unlimited
}

// New returns an empty solver with no variables.
func New() *Solver {
	s := &Solver{
		varInc:          1.0,
		claInc:          1.0,
		budgetConflicts: -1,
		DeepMinimize:    true,
		PhaseSaving:     true,
		Inprocess:       true,
		lvlStamp:        make([]int64, 1),
	}
	s.heap = newVarHeap(&s.activity)
	return s
}

// ReserveVars grows the per-variable (and per-literal) backing arrays to
// hold at least n variables, so a burst of NewVar calls — an encoder
// building a formula — allocates each array once instead of doubling its
// way up. Purely a capacity hint: no variables are created.
func (s *Solver) ReserveVars(n int) {
	if n <= cap(s.level) {
		return
	}
	growL := func(b []lbool) []lbool { nb := make([]lbool, len(b), 2*n); copy(nb, b); return nb }
	s.assign = growL(s.assign)
	s.level = append(make([]int, 0, n), s.level...)
	s.reason = append(make([]cref, 0, n), s.reason...)
	s.activity = append(make([]float64, 0, n), s.activity...)
	s.phase = append(make([]bool, 0, n), s.phase...)
	s.seen = append(make([]bool, 0, n), s.seen...)
	s.lvlStamp = append(make([]int64, 0, n+1), s.lvlStamp...)
	s.redStamp = append(make([]int64, 0, n), s.redStamp...)
	s.redVal = append(make([]bool, 0, n), s.redVal...)
	s.watches = append(make([][]watcher, 0, 2*n), s.watches...)
	s.binWatches = append(make([][]watcher, 0, 2*n), s.binWatches...)
	if s.amoOcc != nil {
		s.amoOcc = append(make([][]int32, 0, 2*n), s.amoOcc...)
	}
	s.heap.reserve(n)
}

// ReserveClauses pre-sizes the clause arena and the problem-clause list
// for n more clauses holding lits literals in total, with the same
// allocate-once-instead-of-doubling intent as ReserveVars. Units never
// reach the arena, so callers count only clauses of two or more literals.
func (s *Solver) ReserveClauses(n, lits int) {
	s.clauses = slices.Grow(s.clauses, n)
	words := len(s.ca.data) + n*hdrWords + lits
	if words <= cap(s.ca.data) {
		return
	}
	s.ca.data = append(make([]uint32, 0, words), s.ca.data...)
}

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() Var {
	v := len(s.assign) / 2
	s.assign = append(s.assign, lUndef, lUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.lvlStamp = append(s.lvlStamp, 0) // levels range over 0..NumVars
	s.redStamp = append(s.redStamp, 0)
	s.redVal = append(s.redVal, false)
	s.watches = append(s.watches, nil, nil)
	s.binWatches = append(s.binWatches, nil, nil)
	if s.amoOcc != nil {
		s.amoOcc = append(s.amoOcc, nil, nil)
	}
	s.heap.insert(v)
	return v
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.assign) / 2 }

// NumClauses returns the number of problem clauses (excluding learnt ones).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of retained learnt clauses.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// SetConflictBudget bounds the number of conflicts of subsequent Solve calls;
// a negative value removes the bound. When the budget is exhausted Solve
// returns Unknown.
func (s *Solver) SetConflictBudget(n int64) { s.budgetConflicts = n }

// SetInterrupt installs a callback polled periodically inside the search
// loop (every interruptPollMask+1 propagate rounds). When it returns true
// the current Solve call backtracks to the root and returns Unknown, leaving
// the solver in a consistent state for further Solve calls. nil removes the
// hook. This is how context cancellation reaches a search in flight: the
// caller installs func() bool { return ctx.Err() != nil }.
func (s *Solver) SetInterrupt(fn func() bool) { s.interrupt = fn }

// Progress is a point-in-time sample of the search, handed to the hook
// installed with SetProgress.
type Progress struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learned      int64 // clauses learnt in total
	Learnts      int   // learnt clauses currently retained
}

// SetProgress installs a callback fired roughly every `every` conflicts with
// a snapshot of the search counters — the feed for live solve telemetry. The
// hook runs inside the search loop and must not block. every <= 0 or fn ==
// nil removes the hook. The off state costs one nil check per conflict.
func (s *Solver) SetProgress(every int64, fn func(Progress)) {
	if fn == nil || every <= 0 {
		s.progressFn = nil
		s.progressEvery = 0
		return
	}
	s.progressFn = fn
	s.progressEvery = every
	s.progressNext = s.Conflicts + every
}

// pollProgress fires the progress hook when the conflict count has crossed
// the next sampling point.
func (s *Solver) pollProgress() {
	if s.progressFn == nil || s.Conflicts < s.progressNext {
		return
	}
	s.progressNext = s.Conflicts + s.progressEvery
	s.progressFn(Progress{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Restarts:     s.Restarts,
		Learned:      s.Learned,
		Learnts:      len(s.learnts),
	})
}

// interruptPollMask spaces interrupt polls: a closure call per propagate
// round would be measurable on hot UNSAT proofs, so poll every 128 rounds
// (still sub-millisecond reaction at realistic propagation rates).
const interruptPollMask = 127

// interrupted polls the interrupt hook at the configured spacing.
func (s *Solver) interrupted() bool {
	if s.interrupt == nil {
		return false
	}
	s.interruptTick++
	return s.interruptTick&interruptPollMask == 0 && s.interrupt()
}

func (s *Solver) value(l Lit) lbool { return s.assign[l] }

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v Var) bool { return s.assign[PosLit(v)] == lTrue }

// AddClause adds a clause over the given literals. It must be called at
// decision level 0 (i.e. not from within Solve). Adding an empty or
// root-falsified clause marks the instance unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) {
	if s.unsatRoot {
		return
	}
	// A previous Solve may have left the trail at a high decision level
	// (e.g. after Sat); incremental clause addition happens at the root.
	s.cancelUntil(0)
	out, keep := s.prepareClause(lits)
	if !keep {
		return
	}
	switch len(out) {
	case 0:
		s.unsatRoot = true
	case 1:
		if !s.enqueue(out[0], crefUndef) {
			s.unsatRoot = true
			return
		}
		if s.propagate() != crefUndef {
			s.unsatRoot = true
		}
	default:
		// Watched by attachPending, before propagation next has work.
		s.clauses = append(s.clauses, s.ca.alloc(out, false))
	}
}

// prepareClause normalizes a clause at decision level 0: sort + dedupe, drop
// root-false literals, detect tautologies and root-satisfied clauses (keep =
// false means the clause carries no information and must be skipped). The
// scratch buffer and insertion sort keep clause loading allocation-free
// (encoders add hundreds of thousands of short clauses); the returned slice
// aliases s.addBuf and is only valid until the next call.
func (s *Solver) prepareClause(lits []Lit) (out []Lit, keep bool) {
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	switch {
	case len(ls) == 2:
		if ls[1] < ls[0] {
			ls[0], ls[1] = ls[1], ls[0]
		}
	case len(ls) > 64:
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	default:
		for i := 1; i < len(ls); i++ {
			for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
				ls[j], ls[j-1] = ls[j-1], ls[j]
			}
		}
	}
	out = ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l.Var() >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v references undeclared variable", l))
		}
		if l == prev {
			continue
		}
		if prev != LitUndef && l == prev.Neg() {
			return nil, false // tautology
		}
		switch s.value(l) {
		case lTrue:
			return nil, false // already satisfied at root
		case lFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	return out, true
}

// attachPending installs the watchers of the problem clauses added since
// the last call, in addition order, so every list holds exactly the
// watchers, in the order, that an attachClause per AddClause would have
// left. Nothing reads or moves a watcher in between: propagate calls it
// before it has work, and inprocessing and garbage collection, the other
// readers, call it or rebuild every list. One counting pass sizes each
// touched list once, cut from one backing array per kind, and the
// watchers are then stored by index, in place of a growing append per
// watcher.
func (s *Solver) attachPending() {
	pending := s.clauses[s.attached:]
	s.attached = len(s.clauses)
	if len(pending) == 0 {
		return
	}
	n := len(s.watches)
	if len(s.attachCount) < 2*n {
		s.attachCount = make([]int32, 2*n)
	}
	long, bin := s.attachCount[:n], s.attachCount[n:2*n]
	for _, c := range pending {
		next := long
		if s.ca.size(c) == 2 {
			next = bin
		}
		next[s.ca.lit(c, 0).Neg()]++
		next[s.ca.lit(c, 1).Neg()]++
	}
	extendLists(s.watches, long)
	extendLists(s.binWatches, bin)
	for _, c := range pending {
		lists, next := s.watches, long
		if s.ca.size(c) == 2 {
			lists, next = s.binWatches, bin
		}
		l0, l1 := s.ca.lit(c, 0), s.ca.lit(c, 1)
		lists[l0.Neg()][next[l0.Neg()]] = watcher{c, l1}
		next[l0.Neg()]++
		lists[l1.Neg()][next[l1.Neg()]] = watcher{c, l0}
		next[l1.Neg()]++
	}
	clear(s.attachCount)
}

// extendLists lengthens each list by count[l] watchers and leaves in
// count[l] the index of the first new one. A list without that much spare
// capacity moves to a cut of one new backing array, with room up to the
// next power of two, as append's doubling would leave it, so that the watch
// moves of the next propagation mostly find room too.
func extendLists(lists [][]watcher, count []int32) {
	need := 0
	for l, k := range count {
		if ws := lists[l]; k > 0 && cap(ws)-len(ws) < int(k) {
			need += roomFor(len(ws) + int(k))
		}
	}
	backing := make([]watcher, need)
	for l, k := range count {
		if k == 0 {
			continue
		}
		ws := lists[l]
		n, end := len(ws), len(ws)+int(k)
		if cap(ws) < end {
			room := roomFor(end)
			ws = backing[:n:room]
			copy(ws, lists[l])
			backing = backing[room:]
		}
		lists[l] = ws[:end]
		count[l] = int32(n)
	}
}

// roomFor is the capacity of a moved list of n watchers: the least power
// of two above n.
func roomFor(n int) int { return 1 << bits.Len(uint(n)) }

// attachClause installs the watchers of c: each watched literal's negation
// maps to a watcher blocking on the other watched literal. Binary clauses
// go to the dedicated binary watch lists, where the blocker IS the whole
// rest of the clause and propagation is a straight enqueue per entry — no
// arena access, no flag tests, no list compaction (binary clauses are
// never deleted).
func (s *Solver) attachClause(c cref) {
	l0, l1 := s.ca.lit(c, 0), s.ca.lit(c, 1)
	if s.ca.size(c) == 2 {
		s.binWatches[l0.Neg()] = append(s.binWatches[l0.Neg()], watcher{c, l1})
		s.binWatches[l1.Neg()] = append(s.binWatches[l1.Neg()], watcher{c, l0})
		return
	}
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{c, l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{c, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// enqueue assigns literal l with the given reason clause. It returns false
// on an immediate conflict with the current assignment.
func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assign[l] = lTrue
	s.assign[l.Neg()] = lFalse
	s.level[v] = s.decisionLevel()
	if len(s.trailLim) == 0 {
		// Root-level assignments never need their reason inspected
		// (analyze skips level-0 literals), and a reason recorded here
		// could be a clause inprocessing later deletes while the unit
		// stays on the trail forever — arena GC must not chase it.
		from = crefUndef
	}
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns a conflicting clause or
// crefUndef. Problem clauses still waiting for their watchers get them
// first, but only when there is work: AddAtMostOne propagates after every
// group, and attaching there would cut the lists once per group.
func (s *Solver) propagate() cref {
	if s.qhead < len(s.trail) && s.attached < len(s.clauses) {
		s.attachPending()
	}
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; visit clauses watching ¬p
		s.qhead++
		s.Propagations++
		if s.amoOcc != nil && len(s.amoOcc[p]) > 0 {
			if confl := s.amoPropagate(p); confl != crefUndef {
				s.qhead = len(s.trail)
				return confl
			}
		}
		// Binary pass: every entry is unit, satisfied or conflicting right
		// now, so a single enqueue resolves it — no arena access, no list
		// compaction (binary watchers never move or die).
		for _, w := range s.binWatches[p] {
			if !s.enqueue(w.blocker, w.c) {
				s.qhead = len(s.trail)
				return w.c
			}
		}
		ws := s.watches[p]
		kept := ws[:0]
		confl := crefUndef
		// The arena never allocates during propagation, so its backing
		// store can be hoisted out of the watcher loop; clauses are then
		// addressed by absolute word index, skipping the per-watcher
		// header decode and slice construction of ca.lits.
		data := s.ca.data
		falseLit := uint32(p.Neg())
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			// Blocker check: a true blocker means the clause is satisfied
			// and we never touch the arena.
			if s.assign[w.blocker] == lTrue {
				kept = append(kept, w)
				continue
			}
			// No deleted-clause check here: watch lists are swept eagerly
			// whenever clauses are marked deleted (reduceDB, inprocessing),
			// so the hot loop never pays for lazy deletion.
			c := w.c
			base := c + hdrWords
			// Normalize so the false literal (¬p ... i.e. the one whose
			// negation is p) is the second watched literal.
			if data[base] == falseLit {
				data[base], data[base+1] = data[base+1], data[base]
			}
			// If the first literal is true the clause is satisfied;
			// re-watch with it as the blocker.
			first := Lit(data[base])
			nw := watcher{c, first}
			if first != w.blocker && s.assign[first] == lTrue {
				kept = append(kept, nw)
				continue
			}
			// Look for a replacement for the false watched literal. Moving
			// the watch (rather than parking on a true blocker) keeps hot
			// literals' lists short, which measures faster on the dense
			// EBMF instances. A CaDiCaL-style saved-position resume was
			// also tried and rejected: changing the replacement order
			// perturbs the learnt-clause trajectory and cost ~60% more
			// conflicts on the Table I suites.
			moved := false
			for k, end := base+2, base+cref(data[c]>>2); k < end; k++ {
				lk := Lit(data[k])
				if s.assign[lk] != lFalse {
					data[base+1], data[k] = data[k], data[base+1]
					s.watches[lk.Neg()] = append(s.watches[lk.Neg()], nw)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, nw)
			if !s.enqueue(first, c) {
				confl = c
				s.qhead = len(s.trail)
				kept = append(kept, ws[wi+1:]...)
				break
			}
		}
		s.watches[p] = kept
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// litsLBD computes the literal-blocks-distance of a clause: the number of
// distinct nonzero decision levels among its literals (Glucose's quality
// measure for learnt clauses). Must be called while the literals' levels are
// still assigned, i.e. before backtracking.
func (s *Solver) litsLBD(lits []Lit) int {
	s.stamp++
	n := 0
	for _, l := range lits {
		lvl := s.level[l.Var()]
		if lvl > 0 && s.lvlStamp[lvl] != s.stamp {
			s.lvlStamp[lvl] = s.stamp
			n++
		}
	}
	return n
}

// clauseLBD is litsLBD over an arena clause.
func (s *Solver) clauseLBD(c cref) int {
	s.stamp++
	n := 0
	for _, w := range s.ca.lits(c) {
		lvl := s.level[Lit(w).Var()]
		if lvl > 0 && s.lvlStamp[lvl] != s.stamp {
			s.lvlStamp[lvl] = s.stamp
			n++
		}
	}
	return n
}

// bumpClause raises a learnt clause's activity and refreshes its LBD
// downward (Glucose's dynamic LBD: a clause participating in conflicts at a
// lower block count than recorded is more valuable than its birth LBD says).
func (s *Solver) bumpClause(c cref) {
	a := s.ca.activity(c) + s.claInc
	s.ca.setActivity(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setActivity(lc, s.ca.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
	if nl := s.clauseLBD(c); nl < s.ca.lbd(c) {
		s.ca.setLBD(c, nl)
	}
}

// analyze derives a first-UIP learnt clause from the conflict and returns it
// together with the backtrack level. learnt[0] is the asserting literal.
func (s *Solver) analyze(confl cref) (learnt []Lit, btLevel int) {
	learnt = append(s.analyzeBuf[:0], LitUndef) // slot for asserting literal
	counter := 0
	p := LitUndef
	index := len(s.trail) - 1

	for {
		var lits []uint32
		switch {
		case confl == amoConflictRef:
			// AMO conflict: the falsified pairwise clause was staged by
			// amoPropagate (first iteration only; never stored as a reason).
			lits = s.amoConflLits[:]
		case confl&amoReasonFlag != 0:
			// Tagged AMO reason of the asserted literal p: synthesize the
			// binary justification [p, ¬trigger] — a clause of the group's
			// pairwise expansion — on demand.
			s.amoReasonBuf[0] = uint32(p)
			s.amoReasonBuf[1] = uint32(amoReasonLit(confl).Neg())
			lits = s.amoReasonBuf[:]
		default:
			if s.ca.learnt(confl) {
				s.bumpClause(confl)
			}
			lits = s.ca.lits(confl)
			if p != LitUndef && Lit(lits[0]) != p {
				// Binary clauses propagate straight from the watcher without
				// normalizing the asserted literal into slot 0; fix up lazily.
				lits[0], lits[1] = lits[1], lits[0]
			}
		}
		start := 0
		if p != LitUndef {
			start = 1 // lits[0] is the asserted literal p itself
		}
		for i := start; i < len(lits); i++ {
			q := Lit(lits[i])
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand from the trail.
		for !s.seen[s.trail[index].Var()] {
			index--
		}
		p = s.trail[index]
		index--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Remember every literal whose seen flag is still set so the cleanup
	// below also covers literals dropped by minimization (leaking a seen
	// flag corrupts counting in later conflicts).
	s.clearBuf = append(s.clearBuf[:0], learnt[1:]...)

	// Clause minimization: drop literals implied by the rest of the learnt
	// clause. Deep mode follows implication chains recursively (MiniSat's
	// ccmin-mode=2); basic mode checks one step only.
	j := 1
	if s.DeepMinimize {
		s.redEpoch++ // invalidates the per-variable memo in O(1)
		for i := 1; i < len(learnt); i++ {
			if !s.litRedundantDeep(learnt[i]) {
				learnt[j] = learnt[i]
				j++
			}
		}
	} else {
		for i := 1; i < len(learnt); i++ {
			if !s.litRedundantBasic(learnt[i]) {
				learnt[j] = learnt[i]
				j++
			}
		}
	}
	learnt = learnt[:j]

	// Find backtrack level: the second-highest decision level in the clause.
	btLevel = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}

	// Clear all seen flags, including those of minimized-away literals.
	s.seen[learnt[0].Var()] = false
	for _, l := range s.clearBuf {
		s.seen[l.Var()] = false
	}
	s.analyzeBuf = learnt
	return learnt, btLevel
}

// litRedundantDeep reports whether literal l is implied by the seen literals
// of the learnt clause through any chain of reason clauses. Verdicts are
// memoized per variable in stamp-indexed arrays valid for one analyze call
// (redEpoch), so the hot path never allocates; s.seen is never modified, so
// a failed exploration needs no rollback.
func (s *Solver) litRedundantDeep(l Lit) bool {
	v := l.Var()
	if s.redStamp[v] == s.redEpoch {
		return s.redVal[v]
	}
	r := s.reason[v]
	// Mark before recursing: cuts cycles conservatively (an in-progress
	// variable reads as not-redundant, avoiding circular proofs).
	s.redStamp[v] = s.redEpoch
	s.redVal[v] = false
	if r == crefUndef {
		return false
	}
	if r&amoReasonFlag != 0 {
		// AMO reason: the justification is [l, ¬trigger] — the only other
		// literal to chase is the trigger's negation.
		q := amoReasonLit(r).Neg()
		if !s.seen[q.Var()] && s.level[q.Var()] != 0 && !s.litRedundantDeep(q) {
			return false
		}
		s.redVal[v] = true
		return true
	}
	for i, n := 0, s.ca.size(r); i < n; i++ {
		q := s.ca.lit(r, i)
		if q.Var() == v {
			continue
		}
		if s.seen[q.Var()] || s.level[q.Var()] == 0 {
			continue
		}
		if !s.litRedundantDeep(q) {
			return false
		}
	}
	s.redVal[v] = true
	return true
}

// litRedundantBasic reports whether literal l of a learnt clause is implied
// by the remaining literals via its reason clause (one-step self-subsumption).
func (s *Solver) litRedundantBasic(l Lit) bool {
	r := s.reason[l.Var()]
	if r == crefUndef {
		return false
	}
	if r&amoReasonFlag != 0 {
		q := amoReasonLit(r).Neg()
		return s.seen[q.Var()] || s.level[q.Var()] == 0
	}
	for i, n := 0, s.ca.size(r); i < n; i++ {
		q := s.ca.lit(r, i)
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) decayVarActivity() { s.varInc /= 0.95 }
func (s *Solver) decayClaActivity() { s.claInc /= 0.999 }

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		if s.PhaseSaving {
			// The trail literal is the one that was true.
			s.phase[v] = !l.Sign()
		}
		s.assign[l] = lUndef
		s.assign[l.Neg()] = lUndef
		s.reason[v] = crefUndef
		s.level[v] = -1
		s.heap.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// pickBranchVar returns the unassigned variable with the highest activity.
func (s *Solver) pickBranchVar() Var {
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.assign[PosLit(v)] == lUndef {
			return v
		}
	}
	return -1
}

// recordLearnt installs a learnt clause with the given LBD and asserts its
// first literal.
func (s *Solver) recordLearnt(lits []Lit, lbd int) {
	s.Learned++
	s.proofAdd(lits)
	if len(lits) == 1 {
		// Asserting unit at level 0.
		if !s.enqueue(lits[0], crefUndef) {
			s.unsatRoot = true
			s.proofEmpty()
		}
		return
	}
	c := s.ca.alloc(lits, true)
	s.ca.setActivity(c, s.claInc)
	s.ca.setLBD(c, lbd)
	s.learnts = append(s.learnts, c)
	s.attachClause(c)
	s.enqueue(lits[0], c)
}

// glueLBD is the literal-blocks distance at or below which reduceDB always
// keeps a learnt clause ("glue"). It is a constant, not a knob: reduceDB
// sorts by LBD and keeps the better half anyway, so any cap matters only
// once more than half the database sits at or below it. Caps 2, 3, 4 and 6
// spent identical conflicts on every finished instance of the committed
// suites (DESIGN.md §2).
const glueLBD = 2

// reduceDB removes roughly half of the learnt clauses. Clauses are ranked by
// LBD first (Glucose), clause activity second; binary clauses, glue clauses
// (LBD ≤ glueLBD) and reason clauses are always kept.
func (s *Solver) reduceDB() {
	ca := &s.ca
	sort.Slice(s.learnts, func(i, j int) bool {
		ci, cj := s.learnts[i], s.learnts[j]
		if li, lj := ca.lbd(ci), ca.lbd(cj); li != lj {
			return li < lj
		}
		return ca.activity(ci) > ca.activity(cj)
	})
	locked := func(c cref) bool {
		v := ca.lit(c, 0).Var()
		return s.assign[PosLit(v)] != lUndef && s.reason[v] == c
	}
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		if ca.size(c) <= 2 || ca.lbd(c) <= glueLBD || locked(c) || i < len(s.learnts)/2 {
			kept = append(kept, c)
		} else {
			s.proofBuf = ca.appendLits(s.proofBuf[:0], c)
			s.proofDelete(s.proofBuf)
			ca.markDeleted(c)
		}
	}
	s.learnts = kept
	s.flushDeletions()
}

// flushDeletions makes deleted clauses invisible to propagation: either the
// arena GC ran (which rebuilds every watch list from the live clauses) or
// the watch lists are swept in place. Must be called after any batch of
// markDeleted calls before search resumes — propagate has no lazy
// deleted-clause check.
func (s *Solver) flushDeletions() {
	if s.maybeCollectGarbage() {
		return
	}
	// Binary watch lists never hold deleted clauses (binaries are never
	// deleted), so only the long-clause lists need sweeping.
	for i, ws := range s.watches {
		kept := ws[:0]
		for _, w := range ws {
			if s.ca.deleted(w.c) {
				continue
			}
			kept = append(kept, w)
		}
		s.watches[i] = kept
	}
}

// maybeCollectGarbage compacts the arena when at least a third of it is
// deleted clauses: alive clauses are copied to a fresh backing store in
// list order and every cref (clause lists, reasons) is remapped; watch lists
// are rebuilt. Preserving each clause's literal order keeps the two-watched-
// literal invariant, so compaction is sound at any decision level.
func (s *Solver) maybeCollectGarbage() bool {
	if s.ca.wasted*3 < len(s.ca.data) {
		return false
	}
	old := s.ca.data
	data := make([]uint32, 0, len(old)-s.ca.wasted)
	// move copies a clause and leaves a forwarding pointer in the old
	// header (deleted bit set, word 1 = new cref); a second move of the
	// same clause returns the forwarded cref. Genuinely deleted clauses
	// are never moved: they appear in no clause list and no reason.
	move := func(c cref) cref {
		if old[c]&1 != 0 {
			return cref(old[c+1])
		}
		n := cref(len(data))
		end := int(c) + hdrWords + int(old[c]>>2)
		data = append(data, old[c:end]...)
		old[c] |= 1
		old[c+1] = n
		return n
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	for v := range s.reason {
		// Tagged AMO reasons hold a literal, not an arena address: skip.
		if r := s.reason[v]; r != crefUndef && r&amoReasonFlag == 0 {
			s.reason[v] = move(r)
		}
	}
	s.ca.data = data
	s.ca.wasted = 0
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
		s.binWatches[i] = s.binWatches[i][:0]
	}
	for _, c := range s.clauses {
		s.attachClause(c)
	}
	s.attached = len(s.clauses)
	for _, c := range s.learnts {
		s.attachClause(c)
	}
	return true
}

// recordRestartStats feeds one conflict's LBD into the restart policy.
// Called at the conflict, before backtracking, so the trail length reflects
// how deep the search was. When the search trail is much larger than its
// running average the solver looks close to a model, and the LBD window is
// cleared to block an imminent restart (Glucose's restart blocking).
func (s *Solver) recordRestartStats(lbd int) {
	s.lbdSum += float64(lbd)
	if s.lbdWinN == len(s.lbdWin) {
		s.lbdWinSum -= s.lbdWin[s.lbdWinIdx]
	} else {
		s.lbdWinN++
	}
	s.lbdWin[s.lbdWinIdx] = int64(lbd)
	s.lbdWinSum += int64(lbd)
	s.lbdWinIdx = (s.lbdWinIdx + 1) % len(s.lbdWin)
	s.trailAvg += (float64(len(s.trail)) - s.trailAvg) / 5000
	if s.Conflicts > 10000 && s.lbdWinN == len(s.lbdWin) &&
		float64(len(s.trail)) > 1.4*s.trailAvg {
		s.lbdWinN, s.lbdWinSum, s.lbdWinIdx = 0, 0, 0
	}
}

// shouldRestart implements the restart policy: by default restart when
// 0.8 × (average LBD of the last 50 conflicts) exceeds the lifetime average
// LBD — recent learnt-clause quality has degraded, so the search region is
// bad (Glucose). With LubyRestarts, the classic conflict-count schedule.
func (s *Solver) shouldRestart(conflictsThisRestart, lubyLimit int64) bool {
	if s.LubyRestarts {
		return conflictsThisRestart >= lubyLimit
	}
	if s.lbdWinN < len(s.lbdWin) {
		return false
	}
	restart := float64(s.lbdWinSum)*0.8 > float64(len(s.lbdWin))*(s.lbdSum/float64(s.Conflicts))
	if restart {
		s.lbdWinN, s.lbdWinSum, s.lbdWinIdx = 0, 0, 0
	}
	return restart
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// scaled by base.
func luby(base int64, i int64) int64 {
	// Find the finite subsequence containing index i and its position.
	var size, seq int64 = 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	return base << uint(seq)
}

// Solve runs the CDCL search until the formula is decided or the conflict
// budget is exhausted. It may be called repeatedly, interleaved with
// AddClause.
func (s *Solver) Solve() Status { return s.solve(nil) }

// SolveAssuming solves under the given assumption literals, tried as the
// first decisions. Unsat means unsatisfiable *under the assumptions* (the
// formula itself is not marked unsatisfiable unless it conflicts at the
// root with no assumption involved). Assumptions leave no permanent
// constraints behind, unlike AddClause; learnt clauses and activities carry
// over to later calls, which is what makes assumption-based narrowing
// incremental.
func (s *Solver) SolveAssuming(assumptions ...Lit) Status {
	return s.solve(assumptions)
}

func (s *Solver) solve(assumptions []Lit) Status {
	if s.unsatRoot {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.unsatRoot = true
		s.proofEmpty()
		return Unsat
	}

	if s.maxLearnts == 0 {
		s.maxLearnts = float64(len(s.clauses)) / 3
		if s.maxLearnts < 1000 {
			s.maxLearnts = 1000
		}
		s.learntAdjust = 100
	}

	startConflicts := s.Conflicts
	budget := s.budgetConflicts
	var restartNum int64
	conflictsThisRestart := int64(0)
	restartLimit := luby(100, restartNum)

	for {
		if s.interrupted() {
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				s.unsatRoot = true
				s.proofEmpty()
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			lbd := s.litsLBD(learnt) // before backtracking clears levels
			s.recordRestartStats(lbd)
			s.cancelUntil(btLevel)
			s.recordLearnt(learnt, lbd)
			if s.unsatRoot {
				return Unsat
			}
			s.decayVarActivity()
			s.decayClaActivity()
			s.learntAdjust--
			if s.learntAdjust <= 0 {
				s.learntAdjust = 100
				s.maxLearnts *= 1.05
			}
			s.pollProgress()
			if budget >= 0 && s.Conflicts-startConflicts >= budget {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		// No conflict.
		if s.shouldRestart(conflictsThisRestart, restartLimit) {
			restartNum++
			s.Restarts++
			conflictsThisRestart = 0
			restartLimit = luby(100, restartNum)
			s.cancelUntil(0)
			s.maybeInprocess()
			if s.unsatRoot {
				return Unsat
			}
			continue
		}
		if float64(len(s.learnts)) >= s.maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
		}

		// Assumption literals come before free decisions: one per level.
		if dl := s.decisionLevel(); dl < len(assumptions) {
			a := assumptions[dl]
			if a.Var() >= s.NumVars() {
				panic(fmt.Sprintf("sat: assumption %v references undeclared variable", a))
			}
			switch s.value(a) {
			case lTrue:
				// Already implied: open an empty level so indices line up.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				// Conflicts with the formula under earlier assumptions.
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, crefUndef)
			continue
		}

		v := s.pickBranchVar()
		if v < 0 {
			return Sat // all variables assigned
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, !s.phase[v]), crefUndef)
	}
}

// Model returns a copy of the satisfying assignment after a Sat result.
func (s *Solver) Model() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.Value(v)
	}
	return m
}
