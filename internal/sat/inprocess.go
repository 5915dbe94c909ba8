package sat

// Inprocessing: between restarts the solver spends a bounded slice of work
// simplifying the clause database in place — clause vivification (assume the
// negation of a clause prefix and let unit propagation prove a shorter
// clause) and binary self-subsumption (resolve a clause against an existing
// binary, or a binary implied by an AMO group's pairwise expansion, to drop
// a literal). Both produce clauses that are RUP consequences of the current
// database, so each replacement is DRAT-logged add-then-delete and proof
// checking keeps working. Passes are gated by a conflict interval and capped
// by a propagation budget so inprocessing can never dominate search time.
// See DESIGN.md §12.

const (
	// inprocessInterval is the number of conflicts between passes.
	inprocessInterval = 3_000
	// inprocessPropBudget caps the unit propagations one vivification pass
	// may spend (the pass stops mid-sweep and the rotating cursor resumes
	// next time).
	inprocessPropBudget = 20_000
	// inprocessPairBudget caps literal-pair lookups per self-subsumption
	// sweep.
	inprocessPairBudget = 50_000
	// vivifyMinSize is the smallest clause vivification attempts: binary
	// clauses are load-bearing for the watcher fast path (binary watchers
	// never consult the arena, so a binary clause must never be deleted) and
	// can only shrink to units, which propagation would have found anyway.
	vivifyMinSize = 3
)

// maybeInprocess runs one inprocessing pass when enough conflicts have
// accumulated since the last one. Must be called at decision level 0 (the
// restart point). On a root conflict it marks the instance unsatisfiable and
// logs the empty clause; the caller checks unsatRoot.
func (s *Solver) maybeInprocess() {
	if !s.Inprocess || s.unsatRoot || s.decisionLevel() != 0 {
		return
	}
	if s.Conflicts-s.lastInprocess < inprocessInterval {
		return
	}
	s.lastInprocess = s.Conflicts
	s.InprocPasses++
	// The sweeps rewrite clauses and their watchers in place.
	s.attachPending()
	if s.propagate() != crefUndef {
		s.rootConflict()
		return
	}
	s.selfSubsumeSweep()
	if s.unsatRoot {
		return
	}
	s.vivifySweep()
}

// rootConflict records unsatisfiability discovered at level 0.
func (s *Solver) rootConflict() {
	s.unsatRoot = true
	s.proofEmpty()
}

// strengthenClause replaces the clause at list[i] with newLits, logging the
// replacement to the DRAT trace. The old clause must have size ≥ 3 (binary
// clauses are never deleted) and must not be a reason (guaranteed at level 0
// by skipping root-satisfied clauses: a root reason's asserted literal is
// root-true). newLits must be nonempty — vivification of a clause with no
// root-true literal can shrink it to a unit at minimum. Returns false when
// the unit case exposed a root conflict.
func (s *Solver) strengthenClause(list []cref, i int, newLits []Lit) bool {
	old := list[i]
	s.InprocStrengthened++
	s.proofAdd(newLits)
	if len(newLits) == 1 {
		// The clause collapsed to a root unit: assert it and drop the clause
		// from its list (the caller compacts crefUndef entries).
		s.proofBuf = s.ca.appendLits(s.proofBuf[:0], old)
		s.proofDelete(s.proofBuf)
		s.ca.markDeleted(old)
		list[i] = crefUndef
		if !s.enqueue(newLits[0], crefUndef) || s.propagate() != crefUndef {
			s.rootConflict()
			return false
		}
		return true
	}
	c := s.ca.alloc(newLits, s.ca.learnt(old))
	if s.ca.learnt(old) {
		s.ca.setActivity(c, s.ca.activity(old))
		lbd := s.ca.lbd(old)
		if m := len(newLits) - 1; m < lbd {
			lbd = m
		}
		if lbd < 1 {
			lbd = 1
		}
		s.ca.setLBD(c, lbd)
	}
	// alloc may have grown the backing array, but crefs are indices, so the
	// old clause's literals are still addressable for the deletion record.
	s.proofBuf = s.ca.appendLits(s.proofBuf[:0], old)
	s.proofDelete(s.proofBuf)
	s.ca.markDeleted(old)
	list[i] = c
	s.attachClause(c)
	return true
}

// compactList drops crefUndef entries left by unit-collapsed clauses.
func compactList(list []cref) []cref {
	kept := list[:0]
	for _, c := range list {
		if c != crefUndef {
			kept = append(kept, c)
		}
	}
	return kept
}

// binKey packs an unordered literal pair into a map key.
func binKey(a, b Lit) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// selfSubsumeSweep strengthens clauses by self-subsuming resolution with the
// binary clauses of the database and the binaries implied by AMO groups:
// clause C ∋ l with a binary [¬l, m] where m ∈ C\{l} resolves to C\{l}.
// Each drop is re-checked against the *remaining* clause so chains through
// mutually-subsuming binary pairs (l ↔ m equivalences) stay sound.
func (s *Solver) selfSubsumeSweep() {
	bins := make(map[uint64]struct{})
	collect := func(list []cref) {
		for _, c := range list {
			if !s.ca.deleted(c) && s.ca.size(c) == 2 {
				bins[binKey(s.ca.lit(c, 0), s.ca.lit(c, 1))] = struct{}{}
			}
		}
	}
	collect(s.clauses)
	collect(s.learnts)
	if len(bins) == 0 && len(s.amoStart) == 0 {
		return
	}
	// hasBin: does the binary clause [a, b] exist (explicitly or via an AMO
	// group containing ¬a and ¬b)?
	hasBin := func(a, b Lit) bool {
		if _, ok := bins[binKey(a, b)]; ok {
			return true
		}
		return s.sharesAMOGroup(a.Neg(), b.Neg())
	}
	budget := inprocessPairBudget
	var buf []Lit
	sweep := func(list []cref) []cref {
		for i, c := range list {
			if budget <= 0 {
				break
			}
			if c == crefUndef || s.ca.deleted(c) || s.ca.size(c) < vivifyMinSize {
				continue
			}
			buf = s.ca.appendLits(buf[:0], c)
			satisfied := false
			for _, l := range buf {
				if s.value(l) == lTrue {
					satisfied = true // root-satisfied (and possibly a reason): skip
					break
				}
			}
			if satisfied {
				continue
			}
			changed := false
			// Drop one literal at a time, restarting the pair scan against
			// the shrunken clause after each drop.
			for again := true; again && len(buf) >= 2; {
				again = false
				for di := 0; di < len(buf) && !again; di++ {
					for mi := 0; mi < len(buf); mi++ {
						if mi == di || buf[mi] == buf[di].Neg() {
							continue
						}
						budget--
						if budget <= 0 {
							break
						}
						if hasBin(buf[di].Neg(), buf[mi]) {
							buf = append(buf[:di], buf[di+1:]...)
							changed, again = true, true
							break
						}
					}
				}
			}
			if changed {
				if !s.strengthenClause(list, i, buf) {
					return compactList(list)
				}
				if len(buf) == 2 {
					bins[binKey(buf[0], buf[1])] = struct{}{}
				}
			}
		}
		return compactList(list)
	}
	s.clauses = sweep(s.clauses)
	s.attached = len(s.clauses) // every clause was attached before the sweep
	if s.unsatRoot {
		return
	}
	s.learnts = sweep(s.learnts)
	s.flushDeletions()
}

// vivifySweep runs clause vivification over the learnt database (rotating
// cursor, propagation budget): for clause [l1..lk], assume ¬l1, ¬l2, … one
// per decision level and propagate. A conflict proves the assumed prefix is
// already a clause; a satisfied later literal truncates the clause at that
// literal; a falsified later literal is redundant and drops out. Every
// outcome is a RUP consequence of the database (the clause itself included),
// so the shrunken clause is DRAT-sound via add-then-delete.
func (s *Solver) vivifySweep() {
	if len(s.learnts) == 0 {
		return
	}
	// Vivification probes must not pollute the saved phases: the assumed
	// literals are clause negations, not search decisions.
	savedPhase := s.PhaseSaving
	s.PhaseSaving = false
	defer func() { s.PhaseSaving = savedPhase }()

	startProps := s.Propagations
	n := len(s.learnts)
	var buf []Lit
	for visited := 0; visited < n; visited++ {
		if s.Propagations-startProps > inprocessPropBudget {
			break
		}
		i := s.vivifyIdx % len(s.learnts)
		s.vivifyIdx++
		c := s.learnts[i]
		if c == crefUndef || s.ca.deleted(c) || s.ca.size(c) < vivifyMinSize {
			continue
		}
		buf = s.ca.appendLits(buf[:0], c)
		skip := false
		for _, l := range buf {
			if s.value(l) == lTrue {
				skip = true // root-satisfied (covers root reason clauses)
				break
			}
		}
		if skip {
			continue
		}
		orig := len(buf)
		out := buf[:0]
		for _, l := range buf {
			switch s.value(l) {
			case lTrue:
				// Implied by the assumed prefix: [out…, l] subsumes the rest.
				out = append(out, l)
				goto done
			case lFalse:
				continue // falsified by the prefix (or the root): redundant
			}
			out = append(out, l)
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(l.Neg(), crefUndef)
			if s.propagate() != crefUndef {
				goto done // the assumed prefix refutes itself: [out…] is a clause
			}
		}
	done:
		s.cancelUntil(0)
		if len(out) < orig {
			if !s.strengthenClause(s.learnts, i, out) {
				break
			}
		}
	}
	s.learnts = compactList(s.learnts)
	s.flushDeletions()
}
