// Package portfolio implements per-block strategy racing for the SAP
// narrowing loop: K diversely-configured solver/encoder pairs attack the
// same depth-decision problem concurrently, the first to answer wins the
// round, and the losers are cancelled through the solver's interrupt hook.
// No single configuration dominates the Table I suites — the hard UNSAT
// tails want incremental narrowing with symmetry breaking, easy SAT
// instances often fall faster to Luby restarts or destructive narrowing —
// so racing takes the per-instance minimum at the price of redundant work,
// which clause sharing (see exchange.go) partly refunds.
//
// Race is also the narrowing loop when racing is off: with one strategy,
// every round runs that strategy alone on the caller's goroutine.
//
// Determinism contract: a race only ever decides *statuses* (is depth ≤ b
// feasible?), which are properties of the matrix and therefore identical no
// matter which racer answers first — so depth, optimality and certificate
// always match the one-strategy loop's. When a competitor decided the last
// satisfiable bound, the caller re-derives the partition with a
// one-strategy race at that bound, a pure function of (matrix, bound,
// options), so the partition too is identical regardless of race timing or
// which racer won (see core.solveBlock).
package portfolio

import (
	"fmt"
	"strings"

	"repro/internal/bitmat"
	"repro/internal/encode"
	"repro/internal/sat"
)

// Strategy is one racer configuration: an encoder shape plus the solver's
// search heuristics.
type Strategy struct {
	// Name identifies the strategy in stats, metrics and wire options.
	Name string
	// AMO selects the at-most-one encoding.
	AMO encode.AMO
	// Destructive narrows by unit clauses instead of selector assumptions.
	Destructive bool
	// NoSymmetryBreaking drops the slot-ordering clauses.
	NoSymmetryBreaking bool
	// Solver is the CDCL heuristic configuration.
	Solver sat.Config
}

// NewEncoder builds the strategy's encoder for r_B(m) ≤ b with its solver
// configuration applied.
func (st Strategy) NewEncoder(m *bitmat.Matrix, b int) encode.Encoder {
	enc := encode.NewOneHotConfig(m, b, encode.OneHotConfig{
		AMO:                 st.AMO,
		Incremental:         !st.Destructive,
		DisableSlotOrdering: st.NoSymmetryBreaking,
	})
	st.Solver.ApplyTo(enc.Solver())
	return enc
}

// equivalent reports whether two strategies describe the same configuration
// (names aside), so the default set never races a clone of the canonical
// strategy against itself.
func (st Strategy) equivalent(o Strategy) bool {
	st.Name, o.Name = "", ""
	return st == o
}

// Canonical is the default single-strategy configuration: incremental
// one-hot with native AMO propagation, slot-ordering symmetry breaking and
// Glucose restarts — the same configuration core.Solve uses when racing is
// off.
func Canonical() Strategy {
	return Strategy{Name: "canonical", Solver: sat.DefaultConfig()}
}

// variants is the diversity pool the default set draws from. Every entry
// differs from Canonical in exactly the dimension its name states, and each
// except native-amo spends fewer conflicts than Canonical on some committed
// instance (TestEverySurvivingRacerWins in internal/eval).
func variants() []Strategy {
	def := sat.DefaultConfig()
	luby := def
	luby.LubyRestarts = true
	noPhase := def
	noPhase.PhaseSaving = false
	return []Strategy{
		{Name: "destructive", Destructive: true, Solver: def},
		{Name: "luby", Solver: luby},
		{Name: "no-phase", Solver: noPhase},
		{Name: "seq-amo", AMO: encode.AMOSequential, Solver: def},
		// native-amo is the canonical configuration under its explicit name —
		// it lets -strategies race the native propagator against the encoded
		// ablations below (the default pool skips it as a canonical clone).
		{Name: "native-amo", Solver: def},
		{Name: "pairwise-amo", AMO: encode.AMOPairwise, Solver: def},
		{Name: "luby-destructive", Destructive: true, Solver: luby},
	}
}

// UnknownStrategyError reports a strategy name that resolves to nothing,
// carrying the full valid-name list so callers (CLI flag validation, wire
// option decoding) can surface it structurally instead of re-deriving it.
type UnknownStrategyError struct {
	Name  string
	Valid []string
}

func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("portfolio: unknown strategy %q (valid: %s)",
		e.Name, strings.Join(e.Valid, ", "))
}

// ByName resolves a strategy name ("canonical" or any variant name). The
// error, when non-nil, is an *UnknownStrategyError.
func ByName(name string) (Strategy, error) {
	if name == "canonical" {
		return Canonical(), nil
	}
	for _, v := range variants() {
		if v.Name == name {
			return v, nil
		}
	}
	return Strategy{}, &UnknownStrategyError{Name: name, Valid: Names()}
}

// Names lists every known strategy name, canonical first.
func Names() []string {
	out := []string{"canonical"}
	for _, v := range variants() {
		out = append(out, v.Name)
	}
	return out
}

// DefaultStrategies builds a k-strategy racing set: the base (canonical)
// configuration first, then k−1 variants chosen by a deterministic shuffle
// of the diversity pool under seed — so every block races the same set for
// the same matrix, but different blocks diversify differently. Variants
// equivalent to base are skipped. k is clamped to the pool size + 1.
func DefaultStrategies(base Strategy, k int, seed uint64) []Strategy {
	if base.Name == "" {
		base.Name = "canonical"
	}
	out := []Strategy{base}
	if k <= 1 {
		return out
	}
	pool := variants()
	kept := pool[:0]
	for _, v := range pool {
		if !v.equivalent(base) {
			kept = append(kept, v)
		}
	}
	pool = kept
	rng := splitmix64(seed)
	for i := len(pool) - 1; i > 0; i-- {
		j := int(rng() % uint64(i+1))
		pool[i], pool[j] = pool[j], pool[i]
	}
	for _, v := range pool {
		if len(out) == k {
			break
		}
		out = append(out, v)
	}
	return out
}

// Resolve maps strategy names to configurations, substituting base for
// "canonical" so server/CLI option overlays keep applying to racer 0.
func Resolve(base Strategy, names []string) ([]Strategy, error) {
	out := make([]Strategy, 0, len(names))
	for _, n := range names {
		if n == "canonical" {
			b := base
			b.Name = "canonical"
			out = append(out, b)
			continue
		}
		st, err := ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// Seed hashes a matrix into a strategy-selection seed (FNV-1a over the
// dimensions and set-bit positions): deterministic across runs, distinct
// across blocks.
func Seed(m *bitmat.Matrix) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mix(uint64(m.Rows()))
	mix(uint64(m.Cols()))
	m.ForEachOne(func(i, j int) {
		mix(uint64(i)<<32 | uint64(uint32(j)))
	})
	return h
}

// splitmix64 returns a deterministic 64-bit PRNG (Steele et al.) for the
// strategy shuffle — math/rand would work, but an explicit tiny generator
// keeps the block→strategy mapping stable across Go releases.
func splitmix64(seed uint64) func() uint64 {
	x := seed
	return func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
}
