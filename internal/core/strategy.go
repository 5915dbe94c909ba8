package core

import (
	"fmt"
	"strings"

	"repro/internal/bitmat"
	"repro/internal/encode"
	"repro/internal/sat"
)

// Strategy is one configuration of the narrowing loop: an encoder shape plus
// the solver's search heuristics. Options.Strategy selects one by name; the
// empty name runs the configuration the ablation fields of Options describe.
type Strategy struct {
	// Name identifies the strategy in options and wire requests.
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

// Canonical is the default configuration: incremental one-hot with native
// AMO propagation, slot-ordering symmetry breaking and Glucose restarts —
// the strategy DefaultOptions runs.
func Canonical() Strategy {
	return Strategy{Name: "canonical", Solver: sat.DefaultConfig()}
}

// variants is the pool of named alternatives to Canonical. Every entry
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
		// native-amo is the canonical configuration under its explicit name,
		// for side-by-side runs against the encoded ablation seq-amo.
		{Name: "native-amo", Solver: def},
		{Name: "luby-destructive", Destructive: true, Solver: luby},
	}
}

// ByName resolves a strategy name: "canonical" or any variant name.
func ByName(name string) (Strategy, error) {
	if name == "canonical" {
		return Canonical(), nil
	}
	for _, v := range variants() {
		if v.Name == name {
			return v, nil
		}
	}
	return Strategy{}, fmt.Errorf("core: unknown strategy %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// Names lists every known strategy name, canonical first.
func Names() []string {
	out := []string{"canonical"}
	for _, v := range variants() {
		out = append(out, v.Name)
	}
	return out
}

// strategyFor resolves the strategy a solve runs. The empty name and
// "canonical" map to the configuration the ablation fields describe (so
// ablations still apply under the explicit canonical name); any other name
// runs that pool entry as it stands.
func strategyFor(opts Options) (Strategy, error) {
	if opts.Strategy != "" && opts.Strategy != "canonical" {
		return ByName(opts.Strategy)
	}
	st := Canonical()
	st.AMO = opts.AMO
	st.Destructive = opts.DisableIncremental
	st.NoSymmetryBreaking = opts.DisableSymmetryBreaking
	st.Solver.PhaseSaving = !opts.DisablePhaseSaving
	st.Solver.Inprocess = !opts.DisableInprocessing
	return st, nil
}
