package eval

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/core"
)

// racerInstance is one named matrix of the survivor set.
type racerInstance struct {
	name string
	m    *bitmat.Matrix
}

// racerInstances is the fixed set on which every pool strategy beats the
// canonical one somewhere, drawn from committed generators.
func racerInstances() []racerInstance {
	// A sparse 16×16 circuit layer, drawn the way loadbench's circuit
	// family draws its 16×16 level.
	rng := rand.New(rand.NewSource(3577))
	occ := 0.05 + 0.15*rng.Float64()
	return []racerInstance{
		{"blockdiag-2", BlockDiagSAPMatrices()[2]},
		{"paper-gap3-1", PaperSuites(2024, 2, 10)["10x10, gap, 3"][1].M},
		{"circuit16-s3577", circuit.RandomCircuit(rng, 16, 16, 1, occ).Layers[0].Pattern},
	}
}

// TestEverySurvivingRacerWins is the measurement that keeps each named
// strategy as a solo choice (core.Options.Strategy): run alone under a
// conflict budget, every strategy except native-amo (the canonical
// configuration under its explicit name) spends fewer conflicts than
// canonical on at least one instance. A strategy that stops winning
// anywhere is a candidate for deletion.
func TestEverySurvivingRacerWins(t *testing.T) {
	instances := racerInstances()
	conflicts := func(m *bitmat.Matrix, name string) int64 {
		opts := core.DefaultOptions()
		opts.FoolingBudget = 0
		opts.ConflictBudget = 50_000
		opts.Strategy = name
		res, err := core.Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("%s did not finish within the budget", name)
		}
		return res.Conflicts
	}
	canonical := make([]int64, len(instances))
	for i, in := range instances {
		canonical[i] = conflicts(in.m, "canonical")
	}
	for _, name := range core.Names() {
		if name == "canonical" {
			continue
		}
		won := false
		for i, in := range instances {
			c := conflicts(in.m, name)
			t.Logf("%-16s %-16s %6d conflicts (canonical %d)", name, in.name, c, canonical[i])
			if name == "native-amo" && c != canonical[i] {
				t.Errorf("native-amo spent %d conflicts on %s, canonical %d: it must stay a clone", c, in.name, canonical[i])
			}
			won = won || c < canonical[i]
		}
		if !won && name != "native-amo" {
			t.Errorf("strategy %q spends no fewer conflicts than canonical on any instance", name)
		}
	}
}
