package eval

import (
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/core"
)

// racerInstance is one named matrix of the survivor set.
type racerInstance struct {
	name string
	m    *bitmat.Matrix
}

// racerInstances is the fixed set on which every pool strategy beats the
// canonical one somewhere, drawn from committed generators: one instance of
// the hard-tail suite (DESIGN §9) on which each survivor spends fewer
// conflicts than canonical.
func racerInstances() []racerInstance {
	return []racerInstance{
		{"hard-tail-9001-14-4-4", benchgen.GapSuite(9001, 14, 14, []int{4}, 8)[4].M},
	}
}

// TestEverySurvivingRacerWins is the measurement that keeps each named
// strategy as a solo choice (core.Options.Strategy): run alone under a
// conflict budget, every strategy spends fewer conflicts than canonical on
// at least one instance. A strategy that stops winning anywhere is a
// candidate for deletion.
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
			won = won || c < canonical[i]
		}
		if !won {
			t.Errorf("strategy %q spends no fewer conflicts than canonical on any instance", name)
		}
	}
}
