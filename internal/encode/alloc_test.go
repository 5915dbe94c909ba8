package encode

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/sat"
)

// raceEnabled is set by race_test.go: the race detector adds allocations of
// its own, so allocation pins skip there.
var raceEnabled bool

// TestOneHotBuildAllocs pins the allocations of building the default
// encoder for a random 10×10 pattern at rank + 2 and deciding that bound,
// the SAT stage's first probe: the first propagation with work installs the
// watchers of every clause added so far, so the count covers the whole
// formula. Watch lists are sized once per propagation from one backing
// array per kind; an append per watcher made 10 619.
func TestOneHotBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := bitmat.Random(rand.New(rand.NewSource(30)), 10, 10, 0.5)
	b := m.Rank() + 2
	probe := func() *OneHot {
		e := NewOneHotIncremental(m, b, AMONative)
		if st := e.Solve(); st != sat.Sat {
			t.Fatalf("bound %d: %v, want SAT", b, st)
		}
		return e
	}
	e := probe()
	got := testing.AllocsPerRun(20, func() { probe() })
	t.Logf("bound %d: %d variables, %d clauses, %d conflicts, %v allocs", b,
		e.Solver().NumVars(), e.Solver().NumClauses(), e.Solver().Conflicts, got)
	if want := 1184.0; got != want {
		t.Errorf("build and first probe: %v allocs per run, want %v", got, want)
	}
}
