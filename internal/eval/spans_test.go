package eval

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/obs"
)

// gap8 needs SAT narrowing under the default options: its heuristic depth
// exceeds every lower bound, and bound 7 is UNSAT.
var gap8 = bitmat.MustParse("10110101\n01101110\n11010011\n00111101\n11101010\n01011101\n10110110\n01101011")

// tracedSolve runs one solve under a fresh tracer and returns the result and
// its finished trace.
func tracedSolve(t *testing.T, m *bitmat.Matrix, opts core.Options) (*core.Result, *obs.TraceData) {
	t.Helper()
	ctx, root := obs.New(obs.Config{}).StartTrace(context.Background(), "solve", nil)
	res, err := core.SolveContext(ctx, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, root.Finish()
}

func spansNamed(td *obs.TraceData, name string) []obs.SpanData {
	var out []obs.SpanData
	for _, sp := range td.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func spanAttr(sp obs.SpanData, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// checkSATBlocksHaveProgress asserts that every block span with a probe or
// round child has at least one progress sample labelled with its index.
func checkSATBlocksHaveProgress(t *testing.T, td *obs.TraceData) {
	t.Helper()
	sampled := map[string]bool{}
	for _, p := range td.Progress {
		sampled[strconv.Itoa(p.Block)] = true
	}
	reachedSAT := map[uint64]bool{}
	for _, sp := range td.Spans {
		if sp.Name == "probe" || sp.Name == "round" {
			reachedSAT[sp.Parent] = true
		}
	}
	n := 0
	for _, blk := range spansNamed(td, "block") {
		if !reachedSAT[blk.ID] {
			continue
		}
		n++
		idx, _ := spanAttr(blk, "block")
		if !sampled[idx] {
			t.Errorf("block %s reached SAT but has no progress sample", idx)
		}
	}
	if n == 0 {
		t.Fatal("no traced block reached the SAT stage")
	}
}

// TestSpanShapeUnraced: a block that reaches SAT without racing records one
// probe span per bound with bound, status and conflicts, and no round span.
func TestSpanShapeUnraced(t *testing.T) {
	_, td := tracedSolve(t, gap8, core.DefaultOptions())
	probes := spansNamed(td, "probe")
	if len(probes) == 0 {
		t.Fatal("no probe span")
	}
	for _, p := range probes {
		for _, key := range []string{"bound", "status", "conflicts"} {
			if _, ok := spanAttr(p, key); !ok {
				t.Errorf("probe span lacks %q: %+v", key, p.Attrs)
			}
		}
	}
	if n := len(spansNamed(td, "round")); n != 0 {
		t.Errorf("unraced solve recorded %d round spans", n)
	}
	checkSATBlocksHaveProgress(t, td)
}

// TestSpanShapeRaced: a raced block records round spans that name the
// strategy that decided each bound.
func TestSpanShapeRaced(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Portfolio.Size = 3
	opts.Portfolio.HeadStart = -1
	_, td := tracedSolve(t, gap8, opts)
	rounds := spansNamed(td, "round")
	if len(rounds) == 0 {
		t.Fatal("no round span")
	}
	for _, r := range rounds {
		if w, ok := spanAttr(r, "winner"); !ok || w == "" {
			t.Errorf("round span lacks a winner: %+v", r.Attrs)
		}
	}
	checkSATBlocksHaveProgress(t, td)
}

// TestSpanShapeRederive: when a competitor decides the last satisfiable
// bound, the partition is re-derived once, inside one rederive span. Racer 0
// is starved to one conflict, so luby decides every bound.
func TestSpanShapeRederive(t *testing.T) {
	m := paperSuitesSmall()[15]
	opts := foolingOff()
	opts.ConflictBudget = 200_000
	opts.Packing.Trials = 1
	opts.Portfolio.Strategies = []string{"canonical", "luby"}
	opts.Portfolio.StrategyBudgets = []int64{1, 0}
	opts.Portfolio.HeadStart = -1
	res, td := tracedSolve(t, m, opts)
	if res.HeuristicDepth != 9 || res.Depth != 8 {
		t.Fatalf("heuristic depth %d, depth %d; want 9 and 8", res.HeuristicDepth, res.Depth)
	}
	if n := len(spansNamed(td, "rederive")); n != 1 {
		t.Fatalf("%d rederive spans, want 1", n)
	}
	checkSATBlocksHaveProgress(t, td)
}
