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

// checkSATBlocksHaveProgress asserts that every block span with a probe
// child has at least one progress sample labelled with its index.
func checkSATBlocksHaveProgress(t *testing.T, td *obs.TraceData) {
	t.Helper()
	sampled := map[string]bool{}
	for _, p := range td.Progress {
		sampled[strconv.Itoa(p.Block)] = true
	}
	reachedSAT := map[uint64]bool{}
	for _, sp := range td.Spans {
		if sp.Name == "probe" {
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

// TestSpanShapeUnraced: a block that reaches SAT records one probe span per
// bound with bound, status and conflicts, under the default configuration
// and under a named strategy alike.
func TestSpanShapeUnraced(t *testing.T) {
	luby := core.DefaultOptions()
	luby.Strategy = "luby"
	for _, opts := range []core.Options{core.DefaultOptions(), luby} {
		_, td := tracedSolve(t, gap8, opts)
		probes := spansNamed(td, "probe")
		if len(probes) == 0 {
			t.Fatalf("strategy %q: no probe span", opts.Strategy)
		}
		for _, p := range probes {
			for _, key := range []string{"bound", "status", "conflicts"} {
				if _, ok := spanAttr(p, key); !ok {
					t.Errorf("strategy %q: probe span lacks %q: %+v", opts.Strategy, key, p.Attrs)
				}
			}
		}
		checkSATBlocksHaveProgress(t, td)
	}
}
