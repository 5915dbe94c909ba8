package fooling

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
	"repro/internal/rowpack"
)

func TestIdentityFoolingSet(t *testing.T) {
	// The diagonal of I_n is a fooling set of size n.
	for n := 1; n <= 6; n++ {
		m := bitmat.Identity(n)
		set, ok := Exact(m, 0)
		if !ok {
			t.Fatalf("n=%d: exact search did not finish", n)
		}
		if len(set) != n {
			t.Fatalf("n=%d: fooling size %d, want %d", n, len(set), n)
		}
		if !IsFoolingSet(m, set) {
			t.Fatal("returned set is not a fooling set")
		}
	}
}

func TestAllOnesFoolingSet(t *testing.T) {
	// All-ones matrix: any two 1s fail the condition, so max size 1.
	m := bitmat.AllOnes(4, 4)
	set, ok := Exact(m, 0)
	if !ok || len(set) != 1 {
		t.Fatalf("got %d (ok=%v), want 1", len(set), ok)
	}
}

func TestPaperEq2Gap(t *testing.T) {
	// Equation 2 of the paper: this matrix needs 3 rectangles but any
	// fooling set has size ≤ 2.
	m := bitmat.MustParse("110\n011\n111")
	set, ok := Exact(m, 0)
	if !ok {
		t.Fatal("search did not finish")
	}
	if len(set) != 2 {
		t.Fatalf("max fooling size = %d, want 2 (paper Eq. 2)", len(set))
	}
}

func TestFig1bFoolingSetSize5(t *testing.T) {
	// Figure 1b of the paper: a fooling set of size 5 exists, proving the
	// 5-rectangle partition optimal.
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	set, ok := Exact(m, 0)
	if !ok {
		t.Fatal("search did not finish")
	}
	if len(set) != 5 {
		t.Fatalf("max fooling size = %d, want 5", len(set))
	}
	if !IsFoolingSet(m, set) {
		t.Fatal("not a fooling set")
	}
}

func TestZeroMatrix(t *testing.T) {
	set, ok := Exact(bitmat.New(3, 3), 0)
	if !ok || len(set) != 0 {
		t.Fatalf("zero matrix: got %d (ok=%v)", len(set), ok)
	}
	if g := Greedy(bitmat.New(2, 2)); len(g) != 0 {
		t.Fatalf("greedy on zero matrix: %v", g)
	}
}

func TestGreedyIsValidFoolingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		m := bitmat.Random(rng, 2+rng.Intn(8), 2+rng.Intn(8), 0.2+0.6*rng.Float64())
		set := Greedy(m)
		if !IsFoolingSet(m, set) {
			t.Fatalf("greedy returned invalid fooling set for\n%s", m)
		}
	}
}

func TestIsFoolingSetRejects(t *testing.T) {
	m := bitmat.AllOnes(2, 2)
	if IsFoolingSet(m, [][2]int{{0, 0}, {1, 1}}) {
		t.Fatal("two 1s of all-ones matrix cannot both be in a fooling set")
	}
	if IsFoolingSet(m, [][2]int{{0, 0}, {0, 0}}) {
		t.Fatal("duplicate entries are not a valid fooling set")
	}
	z := bitmat.New(2, 2)
	if IsFoolingSet(z, [][2]int{{0, 0}}) {
		t.Fatal("a 0 entry cannot be in a fooling set")
	}
}

func TestBudgetExhaustionStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := bitmat.Random(rng, 12, 12, 0.5)
	set, _ := Exact(m, 10) // tiny budget: must still return a valid set
	if !IsFoolingSet(m, set) {
		t.Fatal("budget-limited result is not a fooling set")
	}
	if len(set) == 0 && m.Ones() > 0 {
		t.Fatal("nonempty matrix must yield nonempty fooling set")
	}
}

// Property: exact ≥ greedy, and both are valid fooling sets; exact size is
// bounded by min(rows, cols) distinct... actually by the rank bound it is
// bounded by min(#rows, #cols) since a fooling set has ≤1 entry per row.
func TestQuickExactAtLeastGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 1+rng.Intn(6), 1+rng.Intn(6), rng.Float64())
		g := Greedy(m)
		e, ok := Exact(m, 0)
		if !ok {
			return false
		}
		minDim := m.Rows()
		if m.Cols() < minDim {
			minDim = m.Cols()
		}
		return len(e) >= len(g) && IsFoolingSet(m, e) && IsFoolingSet(m, g) && len(e) <= minDim
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fooling set has at most one entry per row and per column.
func TestQuickOneEntryPerRowCol(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 1+rng.Intn(7), 1+rng.Intn(7), rng.Float64())
		set, _ := Exact(m, 100000)
		rows := map[int]bool{}
		cols := map[int]bool{}
		for _, e := range set {
			if rows[e[0]] || cols[e[1]] {
				return false
			}
			rows[e[0]] = true
			cols[e[1]] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the word-parallel buildGraph matches the scalar compatibility
// predicate pair by pair (guards the bitset rewrite).
func TestQuickGraphMatchesCompatible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 1+rng.Intn(9), 1+rng.Intn(9), rng.Float64())
		g := buildGraph(m)
		for a := range g.pos {
			for b := range g.pos {
				want := compatible(m, g.pos[a][0], g.pos[a][1], g.pos[b][0], g.pos[b][1])
				if g.adj[a].get(b) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// oracleExactUpTo is the clone-per-node search that the per-depth one
// replaced, kept as a test-only reference on the same graph: every node
// clones its candidate set and every child gets a fresh one, so no two
// nodes share a bitset.
func oracleExactUpTo(m *bitmat.Matrix, budget int64, ub int) (set [][2]int, ok bool) {
	g := buildGraph(m)
	n := len(g.pos)
	if n == 0 {
		return nil, true
	}
	best := greedy(g)
	bestSize := len(best)
	if ub > 0 && bestSize >= ub {
		return best, true
	}

	clone := func(b bitset) bitset { return append(bitset(nil), b...) }
	cand := make(bitset, (n+63)/64)
	for i := 0; i < n; i++ {
		cand.set(i)
	}
	var cur []int
	nodes := int64(0)
	exceeded, capped := false, false

	var bestIdx []int
	var rec func(cand bitset)
	rec = func(cand bitset) {
		if exceeded || capped {
			return
		}
		nodes++
		if budget > 0 && nodes > budget {
			exceeded = true
			return
		}
		c := cand.count()
		if len(cur)+c <= bestSize {
			return
		}
		if c == 0 {
			if len(cur) > bestSize {
				bestSize = len(cur)
				bestIdx = append(bestIdx[:0], cur...)
				capped = ub > 0 && bestSize >= ub
			}
			return
		}
		rest := clone(cand)
		for {
			v := rest.first()
			if v < 0 {
				return
			}
			if len(cur)+rest.count() <= bestSize {
				return
			}
			rest.clear(v)
			next := clone(rest)
			next.and(g.adj[v])
			cur = append(cur, v)
			rec(next)
			cur = cur[:len(cur)-1]
			if exceeded || capped {
				return
			}
		}
	}
	rec(cand)

	if bestIdx != nil {
		best = make([][2]int, len(bestIdx))
		for i, v := range bestIdx {
			best[i] = g.pos[v]
		}
	}
	return best, !exceeded
}

// TestExactMatchesOracle: the per-depth search returns the oracle's set and
// ok flag on 2 000 seeded random matrices up to 12×12, Fig. 1b and the edge
// shapes, at budgets that stop it at the root, early, midway and never,
// uncapped and capped at the depth the cold path packs to.
func TestExactMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	var ms []*bitmat.Matrix
	for len(ms) < 2000 {
		ms = append(ms, bitmat.Random(rng, 1+rng.Intn(12), 1+rng.Intn(12), rng.Float64()))
	}
	for _, s := range []string{
		"101100\n010011\n101010\n010101\n111000\n000111", // Fig. 1b
		"000000\n010011\n000000\n010101\n000000",         // zero rows and columns
		"1011\n1011\n0110\n1011\n0110\n1101",             // duplicate rows
		"0", "1", "1011011101", "0000000000",
		"1\n0\n1\n1\n0\n1\n1\n1", "0\n0\n0",
	} {
		ms = append(ms, bitmat.MustParse(s))
	}
	for idx, m := range ms {
		packed := rowpack.PackDownTo(m, rowpack.DefaultOptions(), m.Rank()).Depth()
		for _, budget := range []int64{1, 3, 50, 200_000} {
			for _, ub := range []int{0, packed} {
				got, gotOK := ExactUpTo(m, budget, ub)
				want, wantOK := oracleExactUpTo(m, budget, ub)
				if !slices.Equal(got, want) || gotOK != wantOK {
					t.Fatalf("matrix %d, budget %d, cap %d: ExactUpTo = %v (ok %v), oracle %v (ok %v)\n%s",
						idx, budget, ub, got, gotOK, want, wantOK, m)
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go; the race detector's instrumentation
// is not what the allocation pins measure, so they skip under it.
var raceEnabled bool

// TestExactAllocs pins the search's allocations on the random 10×10 block
// of core's TestSolveAllocs (before compression), where greedy already
// finds the maximum set (9): the graph, the greedy seed and the level stack
// are allocated once per call and a search node allocates nothing, so the
// count does not grow with the budget (the clone-per-node search made
// 110, 1 559 and 4 107).
func TestExactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without the race detector")
	}
	m := bitmat.Random(rand.New(rand.NewSource(1)), 10, 10, 0.3)
	for _, tc := range []struct {
		budget int64
		allocs float64
	}{{10, 13}, {1_000, 13}, {200_000, 13}} {
		if got := testing.AllocsPerRun(20, func() { Exact(m, tc.budget) }); got != tc.allocs {
			t.Errorf("Exact(budget %d): %v allocs per run, want %v", tc.budget, got, tc.allocs)
		}
	}
}
