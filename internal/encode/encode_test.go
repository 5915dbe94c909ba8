package encode

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
	"repro/internal/fooling"
	"repro/internal/sat"
)

// encoders under test, by name.
func allEncoders(m *bitmat.Matrix, b int) map[string]Encoder {
	return map[string]Encoder{
		"onehot-native":     NewOneHot(m, b, AMONative),
		"onehot-pairwise":   NewOneHot(m, b, AMOPairwise),
		"onehot-sequential": NewOneHot(m, b, AMOSequential),
	}
}

// amoModes is the differential matrix for the three at-most-one encodings of
// the one-hot compilation.
var amoModes = []AMO{AMONative, AMOPairwise, AMOSequential}

// bruteBinaryRank computes r_B(M) by brute-force search over partitions of
// the 1-entries into rectangles (exponential; tiny matrices only). It works
// by trying increasing b and checking assignments recursively.
func bruteBinaryRank(m *bitmat.Matrix) int {
	ones := m.OnesPositions()
	if len(ones) == 0 {
		return 0
	}
	for b := 1; b <= len(ones); b++ {
		if bruteAssign(m, ones, nil, b) {
			return b
		}
	}
	return len(ones)
}

// bruteAssign tries to extend the partial assignment (slot per processed
// entry) to all entries with at most b rectangles.
func bruteAssign(m *bitmat.Matrix, ones [][2]int, slots []int, b int) bool {
	if len(slots) == len(ones) {
		return slotsAreRectangles(ones, slots)
	}
	e := len(slots)
	maxSlot := 0
	for _, s := range slots {
		if s+1 > maxSlot {
			maxSlot = s + 1
		}
	}
	limit := maxSlot // may open one new rectangle
	if limit >= b {
		limit = b - 1
	}
	for k := 0; k <= limit; k++ {
		if validExtension(m, ones, slots, e, k) {
			if bruteAssign(m, ones, append(slots, k), b) {
				return true
			}
		}
	}
	return false
}

// slotsAreRectangles reports whether every slot of a complete assignment
// holds exactly the 1-entries of its rows × cols product. validExtension
// prunes only on entries assigned so far, so a cross entry assigned after
// the pair that needs it can still land in another slot; this final check
// rejects such assignments.
func slotsAreRectangles(ones [][2]int, slots []int) bool {
	rows, cols, n := map[int]map[int]bool{}, map[int]map[int]bool{}, map[int]int{}
	for e, k := range slots {
		if rows[k] == nil {
			rows[k], cols[k] = map[int]bool{}, map[int]bool{}
		}
		rows[k][ones[e][0]] = true
		cols[k][ones[e][1]] = true
		n[k]++
	}
	for k, c := range n {
		if c != len(rows[k])*len(cols[k]) {
			return false
		}
	}
	return true
}

// validExtension checks the rectangle closure conditions between entry e
// (assigned k) and all earlier entries.
func validExtension(m *bitmat.Matrix, ones [][2]int, slots []int, e, k int) bool {
	i, j := ones[e][0], ones[e][1]
	for o, ko := range slots {
		if ko != k {
			continue
		}
		i2, j2 := ones[o][0], ones[o][1]
		if i2 == i || j2 == j {
			continue
		}
		if !m.Get(i, j2) || !m.Get(i2, j) {
			return false
		}
	}
	// Also ensure closure entries would be assignable: both crosses must be
	// in the same rectangle eventually. The recursive search handles this
	// implicitly only if crosses processed later may still pick k; crosses
	// processed earlier must already be in k.
	for o, ko := range slots {
		if ko != k {
			continue
		}
		i2, j2 := ones[o][0], ones[o][1]
		if i2 == i || j2 == j {
			continue
		}
		// crosses (i, j2) and (i2, j) must be in slot k if already assigned.
		for c, kc := range slots {
			ci, cj := ones[c][0], ones[c][1]
			if (ci == i && cj == j2) || (ci == i2 && cj == j) {
				if kc != k {
					return false
				}
			}
		}
	}
	return true
}

func TestEncodersOnFig1b(t *testing.T) {
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	// The paper proves r_B = 5 via a fooling set.
	for name, e := range allEncoders(m, 5) {
		if got := e.Solve(); got != sat.Sat {
			t.Fatalf("%s: b=5 should be SAT, got %v", name, got)
		}
		p, err := e.ReadPartition()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Depth() > 5 {
			t.Fatalf("%s: depth %d > 5", name, p.Depth())
		}
		e.Narrow()
		if got := e.Solve(); got != sat.Unsat {
			t.Fatalf("%s: b=4 should be UNSAT, got %v", name, got)
		}
	}
}

func TestEncodersOnEq2(t *testing.T) {
	// Eq. 2 matrix: r_B = 3 although fooling number is 2.
	m := bitmat.MustParse("110\n011\n111")
	for name, e := range allEncoders(m, 3) {
		if got := e.Solve(); got != sat.Sat {
			t.Fatalf("%s: b=3 should be SAT, got %v", name, got)
		}
		e.Narrow()
		if got := e.Solve(); got != sat.Unsat {
			t.Fatalf("%s: b=2 should be UNSAT, got %v", name, got)
		}
	}
}

func TestEncodersZeroMatrix(t *testing.T) {
	m := bitmat.New(3, 4)
	for name, e := range allEncoders(m, 0) {
		if got := e.Solve(); got != sat.Sat {
			t.Fatalf("%s: zero matrix b=0 should be SAT, got %v", name, got)
		}
		p, err := e.ReadPartition()
		if err != nil || p.Depth() != 0 {
			t.Fatalf("%s: depth=%d err=%v", name, p.Depth(), err)
		}
	}
}

func TestEncodersBoundZeroNonzeroMatrix(t *testing.T) {
	m := bitmat.MustParse("1")
	for name, e := range allEncoders(m, 0) {
		if got := e.Solve(); got != sat.Unsat {
			t.Fatalf("%s: b=0 with 1-entries should be UNSAT, got %v", name, got)
		}
	}
}

func TestNarrowToZero(t *testing.T) {
	m := bitmat.MustParse("1")
	for name, e := range allEncoders(m, 1) {
		if got := e.Solve(); got != sat.Sat {
			t.Fatalf("%s: b=1, got %v", name, got)
		}
		e.Narrow()
		if e.Bound() != 0 {
			t.Fatalf("%s: bound = %d", name, e.Bound())
		}
		if got := e.Solve(); got != sat.Unsat {
			t.Fatalf("%s: b=0, got %v", name, got)
		}
	}
}

func TestEncodersAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		m := bitmat.Random(rng, 2+rng.Intn(3), 2+rng.Intn(3), 0.3+0.5*rng.Float64())
		if m.Ones() == 0 || m.Ones() > 9 {
			continue
		}
		want := bruteBinaryRank(m)
		for name, factory := range map[string]func(int) Encoder{
			"onehot-pairwise":    func(b int) Encoder { return NewOneHot(m, b, AMOPairwise) },
			"onehot-incremental": func(b int) Encoder { return NewOneHotIncremental(m, b, AMONative) },
		} {
			// want is SAT, want-1 is UNSAT.
			e := factory(want)
			if got := e.Solve(); got != sat.Sat {
				t.Fatalf("%s: b=%d should be SAT for\n%s", name, want, m)
			}
			if _, err := e.ReadPartition(); err != nil {
				t.Fatalf("%s: readout: %v", name, err)
			}
			if want > 1 {
				e2 := factory(want - 1)
				if got := e2.Solve(); got != sat.Unsat {
					t.Fatalf("%s: b=%d should be UNSAT for\n%s", name, want-1, m)
				}
			}
		}
	}
}

func TestIncrementalNarrowingMatchesFresh(t *testing.T) {
	// Narrowing an existing formula must decide the same as building fresh.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		m := bitmat.Random(rng, 3, 4, 0.5)
		if m.Ones() == 0 {
			continue
		}
		ub := m.TrivialUpperBound()
		inc := NewOneHot(m, ub, AMOPairwise)
		for b := ub; b >= 1; b-- {
			gotInc := inc.Solve()
			fresh := NewOneHot(m, b, AMOPairwise)
			gotFresh := fresh.Solve()
			if gotInc != gotFresh {
				t.Fatalf("b=%d: incremental %v vs fresh %v for\n%s", b, gotInc, gotFresh, m)
			}
			if gotInc == sat.Unsat {
				break
			}
			inc.Narrow()
		}
	}
}

// Property: whenever the encoder reports SAT, the decoded partition is valid
// with depth ≤ bound, and it reports SAT exactly when brute force finds a
// partition into at most b rectangles.
func TestQuickEncodersConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 1+rng.Intn(4), 1+rng.Intn(4), rng.Float64())
		if m.Ones() == 0 {
			return true
		}
		b := 1 + rng.Intn(m.Ones())
		oh := NewOneHot(m, b, AMOPairwise)
		st := oh.Solve()
		if (st == sat.Sat) != (bruteBinaryRank(m) <= b) {
			return false
		}
		if st == sat.Sat {
			p, err := oh.ReadPartition()
			if err != nil || p.Depth() > b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// narrowedDepth runs the full narrowing loop with one AMO mode and returns
// the optimal depth plus the final SAT model's partition.
func narrowedDepth(t *testing.T, m *bitmat.Matrix, mode AMO) int {
	t.Helper()
	ub := m.TrivialUpperBound()
	if ub == 0 {
		return 0
	}
	e := NewOneHot(m, ub, mode)
	best := -1
	for {
		if e.Solve() != sat.Sat {
			break
		}
		p, err := e.ReadPartition()
		if err != nil {
			t.Fatalf("%v at b=%d: %v\n%s", mode, e.Bound(), err, m)
		}
		if p.Depth() > e.Bound() {
			t.Fatalf("%v at b=%d: depth %d exceeds bound\n%s", mode, e.Bound(), p.Depth(), m)
		}
		best = e.Bound()
		if e.Bound() == 0 {
			break
		}
		e.Narrow()
	}
	if best < 0 {
		t.Fatalf("%v: UNSAT at the trivial upper bound %d\n%s", mode, ub, m)
	}
	return best
}

// TestAMOModesAgreeOnCorpus narrows every seed-corpus matrix to its optimal
// depth under each of the three AMO encodings: the depths must be identical
// and every intermediate model must decode to a valid partition.
func TestAMOModesAgreeOnCorpus(t *testing.T) {
	corpus := []*bitmat.Matrix{
		bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111"), // Fig. 1b
		bitmat.MustParse("110\n011\n111"),                                  // Eq. 2
		bitmat.MustParse("1"),
		bitmat.MustParse("11\n11"),
		bitmat.MustParse("10\n01"),
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		m := bitmat.Random(rng, 2+rng.Intn(4), 2+rng.Intn(4), 0.3+0.5*rng.Float64())
		if m.Ones() > 0 {
			corpus = append(corpus, m)
		}
	}
	for i, m := range corpus {
		want := narrowedDepth(t, m, AMONative)
		for _, mode := range amoModes[1:] {
			if got := narrowedDepth(t, m, mode); got != want {
				t.Fatalf("corpus[%d]: %v depth %d, native depth %d\n%s", i, mode, got, want, m)
			}
		}
	}
}

// FuzzAMOEquivalence: for any small matrix and bound, the three AMO
// encodings must agree on satisfiability, each must answer what brute force
// answers (the modes share the symmetry breaks, so agreement alone cannot
// catch an unsound one), and SAT models must decode to valid partitions
// within the bound.
func FuzzAMOEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(2), "101010011")
	f.Add(uint8(2), uint8(5), uint8(3), "1111100000")
	f.Add(uint8(6), uint8(6), uint8(4), "101100010011101010010101111000000111")
	f.Add(uint8(1), uint8(1), uint8(1), "1")
	f.Fuzz(func(t *testing.T, rows, cols, bound uint8, bits string) {
		r := int(rows%6) + 1
		c := int(cols%6) + 1
		m := bitmat.New(r, c)
		for idx := 0; idx < r*c && idx < len(bits); idx++ {
			if bits[idx]&1 == 1 {
				m.Set(idx/c, idx%c, true)
			}
		}
		if m.Ones() == 0 {
			return
		}
		b := int(bound)%m.Ones() + 1
		want := bruteBinaryRank(m) <= b
		var status [3]sat.Status
		for i, mode := range amoModes {
			e := NewOneHot(m, b, mode)
			status[i] = e.Solve()
			if (status[i] == sat.Sat) != want {
				t.Fatalf("%v: %v at b=%d, brute-force r_B %d\n%s", mode, status[i], b, bruteBinaryRank(m), m)
			}
			if status[i] == sat.Sat {
				p, err := e.ReadPartition()
				if err != nil {
					t.Fatalf("%v: %v\n%s", mode, err, m)
				}
				if p.Depth() > b {
					t.Fatalf("%v: depth %d > bound %d\n%s", mode, p.Depth(), b, m)
				}
			}
		}
		if status[0] != status[1] || status[1] != status[2] {
			t.Fatalf("AMO modes disagree at b=%d: native=%v pairwise=%v sequential=%v\n%s",
				b, status[0], status[1], status[2], m)
		}
	})
}

// TestSymmetryBreaksAgreeWithBruteForce checks the pinned fooling set and
// the free-slot breaks against brute force: on random matrices up to 6×6,
// every bound from one below the pin size to r_B+1 must be SAT exactly when
// r_B ≤ b, for fresh formulas and for incremental (selector) and
// destructive (unit clause) narrowing, with slot ordering on and off, and
// every SAT model must decode to a valid partition within the bound. The
// bound below the pin size is where narrowing disables a pinned slot.
func TestSymmetryBreaksAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	check := func(name string, e Encoder, rb int, m *bitmat.Matrix) {
		t.Helper()
		b := e.Bound()
		st := e.Solve()
		if (st == sat.Sat) != (rb <= b) {
			t.Fatalf("%s: %v at b=%d, brute-force r_B %d\n%s", name, st, b, rb, m)
		}
		if st != sat.Sat {
			return
		}
		p, err := e.ReadPartition()
		if err != nil || p.Depth() > b {
			t.Fatalf("%s at b=%d: model %v (err %v)\n%s", name, b, p, err, m)
		}
	}
	matrices := 0
	for matrices < 4_000 {
		m := bitmat.Random(rng, 1+rng.Intn(6), 1+rng.Intn(6), 0.2+0.7*rng.Float64())
		if m.Ones() == 0 {
			continue
		}
		matrices++
		rb := bruteBinaryRank(m)
		lo, hi := max(1, len(fooling.Greedy(m))-1), rb+1
		amo := amoModes[matrices%len(amoModes)]
		for _, noOrder := range []bool{false, true} {
			cfg := OneHotConfig{AMO: amo, DisableSlotOrdering: noOrder}
			for b := lo; b <= hi; b++ {
				check("fresh", NewOneHotConfig(m, b, cfg), rb, m)
			}
			for _, incremental := range []bool{true, false} {
				cfg.Incremental = incremental
				e := NewOneHotConfig(m, hi, cfg)
				for {
					check(fmt.Sprintf("narrowed (incremental %v)", incremental), e, rb, m)
					if e.Bound() == lo {
						break
					}
					e.Narrow()
				}
			}
		}
	}
}

// TestFormulaSizeCountsEmittedClauses: the arena reservation counts every
// clause the encoder emits. Without slot ordering or selectors nothing is
// emitted after the symmetry-breaking units, so the solver keeps exactly the
// counted clauses; otherwise root simplification can only drop some.
func TestFormulaSizeCountsEmittedClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		m := bitmat.Random(rng, 2+rng.Intn(8), 2+rng.Intn(8), 0.2+0.7*rng.Float64())
		if m.Ones() == 0 {
			continue
		}
		b := max(2, m.Rank()+rng.Intn(3))
		f := len(fooling.Greedy(m))
		if f > b {
			f = 0
		}
		for _, cfg := range []OneHotConfig{
			{AMO: amoModes[trial%3], DisableSlotOrdering: true},
			{AMO: amoModes[trial%3]},
			{AMO: amoModes[trial%3], Incremental: true},
		} {
			e := NewOneHotConfig(m, b, cfg)
			want, _ := e.formulaSize(cfg, f)
			got := e.Solver().NumClauses()
			exact := cfg.DisableSlotOrdering && !cfg.Incremental
			if got > want || (exact && got != want) {
				t.Fatalf("%+v at b=%d: solver holds %d clauses, counted %d\n%s", cfg, b, got, want, m)
			}
		}
	}
}

// BenchmarkOneHotBuild builds the default encoder (incremental, native AMO,
// slot ordering) for 30 random 10×10 matrices at their rank + 2: the
// encoding cost of one SAT block, dominated by the clause arena.
func BenchmarkOneHotBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	ms := make([]*bitmat.Matrix, 30)
	for i := range ms {
		ms[i] = bitmat.Random(rng, 10, 10, 0.5)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, m := range ms {
			NewOneHotIncremental(m, m.Rank()+2, AMONative)
		}
	}
}

// Property: rank(M) ≤ r_B(M) — at b = rank-1 the formula must be UNSAT.
func TestQuickRankBoundRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bitmat.Random(rng, 2+rng.Intn(3), 2+rng.Intn(3), 0.5)
		r := m.Rank()
		if r < 2 {
			return true
		}
		e := NewOneHot(m, r-1, AMOPairwise)
		return e.Solve() == sat.Unsat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
