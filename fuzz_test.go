// Fuzz targets: robustness of the parser and end-to-end solver invariants
// under arbitrary inputs. Under plain `go test` these run on their seed
// corpus; `go test -fuzz=FuzzX` explores further.
package ebmf_test

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	ebmf "repro"
	"repro/internal/fooling"
	"repro/internal/rowpack"
	"repro/internal/sat"
)

// FuzzParse: the matrix parser must never panic and must round-trip
// whatever it accepts.
func FuzzParse(f *testing.F) {
	f.Add("101\n010")
	f.Add("# comment\n1 0 1\n0,1,1")
	f.Add("")
	f.Add("abc")
	f.Add("1\n10")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ebmf.Parse(input)
		if err != nil {
			return
		}
		back, err := ebmf.Parse(m.String())
		if err != nil || !back.Equal(m) {
			t.Fatalf("accepted input does not round-trip: %q", input)
		}
	})
}

// FuzzSolveSmall: for any small binary matrix described by a byte string,
// SAP returns a valid partition obeying all bounds.
func FuzzSolveSmall(f *testing.F) {
	f.Add(uint8(3), uint8(3), "101010011")
	f.Add(uint8(2), uint8(5), "1111100000")
	f.Add(uint8(1), uint8(1), "1")
	f.Fuzz(func(t *testing.T, rows, cols uint8, bits string) {
		r := int(rows%6) + 1
		c := int(cols%6) + 1
		m := ebmf.New(r, c)
		for idx := 0; idx < r*c && idx < len(bits); idx++ {
			if bits[idx]&1 == 1 {
				m.Set(idx/c, idx%c, true)
			}
		}
		opts := ebmf.DefaultOptions()
		opts.Packing.Trials = 2
		opts.ConflictBudget = 50_000
		res, err := ebmf.Solve(m, opts)
		if err != nil {
			t.Fatalf("solve error: %v", err)
		}
		if err := res.Partition.Validate(); err != nil {
			t.Fatalf("invalid partition: %v\n%s", err, m)
		}
		if res.Depth < res.RankLB || res.Depth > m.TrivialUpperBound() {
			t.Fatalf("depth %d outside [rank %d, trivial %d]", res.Depth, res.RankLB, m.TrivialUpperBound())
		}
	})
}

// FuzzSolveDecomposed: the decomposed parallel pipeline — including context
// cancellation mid-solve — must never panic, must always return a valid
// partition within bounds, and must agree with the monolithic whole-matrix
// solve on depth whenever both complete unbudgeted. The matrix is assembled
// as two independent sub-blocks placed on a diagonal, so most inputs
// genuinely exercise the multi-block path.
func FuzzSolveDecomposed(f *testing.F) {
	f.Add(uint8(3), uint8(3), "101010011110", false)
	f.Add(uint8(5), uint8(2), "11111", true)
	f.Add(uint8(1), uint8(1), "1", false)
	f.Fuzz(func(t *testing.T, rows, cols uint8, bits string, cancel bool) {
		r := int(rows%4) + 1
		c := int(cols%4) + 1
		// diag(a, b) from one bit string: a is r×c, b is c×r.
		m := ebmf.New(r+c, c+r)
		for idx := 0; idx < r*c && idx < len(bits); idx++ {
			if bits[idx]&1 == 1 {
				m.Set(idx/c, idx%c, true)
			}
		}
		for idx := 0; idx < c*r && r*c+idx < len(bits); idx++ {
			if bits[r*c+idx]&1 == 1 {
				m.Set(r+idx/r, c+idx%r, true)
			}
		}
		opts := ebmf.DefaultOptions()
		opts.Packing.Trials = 2
		opts.ConflictBudget = 50_000
		opts.Parallelism = 3
		ctx := context.Background()
		if cancel {
			var done context.CancelFunc
			ctx, done = context.WithCancel(ctx)
			done() // canceled before the SAT stage: heuristic result only
		}
		res, err := ebmf.SolveContext(ctx, m, opts)
		if err != nil {
			t.Fatalf("solve error: %v", err)
		}
		if err := res.Partition.Validate(); err != nil {
			t.Fatalf("invalid partition: %v\n%s", err, m)
		}
		if res.Depth < res.RankLB || res.Depth > m.TrivialUpperBound() {
			t.Fatalf("depth %d outside [rank %d, trivial %d]", res.Depth, res.RankLB, m.TrivialUpperBound())
		}
		if cancel {
			return
		}
		whole := opts
		whole.DisableDecomposition = true
		wres, err := ebmf.Solve(m, whole)
		if err != nil {
			t.Fatalf("whole-matrix solve error: %v", err)
		}
		if res.Optimal && wres.Optimal && res.Depth != wres.Depth {
			t.Fatalf("decomposed depth %d != whole depth %d on\n%s", res.Depth, wres.Depth, m)
		}
	})
}

// FuzzDIMACS: the DIMACS parser must never panic; accepted formulas must
// solve without crashing.
func FuzzDIMACS(f *testing.F) {
	f.Add("p cnf 2 1\n1 -2 0\n")
	f.Add("c comment\np cnf 1 2\n1 0\n-1 0\n")
	f.Add("p cnf 0 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 {
			return
		}
		s, err := sat.ParseDIMACS(strings.NewReader(input))
		if err != nil {
			return
		}
		if s.NumVars() > 64 || s.NumClauses() > 256 {
			return // keep the fuzz iteration cheap
		}
		s.SetConflictBudget(10_000)
		s.Solve()
	})
}

// FuzzRowPack: row packing on arbitrary matrices must always produce a
// valid partition no worse than trivial. The solver's two early stops must
// not change a result either: packing down to a lower bound returns Pack's
// rectangles, and the fooling search capped at the packed depth returns
// Exact's set.
func FuzzRowPack(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), "1011")
	// Fig. 1b: the fooling bound (5) beats rank (4), so packing down to
	// rank runs every trial and the capped search stops at the packed depth.
	f.Add(int64(1), uint8(5), uint8(5), "101100010011101010010101111000000111")
	// Rank-certified: Trivial is one above rank and a trial meets it, while
	// the maximum fooling set (4) stays below the cap.
	f.Add(int64(1), uint8(5), uint8(5), "111111101110111010001111001010101100")
	// Greedy finds 5, so the capped search reaches the packed depth (6)
	// inside the branch-and-bound rather than at its greedy seed.
	f.Add(int64(1), uint8(5), uint8(5), "110011001100001010011000111100010001")
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8, bits string) {
		r := int(rows%8) + 1
		c := int(cols%8) + 1
		m := ebmf.New(r, c)
		for idx := 0; idx < r*c && idx < len(bits); idx++ {
			if bits[idx]&1 == 1 {
				m.Set(idx/c, idx%c, true)
			}
		}
		opts := rowpack.Options{Trials: 2, Seed: seed}
		p := rowpack.Pack(m, opts)
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid: %v\n%s", err, m)
		}
		if p.Depth() > m.TrivialUpperBound() {
			t.Fatalf("worse than trivial")
		}
		for _, lb := range []int{m.Rank(), len(fooling.Greedy(m))} {
			if got := rowpack.PackDownTo(m, opts, lb); got.String() != p.String() {
				t.Fatalf("PackDownTo(lb=%d) = %sPack = %s%s", lb, got, p, m)
			}
		}
		for _, budget := range []int64{3, 100_000} {
			want, wantOK := fooling.Exact(m, budget)
			got, gotOK := fooling.ExactUpTo(m, budget, p.Depth())
			if !slices.Equal(got, want) {
				t.Fatalf("budget %d: ExactUpTo(ub=%d) = %v, Exact = %v\n%s", budget, p.Depth(), got, want, m)
			}
			if gotOK != wantOK && (wantOK || len(got) != p.Depth()) {
				t.Fatalf("budget %d: ExactUpTo ok %v, Exact ok %v, set size %d, cap %d", budget, gotOK, wantOK, len(got), p.Depth())
			}
		}
	})
}

// FuzzRank: the rational rank (Eq. 3) on shapes up to 100×100 must equal
// Gaussian elimination over big.Rat, which shares nothing with Rank's
// fraction-free int64 and big.Int steps. Seeds: Fig. 1b, the 3×3 triangle
// whose GF(2) rank is lower, and a sparse 70×70 block below full rank.
func FuzzRank(f *testing.F) {
	f.Add(uint8(6), uint8(6), "101100010011101010010101111000000111")
	f.Add(uint8(3), uint8(3), "011101110")
	rng := rand.New(rand.NewSource(70))
	sparse := make([]byte, 70*70)
	for i := range sparse {
		sparse[i] = '0'
		if rng.Float64() < 0.04 {
			sparse[i] = '1'
		}
	}
	f.Add(uint8(70), uint8(70), string(sparse))
	f.Fuzz(func(t *testing.T, rows, cols uint8, bits string) {
		r := int(rows%100) + 1
		c := int(cols%100) + 1
		m := ebmf.New(r, c)
		for idx := 0; idx < r*c && idx < len(bits); idx++ {
			if bits[idx]&1 == 1 {
				m.Set(idx/c, idx%c, true)
			}
		}
		if got, want := m.Rank(), ratRank(m); got != want {
			t.Fatalf("Rank %d, big.Rat elimination %d\n%s", got, want, m)
		}
	})
}

// ratRank is the rank over ℚ by Gaussian elimination on big.Rat.
func ratRank(m *ebmf.Matrix) int {
	rows, cols := m.Rows(), m.Cols()
	a := make([][]big.Rat, rows)
	for i := range a {
		a[i] = make([]big.Rat, cols)
		for j := range a[i] {
			if m.Get(i, j) {
				a[i][j].SetInt64(1)
			}
		}
	}
	rank := 0
	var f, t big.Rat
	for col := 0; col < cols && rank < rows; col++ {
		pivot := -1
		for r := rank; r < rows; r++ {
			if a[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[rank], a[pivot] = a[pivot], a[rank]
		for r := rank + 1; r < rows; r++ {
			if a[r][col].Sign() == 0 {
				continue
			}
			f.Quo(&a[r][col], &a[rank][col])
			for j := col; j < cols; j++ {
				t.Mul(&f, &a[rank][j])
				a[r][j].Sub(&a[r][j], &t)
			}
		}
		rank++
	}
	return rank
}
