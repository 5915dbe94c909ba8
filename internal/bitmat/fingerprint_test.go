package bitmat

import (
	"math/rand"
	"sync"
	"testing"
)

// permuteMatrix returns a copy of m with rows and columns permuted by the
// given permutations (perm[i] = destination index).
func permuteMatrix(m *Matrix, rowPerm, colPerm []int) *Matrix {
	out := New(m.Rows(), m.Cols())
	m.ForEachOne(func(i, j int) { out.Set(rowPerm[i], colPerm[j], true) })
	return out
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

func randPerm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

const fig1b = `101100
010011
101010
010101
111000
000111`

func TestFingerprintPermutationInvariance(t *testing.T) {
	cases := []string{
		fig1b,
		"1",
		"10\n01",
		"111\n111",
		"1100\n1100\n0011",
		"10101\n01010\n11111\n00000",
	}
	rng := rand.New(rand.NewSource(7))
	for ci, s := range cases {
		m := MustParse(s)
		fp := ComputeFingerprint(m)
		if !fp.Exact {
			t.Fatalf("case %d: fingerprint inexact", ci)
		}
		for trial := 0; trial < 20; trial++ {
			p := permuteMatrix(m, randPerm(rng, m.Rows()), randPerm(rng, m.Cols()))
			fpp := ComputeFingerprint(p)
			if fpp.Hash != fp.Hash {
				t.Fatalf("case %d trial %d: permuted fingerprint differs\nm:\n%s\np:\n%s", ci, trial, m, p)
			}
		}
	}
}

func TestFingerprintDuplicateAndZeroInvariance(t *testing.T) {
	m := MustParse(fig1b)
	fp := ComputeFingerprint(m)

	// Duplicate a row, then a column, then add an all-zero row and column:
	// the reduced form (hence the fingerprint) is unchanged.
	rows := m.ToRows()
	rows = append(rows, append([]int(nil), rows[2]...)) // dup row 2
	for i := range rows {
		rows[i] = append(rows[i], rows[i][4], 0) // dup col 4 + zero col
	}
	rows = append(rows, make([]int, m.Cols()+2)) // zero row
	fpb := ComputeFingerprint(FromRows(rows))
	if fpb.Hash != fp.Hash {
		t.Fatalf("duplicate/zero-augmented matrix changed fingerprint")
	}
	if got, want := fpb.Canonical.Rows(), fp.Canonical.Rows(); got != want {
		t.Fatalf("canonical rows = %d, want %d", got, want)
	}
}

func TestFingerprintBlockShuffleInvariance(t *testing.T) {
	// Two copies of the same block placed block-diagonally in either order.
	a := MustParse("110\n011")
	b := MustParse("101\n110\n011")
	ab := blockDiag(a, b)
	ba := blockDiag(b, a)
	fa, fb := ComputeFingerprint(ab), ComputeFingerprint(ba)
	if fa.Hash != fb.Hash {
		t.Fatalf("block order changed fingerprint")
	}
}

func blockDiag(ms ...*Matrix) *Matrix {
	rows, cols := 0, 0
	for _, m := range ms {
		rows += m.Rows()
		cols += m.Cols()
	}
	out := New(rows, cols)
	ro, co := 0, 0
	for _, m := range ms {
		m.ForEachOne(func(i, j int) { out.Set(ro+i, co+j, true) })
		ro += m.Rows()
		co += m.Cols()
	}
	return out
}

func TestFingerprintDistinguishesMatrices(t *testing.T) {
	seen := map[string]string{}
	add := func(s string) {
		m := MustParse(s)
		fp := ComputeFingerprint(m)
		if prev, ok := seen[fp.Hash]; ok {
			t.Fatalf("collision between:\n%s\nand:\n%s", prev, s)
		}
		seen[fp.Hash] = s
	}
	add(fig1b)
	add("1")
	add("10\n01")
	add("110\n011")
	add("111\n101")
}

func TestFingerprintAllOnesReducesToUnit(t *testing.T) {
	// All-ones matrices of any shape reduce (dup rows/cols) to the 1×1 unit,
	// so they all share one fingerprint — the documented duplication
	// invariance.
	f1 := ComputeFingerprint(MustParse("1"))
	f2 := ComputeFingerprint(AllOnes(3, 5))
	f3 := ComputeFingerprint(AllOnes(7, 2))
	if f2.Hash != f1.Hash || f3.Hash != f1.Hash {
		t.Fatalf("all-ones matrices do not share the unit fingerprint")
	}
}

func TestFingerprintZeroMatrix(t *testing.T) {
	f1 := ComputeFingerprint(New(3, 4))
	f2 := ComputeFingerprint(New(9, 1))
	if !f1.Exact || f1.Hash != f2.Hash {
		t.Fatalf("all-zero matrices should share an exact fingerprint")
	}
	if f1.Canonical.Rows() != 0 || f1.Canonical.Cols() != 0 {
		t.Fatalf("zero matrix canonical form should be empty, got %d×%d",
			f1.Canonical.Rows(), f1.Canonical.Cols())
	}
	fp := ComputeFingerprint(MustParse("1"))
	if fp.Hash == f1.Hash {
		t.Fatalf("unit and zero matrices collide")
	}
}

func TestFingerprintIdentityFamilies(t *testing.T) {
	// Identity matrices decompose into n unit blocks; the canonical form is
	// the identity again and distinct sizes stay distinct.
	f4 := ComputeFingerprint(Identity(4))
	f5 := ComputeFingerprint(Identity(5))
	if !f4.Exact || !f5.Exact {
		t.Fatalf("identity fingerprints should be exact")
	}
	if f4.Hash == f5.Hash {
		t.Fatalf("I4 and I5 collide")
	}
	rng := rand.New(rand.NewSource(3))
	p := permuteMatrix(Identity(5), randPerm(rng, 5), randPerm(rng, 5))
	if got := ComputeFingerprint(p); got.Hash != f5.Hash {
		t.Fatalf("permutation matrix does not match identity fingerprint")
	}
}

func TestFingerprintCirculantStaysWithinBudget(t *testing.T) {
	// A cycle (circulant with two diagonals) is vertex-transitive — the
	// hardest easy case for refinement. It must still canonicalize exactly
	// and invariantly at moderate size.
	n := 16
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
		m.Set(i, (i+1)%n, true)
	}
	fp := ComputeFingerprint(m)
	if !fp.Exact {
		t.Skipf("circulant exceeded canonicalization budget (acceptable: cache bypass)")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		p := permuteMatrix(m, randPerm(rng, n), randPerm(rng, n))
		if got := ComputeFingerprint(p); got.Hash != fp.Hash {
			t.Fatalf("circulant permutation changed fingerprint")
		}
	}
}

func TestFingerprintMapsReconstructMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := Random(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.4)
		fp := ComputeFingerprint(m)
		if !fp.Exact {
			continue
		}
		// Mapping the canonical matrix back through RowMap/ColMap must give
		// exactly the reduced matrix.
		r := fp.Comp.Reduced
		back := New(r.Rows(), r.Cols())
		fp.Canonical.ForEachOne(func(i, j int) {
			back.Set(fp.RowMap[i], fp.ColMap[j], true)
		})
		if !back.Equal(r) {
			t.Fatalf("trial %d: canonical maps do not reconstruct the reduced matrix\nm:\n%s", trial, m)
		}
	}
}

// FuzzFingerprintInvariance checks the two load-bearing properties on random
// matrices: permuting rows/columns never changes the hash, and equal hashes
// imply equal canonical matrices (soundness — a bit flip that changes the
// reduced form must change the hash).
func FuzzFingerprintInvariance(f *testing.F) {
	f.Add(uint16(6), uint16(6), int64(1), uint8(3))
	f.Add(uint16(1), uint16(1), int64(2), uint8(0))
	f.Add(uint16(12), uint16(5), int64(3), uint8(9))
	f.Fuzz(func(t *testing.T, rows, cols uint16, seed int64, flips uint8) {
		r := int(rows)%12 + 1
		c := int(cols)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		m := Random(rng, r, c, 0.35)
		fp := ComputeFingerprint(m)
		if fp.Exact {
			p := permuteMatrix(m, randPerm(rng, r), randPerm(rng, c))
			fpp := ComputeFingerprint(p)
			if fpp.Hash != fp.Hash {
				t.Fatalf("permutation changed fingerprint\nm:\n%s\np:\n%s", m, p)
			}
		}
		// Flip some bits; if the hash is unchanged the canonical forms must
		// be identical matrices (permutation/duplication equivalence is the
		// only allowed cause of collisions).
		m2 := m.Clone()
		for k := 0; k < int(flips)%4+1; k++ {
			i, j := rng.Intn(r), rng.Intn(c)
			m2.Set(i, j, !m2.Get(i, j))
		}
		fp2 := ComputeFingerprint(m2)
		if fp.Exact && fp2.Exact && fp.Hash == fp2.Hash {
			if !fp.Canonical.Equal(fp2.Canonical) {
				t.Fatalf("hash collision with different canonical forms\nm:\n%s\nm2:\n%s", m, m2)
			}
		}
	})
}

// TestKernelAllocs pins the allocation counts of the warm-path kernels, which
// allocate only what they return: Parse the matrix header and words;
// Compress the record, the reduced matrix (header and words) and each group
// list (outer slice and one shared backing array); Decompose the record, the
// block slice, one shared array each for the row lists, column lists, matrix
// headers and matrix words; ComputeFingerprint the Compress outputs plus the
// record, hash string, canonical matrix and both maps. Rank, a cold-path
// kernel, is pinned after them. Counts are exact, so one extra allocation
// fails; sync.Pool drops items at random under the race detector, so the
// pins run only without it.
func TestKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sparse := Random(rand.New(rand.NewSource(100)), 100, 100, 0.012)
	for _, tc := range []struct {
		name string
		m    *Matrix
	}{{"fig1b", MustParse(fig1b)}, {"sparse100", sparse}} {
		text := tc.m.String()
		reduced := Compress(tc.m).Reduced
		for _, k := range []struct {
			kernel string
			want   float64
			fn     func()
		}{
			{"Parse", 2, func() { MustParse(text) }},
			{"Compress", 7, func() { Compress(tc.m) }},
			{"Decompose", 6, func() { Decompose(reduced) }},
			{"ComputeFingerprint", 13, func() { ComputeFingerprint(tc.m) }},
		} {
			if got := testing.AllocsPerRun(200, k.fn); got != k.want {
				t.Errorf("%s(%s): %v allocs per run, want %v", k.kernel, tc.name, got, k.want)
			}
		}
	}
	// Rank on two matrices the modular pass cannot certify, so the exact
	// elimination runs: its matrix is one slab, but big.Int products still
	// allocate as they grow (one big.Int per entry made 110 and 255).
	for _, tc := range []struct {
		name string
		m    *Matrix
		want float64
	}{
		{"fig1b", MustParse(fig1b), 50},
		{"random10", Random(rand.New(rand.NewSource(1)), 10, 10, 0.3), 106},
	} {
		if got := testing.AllocsPerRun(200, func() { tc.m.Rank() }); got != tc.want {
			t.Errorf("Rank(%s): %v allocs per run, want %v", tc.name, got, tc.want)
		}
	}
}

// TestKernelsConcurrent runs the pooled-scratch kernels from several
// goroutines at once; each result must equal the one computed alone.
func TestKernelsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ms := make([]*Matrix, 64)
	want := make([]string, len(ms))
	wantBlocks := make([]int, len(ms))
	for i := range ms {
		ms[i] = Random(rng, 1+rng.Intn(30), 1+rng.Intn(30), 0.05+0.5*rng.Float64())
		want[i] = ComputeFingerprint(ms[i]).Hash
		wantBlocks[i] = len(Decompose(ms[i]).Blocks)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range ms {
				i := (k + 16*w) % len(ms)
				if got := ComputeFingerprint(ms[i]).Hash; got != want[i] {
					t.Errorf("matrix %d: concurrent hash %s, want %s", i, got, want[i])
				}
				if got := len(Decompose(ms[i]).Blocks); got != wantBlocks[i] {
					t.Errorf("matrix %d: concurrent Decompose gave %d blocks, want %d", i, got, wantBlocks[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
