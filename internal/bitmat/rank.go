package bitmat

import (
	"math/big"
	"math/bits"
)

// rankPrime is the modulus for the fast modular rank pre-pass. Any prime
// works for a lower bound; this one keeps products inside uint64.
const rankPrime = 1_000_000_007

// rankLimit bounds the operands of the int64 elimination: a product of two
// of them, and the difference of two such products, stays inside int64.
const rankLimit = 1<<31 - 1

// hadamardDim is the largest min(rows, cols) at which no minor of a 0/1
// matrix can leave ±rankLimit. By Hadamard's bound a k×k 0/1 determinant is
// at most (k+1)^((k+1)/2) / 2^k: 1.09·10⁹ at k = 22, 4.35·10⁹ at k = 23.
const hadamardDim = 22

// Rank returns the exact rank of m over the rationals. Per Eq. 3 of the
// paper this is a lower bound on the binary rank.
//
// The rank comes from fraction-free Bareiss elimination, which never
// rounds: every entry it holds is, up to sign, a minor of m, and it runs on
// int64 while each operand lies within ±rankLimit, then on big.Int if one
// leaves it.
// When min(rows, cols) ≤ hadamardDim no minor can leave the range, so the
// elimination starts at once. Larger matrices first get the rank over GF(p)
// for a fixed prime p, which is always ≤ the rational rank: when that is
// already min(rows, cols) the rational rank is full too and no elimination
// runs.
func (m *Matrix) Rank() int {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	if minDim := min(m.rows, m.cols); minDim > hadamardDim {
		if rp := m.rankMod(); rp == minDim {
			return rp
		}
	}
	e := m.newElim()
	if e.int64Steps() {
		return e.rank
	}
	return e.bigSteps()
}

// rankMod computes the rank over GF(rankPrime) by forward Gaussian
// elimination. The result is a lower bound on the rational rank (a nonzero
// minor over ℚ may vanish mod p, never the reverse for 0/1 matrices reduced
// mod p). The modulus is a constant, so each reduction compiles to
// multiplications instead of a division.
func (m *Matrix) rankMod() int {
	const p = rankPrime
	a := slabRows[uint64](m)
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[rank], a[pivot] = a[pivot], a[rank]
		prow := a[rank][col:]
		if inv := modInverse(prow[0], p); inv != 1 {
			for j := range prow {
				prow[j] = prow[j] * inv % p
			}
		}
		for r := rank + 1; r < m.rows; r++ {
			row := a[r][col:len(a[r])]
			f := row[0]
			if f == 0 {
				continue
			}
			for j, y := range prow {
				if y != 0 {
					row[j] = (row[j] + (p-f)*y) % p
				}
			}
		}
		rank++
	}
	return rank
}

// modInverse returns a^{-1} mod p for prime p via Fermat's little theorem.
func modInverse(a, p uint64) uint64 {
	return modPow(a%p, p-2, p)
}

func modPow(base, exp, mod uint64) uint64 {
	result := uint64(1)
	base %= mod
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % mod
		}
		base = base * base % mod
		exp >>= 1
	}
	return result
}

// elim is a fraction-free (Bareiss) elimination in progress: columns
// before col are done, rank pivots are placed, and prev is the last pivot,
// by which the next step divides exactly. Each row equals ±1 times the row
// of the textbook elimination (see int64Steps), which changes no zero
// pattern, no magnitude and no division's exactness. Rows swap as slice
// headers.
type elim struct {
	a         [][]int64
	rows      int
	cols      int
	col, rank int
	prev      int64
}

// newElim loads m into an elimination at its first step.
func (m *Matrix) newElim() elim {
	return elim{a: slabRows[int64](m), rows: m.rows, cols: m.cols, prev: 1}
}

// slabRows returns m's entries as 0/1 rows cut from one slab, each row's
// capacity its length.
func slabRows[T int64 | uint64](m *Matrix) [][]T {
	slab := make([]T, m.rows*m.cols)
	a := make([][]T, m.rows)
	for i := range a {
		row := slab[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
		a[i] = row
		for k, w := range m.bits[i*m.wpr : (i+1)*m.wpr] {
			for ; w != 0; w &= w - 1 {
				row[k*wordBits+bits.TrailingZeros64(w)] = 1
			}
		}
	}
	return a
}

// int64Steps runs elimination steps on int64 while every operand lies
// within ±rankLimit, and reports whether the elimination finished. Each
// step computes its entries exactly, out-of-range ones included, so when it
// stops early bigSteps resumes from the state it leaves. An update whose
// two operands are 0 stays 0. A row whose multiplier is 0 would only be
// scaled by pivot/prev, so it is left alone when that is ±1: a row off by a
// sign stays off by the same sign through every later step, which is
// linear in it.
func (e *elim) int64Steps() bool {
	a := e.a
	for ; e.col < e.cols && e.rank < e.rows; e.col++ {
		pivot := -1
		for r := e.rank; r < e.rows; r++ {
			if a[r][e.col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[e.rank], a[pivot] = a[pivot], a[e.rank]
		prow := a[e.rank][e.col:]
		p, prev := prow[0], e.prev
		// The division by prev is exact, so it is a shift by prev's
		// trailing zeros and a multiplication by the inverse of its odd
		// part modulo 2⁶⁴.
		shift, inv := exactDivisor(prev)
		over := false
		for r := e.rank + 1; r < e.rows; r++ {
			row := a[r][e.col:len(a[r])][:len(prow)]
			f := row[0]
			if f == 0 && (p == prev || p == -prev) {
				continue
			}
			for j, y := range prow {
				x := row[j]
				if x == 0 && y == 0 {
					continue
				}
				v := int64(uint64((p*x-f*y)>>shift) * inv)
				row[j] = v
				over = over || v > rankLimit || v < -rankLimit
			}
		}
		e.prev = p
		e.rank++
		if over {
			e.col++
			return false
		}
	}
	return true
}

// exactDivisor returns the shift and multiplier that divide a multiple of
// d by d: d = o·2^shift with o odd, and inv·o ≡ 1 (mod 2⁶⁴). Each Newton
// step doubles the correct low bits, from 3 (o·o ≡ 1 mod 8) to 96.
func exactDivisor(d int64) (shift uint, inv uint64) {
	shift = uint(bits.TrailingZeros64(uint64(d)))
	o := uint64(d >> shift)
	inv = o
	for i := 0; i < 5; i++ {
		inv *= 2 - o*inv
	}
	return shift, inv
}

// bigSteps finishes the elimination over big.Int from e's state and
// returns the rank. All values are exact integers, so there is no
// rounding; a row is dependent iff it eliminates to exact zero. Rows swap
// as slice headers, so a pointer to an entry stays valid.
func (e *elim) bigSteps() int {
	slab := make([]big.Int, e.rows*e.cols)
	a := make([][]big.Int, e.rows)
	for i := range a {
		a[i] = slab[i*e.cols : (i+1)*e.cols]
		for j, v := range e.a[i] {
			if v != 0 {
				a[i][j].SetInt64(v)
			}
		}
	}
	prev := big.NewInt(e.prev)
	rank := e.rank
	tmp, f := new(big.Int), new(big.Int)
	for col := e.col; col < e.cols && rank < e.rows; col++ {
		pivot := -1
		for r := rank; r < e.rows; r++ {
			if a[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[rank], a[pivot] = a[pivot], a[rank]
		p := &a[rank][col]
		for r := rank + 1; r < e.rows; r++ {
			f.Set(&a[r][col])
			for j := col; j < e.cols; j++ {
				// a[r][j] = (p*a[r][j] - f*a[rank][j]) / prev   (exact division)
				x := &a[r][j]
				tmp.Mul(f, &a[rank][j])
				x.Mul(p, x)
				x.Sub(x, tmp)
				x.Quo(x, prev)
			}
		}
		prev.Set(p)
		rank++
	}
	return rank
}

// RankGF2 returns the rank of m over GF(2), computed with word-parallel
// Gaussian elimination on the bitset rows. Note rank over GF(2) is NOT a
// lower bound on the binary rank in general (EBMF addition is over ℝ); it is
// exposed for analysis and the gap-benchmark construction.
func (m *Matrix) RankGF2() int {
	rows := make([]Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		rows[i] = m.Row(i).Clone()
	}
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if rows[r].Get(col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		for r := 0; r < m.rows; r++ {
			if r != rank && rows[r].Get(col) {
				rows[r].Xor(rows[rank])
			}
		}
		rank++
	}
	return rank
}

// TrivialUpperBound returns the paper's trivial upper bound on binary rank:
// the smaller of the number of distinct nonzero rows and distinct nonzero
// columns (partition into single consolidated rows or columns).
func (m *Matrix) TrivialUpperBound() int {
	distinct := func(mm *Matrix) int {
		seen := make(map[string]bool, mm.rows)
		for i := 0; i < mm.rows; i++ {
			r := mm.Row(i)
			if r.IsZero() {
				continue
			}
			seen[r.Key()] = true
		}
		return len(seen)
	}
	dr := distinct(m)
	dc := distinct(m.Transpose())
	if dc < dr {
		return dc
	}
	return dr
}
