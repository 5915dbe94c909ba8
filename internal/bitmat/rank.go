package bitmat

import "math/big"

// rankPrime is the modulus for the fast modular rank pre-pass. Any prime
// works for a lower bound; this one keeps products inside uint64.
const rankPrime = 1_000_000_007

// Rank returns the exact rank of m over the rationals. Per Eq. 3 of the
// paper this is a lower bound on the binary rank.
//
// The implementation first computes the rank over GF(p) for a fixed prime p,
// which is always ≤ the rational rank. If that already equals min(rows, cols)
// the rational rank must also be full and we return immediately. Otherwise
// the exact rank is computed with fraction-free Bareiss elimination over
// big.Int, which never rounds.
func (m *Matrix) Rank() int {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	minDim := m.rows
	if m.cols < minDim {
		minDim = m.cols
	}
	if rp := m.rankMod(rankPrime); rp == minDim {
		return rp
	}
	return m.rankBareiss()
}

// rankMod computes rank over GF(p) by Gaussian elimination. The result is a
// lower bound on the rational rank (a nonzero minor over ℚ may vanish mod p,
// never the reverse for 0/1 matrices reduced mod p).
func (m *Matrix) rankMod(p uint64) int {
	slab := make([]uint64, m.rows*m.cols)
	a := make([][]uint64, m.rows)
	for i := range a {
		a[i] = slab[i*m.cols : (i+1)*m.cols]
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) {
				a[i][j] = 1
			}
		}
	}
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
		inv := modInverse(a[rank][col], p)
		for j := col; j < m.cols; j++ {
			a[rank][j] = a[rank][j] * inv % p
		}
		for r := 0; r < m.rows; r++ {
			if r == rank || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := col; j < m.cols; j++ {
				a[r][j] = (a[r][j] + (p-f)*a[rank][j]) % p
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

// rankBareiss computes the exact rational rank with fraction-free Bareiss
// elimination over big.Int. All intermediate values are exact integers, so
// there is no rounding; a row is dependent iff it eliminates to exact zero.
// The entries live on one slab; rows swap as slice headers, so a pointer
// to an entry stays valid.
func (m *Matrix) rankBareiss() int {
	slab := make([]big.Int, m.rows*m.cols)
	a := make([][]big.Int, m.rows)
	for i := range a {
		a[i] = slab[i*m.cols : (i+1)*m.cols]
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) {
				a[i][j].SetInt64(1)
			}
		}
	}
	prev := big.NewInt(1)
	rank := 0
	tmp, f := new(big.Int), new(big.Int)
	for col := 0; col < m.cols && rank < m.rows; col++ {
		pivot := -1
		for r := rank; r < m.rows; r++ {
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
		for r := rank + 1; r < m.rows; r++ {
			f.Set(&a[r][col])
			for j := col; j < m.cols; j++ {
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
