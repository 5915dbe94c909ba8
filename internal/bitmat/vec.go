package bitmat

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a binary vector packed into 64-bit words. Vecs returned by
// Matrix.Row share storage with the matrix; Vecs from NewVec own theirs.
type Vec struct {
	n int
	w []uint64
}

// NewVec returns an all-zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic(fmt.Sprintf("bitmat: negative vector length %d", n))
	}
	return Vec{n: n, w: make([]uint64, wordsFor(n))}
}

// NewVecPairs returns k all-zero vectors of length n1 and k of length n2,
// all on one backing array, so a family of rectangles gets its row and
// column vectors in two allocations whatever k is. Vector i of a and
// vector i of b sit next to each other; no two vectors overlap.
func NewVecPairs(k, n1, n2 int) (a, b []Vec) {
	if n1 < 0 || n2 < 0 {
		panic(fmt.Sprintf("bitmat: negative vector length %d or %d", n1, n2))
	}
	w1, w2 := wordsFor(n1), wordsFor(n2)
	words := make([]uint64, k*(w1+w2))
	vs := make([]Vec, 2*k)
	for i := 0; i < k; i++ {
		lo, mid, hi := i*(w1+w2), i*(w1+w2)+w1, (i+1)*(w1+w2)
		vs[i] = Vec{n: n1, w: words[lo:mid:mid]}
		vs[k+i] = Vec{n: n2, w: words[mid:hi:hi]}
	}
	return vs[:k:k], vs[k:]
}

// VecFromBits builds a vector from 0/1 ints.
func VecFromBits(bits []int) Vec {
	v := NewVec(len(bits))
	for i, b := range bits {
		switch b {
		case 0:
		case 1:
			v.Set(i, true)
		default:
			panic(fmt.Sprintf("bitmat: bit %d=%d is not binary", i, b))
		}
	}
	return v
}

// Len returns the vector length in bits.
func (v Vec) Len() int { return v.n }

func (v Vec) checkIndex(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitmat: vec index %d out of range %d", i, v.n))
	}
}

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	v.checkIndex(i)
	return v.w[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set assigns bit i.
func (v Vec) Set(i int, b bool) {
	v.checkIndex(i)
	if b {
		v.w[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.w[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := Vec{n: v.n, w: make([]uint64, len(v.w))}
	copy(c.w, v.w)
	return c
}

// Ones returns the number of set bits.
func (v Vec) Ones() int {
	total := 0
	for _, w := range v.w {
		total += bits.OnesCount64(w)
	}
	return total
}

// IsZero reports whether no bits are set.
func (v Vec) IsZero() bool {
	for _, w := range v.w {
		if w != 0 {
			return false
		}
	}
	return true
}

func (v Vec) checkSameLen(o Vec) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitmat: vector length mismatch %d vs %d", v.n, o.n))
	}
}

// Equal reports whether v and o have the same length and bits.
func (v Vec) Equal(o Vec) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != o.w[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every set bit of v is also set in o.
func (v Vec) SubsetOf(o Vec) bool {
	v.checkSameLen(o)
	for i := range v.w {
		if v.w[i]&^o.w[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether v and o share a set bit.
func (v Vec) Intersects(o Vec) bool {
	v.checkSameLen(o)
	for i := range v.w {
		if v.w[i]&o.w[i] != 0 {
			return true
		}
	}
	return false
}

// AndNot clears in v every bit set in o (v ← v \ o), in place.
func (v Vec) AndNot(o Vec) {
	v.checkSameLen(o)
	for i := range v.w {
		v.w[i] &^= o.w[i]
	}
}

// Or sets in v every bit set in o (v ← v ∪ o), in place.
func (v Vec) Or(o Vec) {
	v.checkSameLen(o)
	for i := range v.w {
		v.w[i] |= o.w[i]
	}
}

// And keeps in v only bits also set in o (v ← v ∩ o), in place.
func (v Vec) And(o Vec) {
	v.checkSameLen(o)
	for i := range v.w {
		v.w[i] &= o.w[i]
	}
}

// Xor flips in v every bit set in o (symmetric difference), in place.
func (v Vec) Xor(o Vec) {
	v.checkSameLen(o)
	for i := range v.w {
		v.w[i] ^= o.w[i]
	}
}

// ForEachOne calls fn for every set bit index in increasing order.
func (v Vec) ForEachOne(fn func(i int)) {
	for wi, w := range v.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			fn(wi*wordBits + b)
		}
	}
}

// OnesPositions returns the indices of all set bits in increasing order.
func (v Vec) OnesPositions() []int {
	out := make([]int, 0, v.Ones())
	v.ForEachOne(func(i int) { out = append(out, i) })
	return out
}

// NextOne returns the smallest set bit index ≥ from, or -1 if none.
func (v Vec) NextOne(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	wi := from / wordBits
	w := v.w[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.w); wi++ {
		if v.w[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.w[wi])
		}
	}
	return -1
}

// String renders the vector as '0'/'1' characters.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Key returns a comparable string key for use in maps (raw word bytes).
// Two vectors of equal length have equal keys iff they are Equal.
func (v Vec) Key() string {
	var sb strings.Builder
	sb.Grow(len(v.w) * 8)
	for _, w := range v.w {
		for s := 0; s < 64; s += 8 {
			sb.WriteByte(byte(w >> uint(s)))
		}
	}
	return sb.String()
}
