// Package fooling computes fooling sets of binary matrices. A fooling set S
// is a set of 1-entries such that for any two distinct (i,j), (i',j') in S,
// M[i][j'] = 0 or M[i'][j] = 0. No rectangle can contain two elements of a
// fooling set, so |S| lower-bounds the binary rank (partition number). The
// bound is not always tight (Eq. 2 of the paper).
//
// Finding a maximum fooling set is itself NP-hard; it equals a maximum clique
// in the "fooling compatibility" graph over the 1-entries. The package
// provides a greedy heuristic and an exact branch-and-bound search with a
// node budget for small instances.
package fooling

import (
	"math/bits"

	"repro/internal/bitmat"
)

// compatible reports whether 1-entries (i,j) and (i2,j2) may coexist in a
// fooling set of m.
func compatible(m *bitmat.Matrix, i, j, i2, j2 int) bool {
	if i == i2 && j == j2 {
		return false
	}
	// Entries sharing a row or column always fail: one of the cross entries
	// is the entry itself (a 1).
	return !m.Get(i, j2) || !m.Get(i2, j)
}

// graph is the fooling-compatibility graph with bitset adjacency.
type graph struct {
	pos [][2]int
	adj []bitset
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) clone() bitset  { c := make(bitset, len(b)); copy(c, b); return c }
func (b bitset) and(o bitset) {
	for k := range b {
		b[k] &= o[k]
	}
}
func (b bitset) clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) or(o bitset) {
	for k := range b {
		b[k] |= o[k]
	}
}
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEach visits every set bit in ascending order.
func (b bitset) forEach(fn func(i int)) {
	for k, w := range b {
		for w != 0 {
			fn(k*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
func (b bitset) count() int {
	t := 0
	for _, w := range b {
		t += bits.OnesCount64(w)
	}
	return t
}
func (b bitset) first() int {
	for k, w := range b {
		if w != 0 {
			return k*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// buildGraph constructs the adjacency bitsets 64 entries at a time instead
// of testing each of the n² pairs with two matrix probes. Entry b=(i2,j2) is
// INcompatible with a=(i,j) iff M[i][j2]=1 and M[i2][j]=1 — i.e. b's column
// is a 1-column of a's row AND b's row is a 1-row of a's column. Both sides
// are unions of precomputed per-row/per-column entry masks, so the bad set
// is two word-parallel ANDs and the adjacency is its complement.
func buildGraph(m *bitmat.Matrix) *graph {
	pos := m.OnesPositions()
	n := len(pos)
	g := &graph{pos: pos, adj: make([]bitset, n)}
	if n == 0 {
		return g
	}
	rowMask := make([]bitset, m.Rows()) // entries in row r
	colMask := make([]bitset, m.Cols()) // entries in column c
	for e, p := range pos {
		i, j := p[0], p[1]
		if rowMask[i] == nil {
			rowMask[i] = newBitset(n)
		}
		if colMask[j] == nil {
			colMask[j] = newBitset(n)
		}
		rowMask[i].set(e)
		colMask[j].set(e)
	}
	// rowUnion[i]: entries whose column holds a 1 in row i.
	// colUnion[j]: entries whose row holds a 1 in column j.
	rowUnion := make([]bitset, m.Rows())
	colUnion := make([]bitset, m.Cols())
	m.ForEachOne(func(i, j int) {
		if rowUnion[i] == nil {
			rowUnion[i] = newBitset(n)
		}
		rowUnion[i].or(colMask[j])
		if colUnion[j] == nil {
			colUnion[j] = newBitset(n)
		}
		colUnion[j].or(rowMask[i])
	})
	words := len(newBitset(n))
	tail := uint(n % 64)
	for e, p := range pos {
		adj := make(bitset, words)
		ru, cu := rowUnion[p[0]], colUnion[p[1]]
		for k := 0; k < words; k++ {
			adj[k] = ^(ru[k] & cu[k])
		}
		if tail != 0 {
			adj[words-1] &= (1 << tail) - 1
		}
		adj.clear(e) // never self-adjacent (the bad set contains e anyway)
		g.adj[e] = adj
	}
	return g
}

// Greedy returns a (maximal, not necessarily maximum) fooling set of m,
// built by repeatedly taking the candidate entry with the most remaining
// compatible candidates.
func Greedy(m *bitmat.Matrix) [][2]int {
	return greedy(buildGraph(m))
}

func greedy(g *graph) [][2]int {
	n := len(g.pos)
	if n == 0 {
		return nil
	}
	cand := newBitset(n)
	for i := 0; i < n; i++ {
		cand.set(i)
	}
	var out [][2]int
	for !cand.empty() {
		// Pick the candidate with maximum degree within the candidate set,
		// visiting only set bits (the candidate set shrinks fast, so late
		// rounds scan a handful of words instead of all n indices).
		best, bestDeg := -1, -1
		cand.forEach(func(i int) {
			if d := degreeWithin(g.adj[i], cand); d > bestDeg {
				best, bestDeg = i, d
			}
		})
		out = append(out, g.pos[best])
		cand.and(g.adj[best])
	}
	return out
}

func degreeWithin(adj, cand bitset) int {
	t := 0
	for k := range adj {
		t += bits.OnesCount64(adj[k] & cand[k])
	}
	return t
}

// Exact returns a maximum fooling set of m, found by branch-and-bound max
// clique, and whether the search completed within the node budget. When the
// budget is exhausted, the best set found so far is returned with ok=false.
// A budget ≤ 0 means unlimited. It is ExactUpTo with no cap.
func Exact(m *bitmat.Matrix, budget int64) (set [][2]int, ok bool) {
	return ExactUpTo(m, budget, 0)
}

// ExactUpTo is Exact that stops as soon as it holds a set of size ub. When
// ub is an upper bound on the maximum fooling set size (the depth of any
// valid partition of m is one), the set is exactly Exact's: Exact replaces
// its set only by a strictly larger one, and none is larger than ub. ok is
// true when the search completed within the budget or the cap proved the
// set maximum, so it can be true where Exact's budget would have run out.
// An ub ≤ 0 means no cap.
func ExactUpTo(m *bitmat.Matrix, budget int64, ub int) (set [][2]int, ok bool) {
	g := buildGraph(m)
	n := len(g.pos)
	if n == 0 {
		return nil, true
	}
	// Seed the incumbent with the greedy solution.
	best := greedy(g)
	bestSize := len(best)
	if ub > 0 && bestSize >= ub {
		return best, true
	}

	cand := newBitset(n)
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
			return // bound: cannot beat incumbent
		}
		if c == 0 {
			if len(cur) > bestSize {
				bestSize = len(cur)
				bestIdx = append(bestIdx[:0], cur...)
				capped = ub > 0 && bestSize >= ub
			}
			return
		}
		// Branch on candidates in order; standard clique enumeration with
		// the remaining-count bound.
		rest := cand.clone()
		for {
			v := rest.first()
			if v < 0 {
				return
			}
			if len(cur)+rest.count() <= bestSize {
				return
			}
			rest.clear(v)
			next := rest.clone()
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

// IsFoolingSet verifies that the given entries form a fooling set of m:
// every entry is a 1 and every pair satisfies the fooling condition.
func IsFoolingSet(m *bitmat.Matrix, set [][2]int) bool {
	for _, e := range set {
		if !m.Get(e[0], e[1]) {
			return false
		}
	}
	for a := 0; a < len(set); a++ {
		for b := a + 1; b < len(set); b++ {
			if !compatible(m, set[a][0], set[a][1], set[b][0], set[b][1]) {
				return false
			}
		}
	}
	return true
}

// MaxSize returns the exact maximum fooling set size when the search
// completes within budget, otherwise the best lower bound found.
func MaxSize(m *bitmat.Matrix, budget int64) (size int, exact bool) {
	set, ok := Exact(m, budget)
	return len(set), ok
}
