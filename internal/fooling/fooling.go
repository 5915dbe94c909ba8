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

// newBitsets returns k zero bitsets of the given number of words, all on
// one backing array.
func newBitsets(k, words int) []bitset {
	backing := make([]uint64, k*words)
	out := make([]bitset, k)
	for i := range out {
		out[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return out
}

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
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

// intersect sets b to x ∩ y.
func (b bitset) intersect(x, y bitset) {
	for k := range b {
		b[k] = x[k] & y[k]
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
// is two word-parallel ANDs and the adjacency is its complement. Masks,
// unions and adjacency rows share one backing array.
func buildGraph(m *bitmat.Matrix) *graph {
	pos := m.OnesPositions()
	n := len(pos)
	g := &graph{pos: pos}
	if n == 0 {
		return g
	}
	rows, cols, words := m.Rows(), m.Cols(), (n+63)/64
	sets := newBitsets(2*rows+2*cols+n, words)
	rowMask := sets[:rows]                        // entries in row i
	colMask := sets[rows : rows+cols]             // entries in column j
	rowUnion := sets[rows+cols : 2*rows+cols]     // entries whose column holds a 1 in row i
	colUnion := sets[2*rows+cols : 2*rows+2*cols] // entries whose row holds a 1 in column j
	g.adj = sets[2*rows+2*cols:]
	for e, p := range pos {
		rowMask[p[0]].set(e)
		colMask[p[1]].set(e)
	}
	for _, p := range pos {
		rowUnion[p[0]].or(colMask[p[1]])
		colUnion[p[1]].or(rowMask[p[0]])
	}
	tail := uint(n % 64)
	for e, p := range pos {
		adj := g.adj[e]
		ru, cu := rowUnion[p[0]], colUnion[p[1]]
		for k := 0; k < words; k++ {
			adj[k] = ^(ru[k] & cu[k])
		}
		if tail != 0 {
			adj[words-1] &= (1 << tail) - 1
		}
		adj.clear(e) // never self-adjacent (the bad set contains e anyway)
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
	if ub > 0 && len(best) >= ub {
		return best, true
	}

	// A fooling set holds at most one entry per row and per column, so no
	// path is deeper than min(rows, cols): the node at depth d keeps its
	// candidates in level d, and a node at the deepest level has none.
	depth := min(m.Rows(), m.Cols())
	s := search{
		g:        g,
		level:    newBitsets(depth+1, len(g.adj[0])),
		cur:      make([]int, 0, depth),
		bestSize: len(best),
		budget:   budget,
		ub:       ub,
	}
	for i := 0; i < n; i++ {
		s.level[0].set(i)
	}
	s.rec()

	if s.bestIdx != nil {
		best = make([][2]int, len(s.bestIdx))
		for i, v := range s.bestIdx {
			best[i] = g.pos[v]
		}
	}
	return best, !s.exceeded
}

// search is the branch-and-bound state of one ExactUpTo call.
type search struct {
	g        *graph
	level    []bitset // level[d]: candidates of the node at depth d
	cur      []int    // the entries chosen on the path to the current node
	bestIdx  []int
	bestSize int
	nodes    int64
	budget   int64
	ub       int

	exceeded, capped bool
}

// rec visits the node at depth len(s.cur), whose candidates are in its
// level. It branches on the candidates in ascending order with the
// standard remaining-count bound, clearing each from its own level as it
// goes and writing the child's candidates into the next level.
func (s *search) rec() {
	if s.exceeded || s.capped {
		return
	}
	s.nodes++
	if s.budget > 0 && s.nodes > s.budget {
		s.exceeded = true
		return
	}
	d := len(s.cur)
	cand := s.level[d]
	c := cand.count()
	if d+c <= s.bestSize {
		return // bound: cannot beat incumbent
	}
	if c == 0 {
		if d > s.bestSize {
			s.bestSize = d
			s.bestIdx = append(s.bestIdx[:0], s.cur...)
			s.capped = s.ub > 0 && s.bestSize >= s.ub
		}
		return
	}
	next := s.level[d+1]
	for {
		v := cand.first()
		if v < 0 {
			return
		}
		if d+cand.count() <= s.bestSize {
			return
		}
		cand.clear(v)
		next.intersect(cand, s.g.adj[v])
		s.cur = append(s.cur, v)
		s.rec()
		s.cur = s.cur[:d]
		if s.exceeded || s.capped {
			return
		}
	}
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
