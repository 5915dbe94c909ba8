package bitmat

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Fingerprint is a canonical-form record of a matrix: Hash is identical for
// any two matrices that are equal up to row/column permutation, duplicate
// rows/columns and all-zero rows/columns, and (up to SHA-256 collisions)
// different otherwise. It composes the existing reduction stages — Compress
// drops zero lines and merges duplicates, Decompose splits the reduction into
// bipartite connected components — and then canonically labels each block, so
// permuted and block-shuffled resubmissions of the same pattern produce the
// same hash.
//
// The record keeps everything needed to move solver results between the
// request matrix and the canonical matrix: the request's own Compression and
// the canonical→reduced index maps. A rectangle partition of Canonical maps
// to the reduced matrix through RowMap/ColMap and then lifts through Comp —
// which is how a cached result for the canonical form is replayed onto any
// permuted equivalent of the matrix it was computed from.
type Fingerprint struct {
	// Hash is the hex SHA-256 of the canonical serialization. Two matrices
	// share a Hash iff they share a canonical form (i.e. are equal up to
	// permutation and duplication), modulo hash collisions.
	Hash string
	// Exact reports that a full canonical labeling was computed. It is false
	// only when the labeling work budget was exhausted (matrices with very
	// large automorphism-induced branch trees); the Hash is then still
	// deterministic but no longer permutation-invariant, Canonical and the
	// maps are nil, and the fingerprint must not be used as a cache key.
	Exact bool
	// Canonical is the canonically labeled compressed matrix (blocks in
	// canonical order along the diagonal). Solving Canonical solves the
	// request matrix up to the recorded maps.
	Canonical *Matrix
	// Comp is the compression record of the original matrix (always set).
	Comp *Compression
	// RowMap[i] is the row of Comp.Reduced that canonical row i labels.
	RowMap []int
	// ColMap[j] is the column of Comp.Reduced that canonical column j labels.
	ColMap []int
}

// canonicalLabelBudget bounds the number of refinement passes a single
// fingerprint may spend across all blocks and branches. Refinement discretizes
// almost immediately on real addressing patterns (distinct rows and columns,
// irregular degrees); the budget only trips on highly self-similar matrices
// such as large circulants, which then simply bypass the cache.
const canonicalLabelBudget = 4096

// ComputeFingerprint canonicalizes m and returns its fingerprint record.
//
// It runs Compress, splits the reduced matrix into the connected components
// of its row–column graph (the kernel Decompose uses), labels each component
// canonically and hashes the components' serializations in canonical order.
// All working buffers come from one pooled scratch, so the call allocates
// little beyond the record it returns.
func ComputeFingerprint(m *Matrix) *Fingerprint {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	comp := s.compress(m)
	r := comp.Reduced
	g := &s.g
	g.build(r)

	// Each component's serialization has a fixed length: its dimensions as
	// uvarints, then its bits.
	s.serOff = resize(s.serOff, len(g.comps)+1)
	s.serOff[0] = 0
	for k, c := range g.comps {
		nr, nc := c.dims()
		s.serOff[k+1] = s.serOff[k] + uvarintLen(nr) + uvarintLen(nc) + (nr*nc+7)/8
	}
	s.ser = resize(s.ser, s.serOff[len(g.comps)])
	s.rowOrder = resize(s.rowOrder, len(g.rows))
	s.colOrder = resize(s.colOrder, len(g.cols))
	budget := canonicalLabelBudget
	for k := range g.comps {
		if !s.labelComponent(g, k, &budget) {
			// Deterministic but not permutation-invariant: hash the reduced
			// matrix as-is and mark the fingerprint unusable for caching.
			b := append(s.hashIn[:0], "ebmf/fp/v1/inexact\n"...)
			b = binary.AppendUvarint(b, uint64(r.rows))
			b = binary.AppendUvarint(b, uint64(r.cols))
			for _, w := range r.bits {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
			s.hashIn = b
			return &Fingerprint{Hash: hexSum(b), Comp: comp}
		}
	}
	ser := func(k int32) []byte { return s.ser[s.serOff[k]:s.serOff[k+1]] }
	// Canonical block order: by serialization; ties are identical blocks, so
	// the hash is unaffected — break them by smallest original row (the
	// component number) only to keep the maps deterministic for a fixed
	// input.
	s.blockOrder = resize(s.blockOrder, len(g.comps))
	for k := range s.blockOrder {
		s.blockOrder[k] = int32(k)
	}
	slices.SortFunc(s.blockOrder, func(a, b int32) int {
		if c := bytes.Compare(ser(a), ser(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	b := append(s.hashIn[:0], "ebmf/fp/v1\n"...)
	b = binary.AppendUvarint(b, uint64(len(g.comps)))
	for _, k := range s.blockOrder {
		b = binary.AppendUvarint(b, uint64(len(ser(k))))
		b = append(b, ser(k)...)
	}
	s.hashIn = b

	totR, totC := len(g.rows), len(g.cols)
	fp := &Fingerprint{
		Hash:      hexSum(b),
		Exact:     true,
		Canonical: New(totR, totC),
		Comp:      comp,
		RowMap:    make([]int, totR),
		ColMap:    make([]int, totC),
	}
	canon := fp.Canonical
	rowOff, colOff := 0, 0
	for _, k := range s.blockOrder {
		c := g.comps[k]
		nr, nc := c.dims()
		ro, co := s.rowOrder[c.r0:c.r1], s.colOrder[c.c0:c.c1]
		s.pos = resize(s.pos, nc)
		for q, lj := range co {
			fp.ColMap[colOff+q] = int(g.cols[int(c.c0)+int(lj)])
			s.pos[lj] = int32(colOff + q)
		}
		for p, li := range ro {
			fp.RowMap[rowOff+p] = int(g.rows[int(c.r0)+int(li)])
			row := canon.bits[(rowOff+p)*canon.wpr : (rowOff+p+1)*canon.wpr]
			for _, lj := range g.rowNeighbors(c, int(li)) {
				j := s.pos[lj]
				row[j/wordBits] |= 1 << (uint(j) % wordBits)
			}
		}
		rowOff += nr
		colOff += nc
	}
	return fp
}

// hexSum returns the hex SHA-256 of b.
func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

func uvarintLen(x int) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], uint64(x))
}

// wlLevel is one depth of the labeling search: the row colours followed by
// the column colours of the component at that depth, and the members of the
// cell it branches on.
type wlLevel struct {
	colors  []uint64
	members []int32
}

// level returns the search buffers for depth d sized for n vertices.
func (s *scratch) level(d, n int) *wlLevel {
	for len(s.levels) <= d {
		s.levels = append(s.levels, new(wlLevel))
	}
	lv := s.levels[d]
	lv.colors = resize(lv.colors, n)
	return lv
}

// labeler computes a canonical labeling of one connected component by colour
// refinement (1-dimensional Weisfeiler–Leman on the bipartite row–column
// graph) with individualization branching on ties. The labeling is
// invariant under row/column permutation: colours are hashes of
// permutation-invariant structure only, cells are ordered by colour value,
// and ties branch over every cell member keeping the lexicographically
// smallest serialized matrix, so the result depends on the isomorphism class
// alone.
type labeler struct {
	s      *scratch
	g      *graph
	c      component
	nr, nc int
	budget *int
	ser    []byte // best serialization so far, inside s.ser
	found  bool
}

// labelComponent labels component k of g: it writes the canonical row and
// column orders (canonical position → local index) to s.rowOrder[r0:r1] and
// s.colOrder[c0:c1] and the serialization to s.ser[s.serOff[k]:s.serOff[k+1]],
// or reports false when the shared budget is exhausted.
func (s *scratch) labelComponent(g *graph, k int, budget *int) bool {
	c := g.comps[k]
	nr, nc := c.dims()
	l := labeler{
		s: s, g: g, c: c, nr: nr, nc: nc, budget: budget,
		ser: s.ser[s.serOff[k]:s.serOff[k+1]],
	}
	n := nr + nc
	s.next = resize(s.next, n)
	s.sorted = resize(s.sorted, n)
	s.neigh = resize(s.neigh, max(nr, nc))
	s.pos = resize(s.pos, nc)
	s.leafRows = resize(s.leafRows, nr)
	s.leafCols = resize(s.leafCols, nc)
	s.leafSer = resize(s.leafSer, len(l.ser))
	colors := s.level(0, n).colors
	for li := 0; li < nr; li++ {
		colors[li] = mix64(0xa5a5_1157_0000_0001, uint64(len(g.rowNeighbors(c, li))))
	}
	for lj := 0; lj < nc; lj++ {
		colors[nr+lj] = mix64(0xc3c3_2291_0000_0002, uint64(len(g.colNeighbors(c, lj))))
	}
	return l.search(0)
}

// search refines the colouring at depth d and either records a leaf (a
// discrete colouring) or branches on the chosen cell. The search keeps the
// first leaf in depth-first order with the smallest serialization, which is
// the minimum over every branch of every cell.
func (l *labeler) search(d int) bool {
	*l.budget--
	if *l.budget < 0 {
		return false
	}
	s := l.s
	colors := s.levels[d].colors
	rc, cc := colors[:l.nr], colors[l.nr:]
	rowCells, colCells := l.refine(rc, cc)
	if rowCells == l.nr && colCells == l.nc {
		l.leaf(rc, cc)
		return true
	}
	isRow, color := l.chooseCell()
	// Branch: individualize each member of the target cell in turn.
	// Iterating members in index order is safe — every member is tried, so
	// the minimum over the branch set is order-independent.
	off, src := 0, rc
	if !isRow {
		off, src = l.nr, cc
	}
	lv := s.levels[d]
	members := lv.members[:0]
	for v, x := range src {
		if x == color {
			members = append(members, int32(off+v))
		}
	}
	lv.members = members
	child := s.level(d+1, len(colors)).colors
	for _, v := range members {
		copy(child, colors)
		child[v] = mix64(child[v], 0x517e_0000_0000_0003)
		if !l.search(d + 1) {
			return false
		}
	}
	return true
}

// refine runs colour refinement to a fixpoint: a row's new colour folds in
// the sorted multiset of its 1-columns' colours and vice versa. The
// distinct-colour count is monotone nondecreasing and bounded, so the loop
// terminates. It returns the numbers of distinct row and column colours and
// leaves both colour lists sorted in s.sorted.
func (l *labeler) refine(rc, cc []uint64) (rowCells, colCells int) {
	s, g, c := l.s, l.g, l.c
	rowCells, colCells = l.countCells(rc, cc)
	last := rowCells + colCells
	nrc, ncc := s.next[:l.nr], s.next[l.nr:]
	for iter := 0; iter < l.nr+l.nc+2; iter++ {
		for li := range rc {
			neigh := s.neigh[:0]
			for _, lj := range g.rowNeighbors(c, li) {
				neigh = append(neigh, cc[lj])
			}
			nrc[li] = foldColors(rc[li], neigh)
		}
		for lj := range cc {
			neigh := s.neigh[:0]
			for _, li := range g.colNeighbors(c, lj) {
				neigh = append(neigh, nrc[li])
			}
			ncc[lj] = foldColors(cc[lj], neigh)
		}
		copy(rc, nrc)
		copy(cc, ncc)
		rowCells, colCells = l.countCells(rc, cc)
		if rowCells+colCells == last {
			break
		}
		last = rowCells + colCells
	}
	return rowCells, colCells
}

// countCells sorts copies of the row and column colours into s.sorted and
// counts the distinct values of each.
func (l *labeler) countCells(rc, cc []uint64) (rowCells, colCells int) {
	sr, sc := l.s.sorted[:l.nr], l.s.sorted[l.nr:]
	copy(sr, rc)
	copy(sc, cc)
	slices.Sort(sr)
	slices.Sort(sc)
	return distinctSorted(sr), distinctSorted(sc)
}

func distinctSorted(x []uint64) int {
	n := 0
	for i := range x {
		if i == 0 || x[i] != x[i-1] {
			n++
		}
	}
	return n
}

// chooseCell picks the branching cell from the sorted colours: the smallest
// colour class with more than one member, ties broken by smaller colour
// value, rows before columns. The rule depends only on colour values and
// class sizes, both permutation-invariant.
func (l *labeler) chooseCell() (isRow bool, color uint64) {
	bestSize := -1
	consider := func(row bool, sorted []uint64) {
		for i := 0; i < len(sorted); {
			j := i + 1
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			if size, c := j-i, sorted[i]; size >= 2 && (bestSize == -1 || size < bestSize ||
				(size == bestSize && (c < color || (c == color && row && !isRow)))) {
				bestSize, color, isRow = size, c, row
			}
			i = j
		}
	}
	consider(true, l.s.sorted[:l.nr])
	consider(false, l.s.sorted[l.nr:])
	return isRow, color
}

// leaf orders rows and columns by their (pairwise distinct) colours,
// serializes the component in that order and keeps it if it is the smallest
// serialization so far. The serialization is the dimensions as uvarints,
// then the bits in canonical row-major order packed most significant bit
// first, so serializations are self-delimiting and comparable.
func (l *labeler) leaf(rc, cc []uint64) {
	s, g, c := l.s, l.g, l.c
	sr, sc := s.sorted[:l.nr], s.sorted[l.nr:]
	for li, x := range rc {
		p, _ := slices.BinarySearch(sr, x)
		s.leafRows[p] = int32(li)
	}
	for lj, x := range cc {
		q, _ := slices.BinarySearch(sc, x)
		s.leafCols[q] = int32(lj)
		s.pos[lj] = int32(q)
	}
	b := binary.AppendUvarint(s.leafSer[:0], uint64(l.nr))
	b = binary.AppendUvarint(b, uint64(l.nc))
	bitsAt := b[len(b):len(l.ser)]
	clear(bitsAt)
	for p, li := range s.leafRows {
		for _, lj := range g.rowNeighbors(c, int(li)) {
			k := p*l.nc + int(s.pos[lj])
			bitsAt[k/8] |= 0x80 >> (k % 8)
		}
	}
	b = b[:len(l.ser)]
	if l.found && bytes.Compare(b, l.ser) >= 0 {
		return
	}
	l.found = true
	copy(l.ser, b)
	copy(s.rowOrder[c.r0:c.r1], s.leafRows)
	copy(s.colOrder[c.c0:c.c1], s.leafCols)
}

// foldColors hashes a base color with a sorted multiset of neighbour colors.
// Sorting makes the fold independent of neighbour enumeration order, so the
// result is an isomorphism invariant.
func foldColors(base uint64, neigh []uint64) uint64 {
	slices.Sort(neigh)
	h := mix64(0x9e3779b97f4a7c15, base)
	for _, c := range neigh {
		h = mix64(h, c)
	}
	return h
}

// mix64 is a splitmix64-style mixing step: deterministic, platform-free, and
// well-spread, so accidental color collisions (which only merge cells and
// cost branching, never correctness) are vanishingly rare.
func mix64(h, x uint64) uint64 {
	h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
