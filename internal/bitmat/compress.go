package bitmat

import "slices"

// Compression records how a matrix was reduced by dropping all-zero rows and
// columns and consolidating duplicates, together with the maps needed to
// lift a rectangle partition of the compressed matrix back to the original.
//
// Binary rank is invariant under this reduction: a zero row/column belongs to
// no rectangle, and duplicate rows (columns) can always share every rectangle
// of their representative.
type Compression struct {
	// Reduced is the compressed matrix with distinct nonzero rows/columns.
	Reduced *Matrix
	// RowGroups[i] lists the original row indices represented by reduced
	// row i (the representative first).
	RowGroups [][]int
	// ColGroups[j] lists the original column indices represented by reduced
	// column j.
	ColGroups [][]int
	// OrigRows and OrigCols are the dimensions of the original matrix.
	OrigRows, OrigCols int
}

// Compress removes all-zero rows/columns and merges duplicate rows and then
// duplicate columns, returning the reduction record. The compressed matrix
// has the same binary rank as the original.
func Compress(m *Matrix) *Compression {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.compress(m)
}

func (s *scratch) compress(m *Matrix) *Compression {
	// Group duplicate nonzero rows, then group duplicate nonzero columns of
	// the row-deduplicated matrix. Groups are numbered in order of first
	// appearance, and the first line of each group is its representative.
	s.rowGroup = resize(s.rowGroup, m.rows)
	nr := s.groupLines(m.bits, m.wpr, s.rowGroup)
	s.lines = packLines(s.lines, m.bits, m.wpr, s.reps[:nr])
	rowGroups := s.groupLists(s.rowGroup, nr)

	wprT := wordsFor(nr)
	s.linesT = resize(s.linesT, m.cols*wprT)
	clear(s.linesT)
	transposeWords(s.linesT, s.lines, nr, m.cols)
	s.colGroup = resize(s.colGroup, m.cols)
	nc := s.groupLines(s.linesT, wprT, s.colGroup)
	// The representative columns, packed, transpose into the reduced matrix.
	s.lines = packLines(s.lines, s.linesT, wprT, s.reps[:nc])
	reduced := New(nr, nc)
	transposeWords(reduced.bits, s.lines, nc, nr)
	return &Compression{
		Reduced:   reduced,
		RowGroups: rowGroups,
		ColGroups: s.groupLists(s.colGroup, nc),
		OrigRows:  m.rows,
		OrigCols:  m.cols,
	}
}

// groupLines assigns each line of words (lines of wpl words) the number of
// its duplicate group, or -1 for an all-zero line, and returns the number of
// groups. Groups are numbered in order of first appearance and s.reps[g] is
// the first line of group g. Lines are bucketed by a hash of their words in
// an open-addressing table and compared word for word on a hash match.
func (s *scratch) groupLines(words []uint64, wpl int, group []int32) int {
	n := len(group)
	size := 4
	for size < 2*n {
		size <<= 1
	}
	mask := size - 1
	s.table = resize(s.table, size)
	clear(s.table)
	s.hashes = resize(s.hashes, n)
	s.reps = resize(s.reps, n)
	groups := 0
	for i := 0; i < n; i++ {
		line := words[i*wpl : (i+1)*wpl]
		h, zero := uint64(0x6a09e667f3bcc909), true
		for _, w := range line {
			h = mix64(h, w)
			zero = zero && w == 0
		}
		if zero {
			group[i] = -1
			continue
		}
		for slot := int(h) & mask; ; slot = (slot + 1) & mask {
			e := s.table[slot]
			if e == 0 {
				s.table[slot] = int32(groups) + 1
				s.hashes[groups] = h
				s.reps[groups] = int32(i)
				group[i] = int32(groups)
				groups++
				break
			}
			g := e - 1
			if r := int(s.reps[g]); s.hashes[g] == h && slices.Equal(line, words[r*wpl:(r+1)*wpl]) {
				group[i] = g
				break
			}
		}
	}
	return groups
}

// packLines copies lines idx of words (lines of wpl words) into buf, in
// order, and returns it.
func packLines(buf, words []uint64, wpl int, idx []int32) []uint64 {
	buf = resize(buf, len(idx)*wpl)
	for k, i := range idx {
		copy(buf[k*wpl:(k+1)*wpl], words[int(i)*wpl:(int(i)+1)*wpl])
	}
	return buf
}

// groupLists returns the member lists of n groups given each line's group
// (-1 for none), members ascending, all sharing one backing array. It
// returns nil when n is 0.
func (s *scratch) groupLists(group []int32, n int) [][]int {
	if n == 0 {
		return nil
	}
	s.counts = resize(s.counts, n+1)
	clear(s.counts)
	members := 0
	for _, g := range group {
		if g >= 0 {
			s.counts[g+1]++
			members++
		}
	}
	for g := 0; g < n; g++ {
		s.counts[g+1] += s.counts[g]
	}
	backing := make([]int, members)
	out := make([][]int, n)
	for g := range out {
		lo, hi := s.counts[g], s.counts[g+1]
		out[g] = backing[lo:lo:hi]
	}
	for i, g := range group {
		if g >= 0 {
			out[g] = append(out[g], i)
		}
	}
	return out
}

// ExpandRows maps a set of reduced row indices to the corresponding original
// row indices.
func (c *Compression) ExpandRows(reduced []int) []int {
	var out []int
	for _, r := range reduced {
		out = append(out, c.RowGroups[r]...)
	}
	return out
}

// ExpandCols maps a set of reduced column indices to original column indices.
func (c *Compression) ExpandCols(reduced []int) []int {
	var out []int
	for _, cc := range reduced {
		out = append(out, c.ColGroups[cc]...)
	}
	return out
}
