package bitmat

// Block is one connected component of a matrix's bipartite row-column graph,
// extracted as a standalone matrix together with the index maps back to the
// matrix it was cut from (mirroring Compression's lift maps).
type Block struct {
	// M is the component's submatrix: M.Get(i, j) = orig.Get(Rows[i], Cols[j]).
	M *Matrix
	// Rows[i] is the original row index of block row i (ascending).
	Rows []int
	// Cols[j] is the original column index of block column j (ascending).
	Cols []int
}

// Decomposition splits a matrix into the connected components of its
// bipartite graph (rows and columns are vertices; each 1-entry is an edge).
// Rectangles never span components — a rectangle containing rows/columns of
// two components would cover a 0 — so binary rank is additive over blocks and
// a depth-optimal partition is the union of per-block optima. All-zero rows
// and columns belong to no block.
type Decomposition struct {
	// Blocks are the components, ordered by smallest original row index.
	Blocks []Block
	// OrigRows and OrigCols are the dimensions of the decomposed matrix.
	OrigRows, OrigCols int
}

// Decompose computes the bipartite connected-component decomposition of m.
// The union of the blocks' 1-entries is exactly the 1-entries of m; each
// block matrix has no all-zero row or column.
func Decompose(m *Matrix) *Decomposition {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	g := &s.g
	g.build(m)
	d := &Decomposition{OrigRows: m.rows, OrigCols: m.cols}
	if len(g.comps) == 0 {
		return d
	}
	// The blocks' index lists, matrix headers and matrix words each share one
	// backing array, with capacities capped so no block can grow into the
	// next.
	words := 0
	for _, c := range g.comps {
		r, cc := c.dims()
		words += r * wordsFor(cc)
	}
	rows := make([]int, len(g.rows))
	cols := make([]int, len(g.cols))
	for p, i := range g.rows {
		rows[p] = int(i)
	}
	for p, j := range g.cols {
		cols[p] = int(j)
	}
	mats := make([]Matrix, len(g.comps))
	bits := make([]uint64, words)
	d.Blocks = make([]Block, len(g.comps))
	for k, c := range g.comps {
		r, cc := c.dims()
		wpr := wordsFor(cc)
		b := &mats[k]
		*b = Matrix{rows: r, cols: cc, wpr: wpr, bits: bits[: r*wpr : r*wpr]}
		bits = bits[r*wpr:]
		for li := 0; li < r; li++ {
			row := b.bits[li*wpr : (li+1)*wpr]
			for _, lj := range g.rowNeighbors(c, li) {
				row[lj/wordBits] |= 1 << (uint(lj) % wordBits)
			}
		}
		d.Blocks[k] = Block{
			M:    b,
			Rows: rows[c.r0:c.r1:c.r1],
			Cols: cols[c.c0:c.c1:c.c1],
		}
	}
	return d
}

// ExpandRows maps block row indices to the corresponding original row
// indices.
func (b *Block) ExpandRows(block []int) []int {
	out := make([]int, len(block))
	for i, r := range block {
		out[i] = b.Rows[r]
	}
	return out
}

// ExpandCols maps block column indices to original column indices.
func (b *Block) ExpandCols(block []int) []int {
	out := make([]int, len(block))
	for i, c := range block {
		out[i] = b.Cols[c]
	}
	return out
}
