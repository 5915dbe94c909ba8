package bitmat

import (
	"math/bits"
	"sync"
)

// scratch holds the working buffers of Compress, Decompose and
// ComputeFingerprint. Each call takes one from scratchPool and returns it
// when done, so on the warm path these kernels allocate only the values they
// return. No returned value aliases a scratch buffer.
type scratch struct {
	// Compress: per-line hashes, group ids and representatives, the
	// open-addressing table, and the deduplicated lines and their transpose.
	hashes             []uint64
	rowGroup, colGroup []int32
	reps, counts       []int32
	table              []int32
	lines, linesT      []uint64

	g graph

	// Canonical labeling (fingerprint.go): the search levels, refinement
	// buffers, the current leaf, and each component's best labeling and
	// serialization.
	levels              []*wlLevel
	next, sorted, neigh []uint64
	pos                 []int32 // column → canonical position
	leafRows, leafCols  []int32
	leafSer, ser        []byte
	serOff              []int
	rowOrder, colOrder  []int32
	blockOrder          []int32
	hashIn              []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns buf with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// transposeWords writes the transpose of the rows×cols matrix packed in src
// (rows of wordsFor(cols) words) into dst (cols rows of wordsFor(rows)
// words), which must be zero.
func transposeWords(dst, src []uint64, rows, cols int) {
	swpr, dwpr := wordsFor(cols), wordsFor(rows)
	for i := 0; i < rows; i++ {
		bit := uint64(1) << (uint(i) % wordBits)
		dw := i / wordBits
		for k, w := range src[i*swpr : (i+1)*swpr] {
			for w != 0 {
				j := k*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				dst[j*dwpr+dw] |= bit
			}
		}
	}
}

// graph is the bipartite row–column graph of a matrix (rows and columns are
// vertices, each 1-entry an edge) in CSR form, split into its connected
// components. It is the one component kernel behind Decompose and
// ComputeFingerprint.
//
// Components are numbered by their smallest row. Within component k the
// rows rows[comps[k].r0:comps[k].r1] and columns cols[comps[k].c0:comps[k].c1]
// are the original indices in ascending order, and a row's or column's local
// index is its position in that range. Adjacency entries hold local indices:
// the columns of original row i are rowAdj[rowOff[i]:rowOff[i+1]], ascending,
// and likewise colAdj for the rows of a column. All-zero rows and columns
// belong to no component.
type graph struct {
	rowOff, colOff []int
	rowAdj, colAdj []int32
	rows, cols     []int32
	comps          []component

	// Build-time buffers: component id per original row and column, the BFS
	// queue, and the column and per-component cursors.
	rowComp, colComp, queue []int32
	fill                    []int
}

// component is one connected component of a graph: its rows are
// graph.rows[r0:r1] and its columns graph.cols[c0:c1].
type component struct{ r0, r1, c0, c1 int32 }

func (c component) dims() (rows, cols int) { return int(c.r1 - c.r0), int(c.c1 - c.c0) }

// build fills g with m's bipartite graph and its components.
func (g *graph) build(m *Matrix) {
	nr, nc := m.rows, m.cols
	ones := m.Ones()

	// CSR by original index, rows first; columns come out in ascending row
	// order because rows are scanned in order.
	g.rowOff = resize(g.rowOff, nr+1)
	g.rowAdj = resize(g.rowAdj, ones)
	g.colOff = resize(g.colOff, nc+1)
	g.colAdj = resize(g.colAdj, ones)
	clear(g.colOff)
	e := 0
	for i := 0; i < nr; i++ {
		g.rowOff[i] = e
		for k, w := range m.bits[i*m.wpr : (i+1)*m.wpr] {
			for w != 0 {
				j := k*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				g.rowAdj[e] = int32(j)
				g.colOff[j+1]++
				e++
			}
		}
	}
	g.rowOff[nr] = e
	for j := 0; j < nc; j++ {
		g.colOff[j+1] += g.colOff[j]
	}
	g.fill = resize(g.fill, nc)
	copy(g.fill, g.colOff[:nc])
	for i := 0; i < nr; i++ {
		for _, j := range g.rowAdj[g.rowOff[i]:g.rowOff[i+1]] {
			g.colAdj[g.fill[j]] = int32(i)
			g.fill[j]++
		}
	}

	// Breadth-first search from each unvisited nonzero row in ascending
	// order, so components are numbered by their smallest row. Queue entries
	// are rows as i and columns as nr+j.
	g.rowComp = resize(g.rowComp, nr)
	g.colComp = resize(g.colComp, nc)
	g.queue = resize(g.queue, nr+nc)
	for i := range g.rowComp {
		g.rowComp[i] = -1
	}
	for j := range g.colComp {
		g.colComp[j] = -1
	}
	g.comps = g.comps[:0]
	for start := 0; start < nr; start++ {
		if g.rowComp[start] >= 0 || g.rowOff[start] == g.rowOff[start+1] {
			continue
		}
		k := int32(len(g.comps))
		var c component
		g.rowComp[start] = k
		q := append(g.queue[:0], int32(start))
		for h := 0; h < len(q); h++ {
			v := int(q[h])
			if v < nr {
				c.r1++
				for _, j := range g.rowAdj[g.rowOff[v]:g.rowOff[v+1]] {
					if g.colComp[j] < 0 {
						g.colComp[j] = k
						q = append(q, int32(nr)+j)
					}
				}
				continue
			}
			c.c1++
			j := v - nr
			for _, i := range g.colAdj[g.colOff[j]:g.colOff[j+1]] {
				if g.rowComp[i] < 0 {
					g.rowComp[i] = k
					q = append(q, i)
				}
			}
		}
		g.comps = append(g.comps, c) // sizes for now; ranges below
	}

	// Turn sizes into ranges, then place rows and columns in ascending order
	// within their component and relabel the adjacency to local indices.
	var r, cc int32
	for k := range g.comps {
		c := &g.comps[k]
		c.r0, c.c0 = r, cc
		r += c.r1
		cc += c.c1
		c.r1, c.c1 = c.r0+c.r1, c.c0+c.c1
	}
	g.rows = resize(g.rows, int(r))
	g.cols = resize(g.cols, int(cc))
	g.fill = resize(g.fill, len(g.comps))
	for k, c := range g.comps {
		g.fill[k] = int(c.r0)
	}
	for i, k := range g.rowComp {
		if k >= 0 {
			g.rowComp[i] = int32(g.fill[k]) - g.comps[k].r0 // now the local index
			g.rows[g.fill[k]] = int32(i)
			g.fill[k]++
		}
	}
	for k, c := range g.comps {
		g.fill[k] = int(c.c0)
	}
	for j, k := range g.colComp {
		if k >= 0 {
			g.colComp[j] = int32(g.fill[k]) - g.comps[k].c0
			g.cols[g.fill[k]] = int32(j)
			g.fill[k]++
		}
	}
	for e, j := range g.rowAdj[:ones] {
		g.rowAdj[e] = g.colComp[j]
	}
	for e, i := range g.colAdj[:ones] {
		g.colAdj[e] = g.rowComp[i]
	}
}

// rowNeighbors returns the local column indices of the 1-entries of local row
// li of component c.
func (g *graph) rowNeighbors(c component, li int) []int32 {
	i := g.rows[int(c.r0)+li]
	return g.rowAdj[g.rowOff[i]:g.rowOff[i+1]]
}

// colNeighbors returns the local row indices of the 1-entries of local column
// lj of component c.
func (g *graph) colNeighbors(c component, lj int) []int32 {
	j := g.cols[int(c.c0)+lj]
	return g.colAdj[g.colOff[j]:g.colOff[j+1]]
}
