// Package bitmat implements dense binary matrices packed into 64-bit words,
// together with the exact linear-algebra primitives the EBMF solver needs:
// rank over the rationals (a lower bound on binary rank, Eq. 3 of the paper),
// rank over GF(2), tensor products, and row/column compression.
//
// A Matrix is addressed as (row, col) with row-major bitset storage. Rows are
// exposed as Vec values sharing the matrix's backing storage, which makes the
// row-packing heuristic's inner loops (subset tests, subtraction) run on
// whole words instead of single bits.
package bitmat

import (
	"fmt"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// wordBits is the number of bits per storage word.
const wordBits = 64

// wordsFor returns the number of 64-bit words needed to hold n bits.
func wordsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + wordBits - 1) / wordBits
}

// Matrix is a dense binary matrix with bitset-packed rows.
// The zero value is an empty 0×0 matrix.
type Matrix struct {
	rows, cols int
	wpr        int // words per row
	bits       []uint64
}

// New returns an all-zero rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitmat: negative dimension %d×%d", rows, cols))
	}
	wpr := wordsFor(cols)
	return &Matrix{rows: rows, cols: cols, wpr: wpr, bits: make([]uint64, rows*wpr)}
}

// FromRows builds a matrix from a slice of 0/1 int rows.
// All rows must have equal length.
func FromRows(rows [][]int) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	n := len(rows[0])
	m := New(len(rows), n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("bitmat: ragged rows: row %d has %d cols, want %d", i, len(r), n))
		}
		for j, v := range r {
			switch v {
			case 0:
			case 1:
				m.Set(i, j, true)
			default:
				panic(fmt.Sprintf("bitmat: entry (%d,%d)=%d is not binary", i, j, v))
			}
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// WordsPerRow returns the number of 64-bit words backing each row.
func (m *Matrix) WordsPerRow() int { return m.wpr }

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("bitmat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Get reports whether entry (i, j) is 1.
func (m *Matrix) Get(i, j int) bool {
	m.checkIndex(i, j)
	return m.bits[i*m.wpr+j/wordBits]&(1<<(uint(j)%wordBits)) != 0
}

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v bool) {
	m.checkIndex(i, j)
	w := &m.bits[i*m.wpr+j/wordBits]
	mask := uint64(1) << (uint(j) % wordBits)
	if v {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// Row returns row i as a Vec sharing the matrix's storage. Mutating the Vec
// mutates the matrix.
func (m *Matrix) Row(i int) Vec {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("bitmat: row %d out of range %d", i, m.rows))
	}
	return Vec{n: m.cols, w: m.bits[i*m.wpr : (i+1)*m.wpr]}
}

// SetRow copies v into row i. v must have length Cols.
func (m *Matrix) SetRow(i int, v Vec) {
	if v.n != m.cols {
		panic(fmt.Sprintf("bitmat: SetRow length %d, want %d", v.n, m.cols))
	}
	copy(m.bits[i*m.wpr:(i+1)*m.wpr], v.w)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, wpr: m.wpr, bits: make([]uint64, len(m.bits))}
	copy(c.bits, m.bits)
	return c
}

// Equal reports whether two matrices have identical dimensions and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.bits {
		if m.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.cols, m.rows)
	transposeWords(t.bits, m.bits, m.rows, m.cols)
	return t
}

// Ones returns the number of 1 entries in the matrix.
func (m *Matrix) Ones() int {
	total := 0
	for _, w := range m.bits {
		total += bits.OnesCount64(w)
	}
	return total
}

// RowOnes returns the number of 1 entries in row i.
func (m *Matrix) RowOnes(i int) int { return m.Row(i).Ones() }

// IsZero reports whether every entry is 0.
func (m *Matrix) IsZero() bool {
	for _, w := range m.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Occupancy returns the fraction of entries that are 1 (0 for empty matrices).
func (m *Matrix) Occupancy() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	return float64(m.Ones()) / float64(m.rows*m.cols)
}

// ForEachOne calls fn for every 1 entry in row-major order.
func (m *Matrix) ForEachOne(fn func(i, j int)) {
	for i := 0; i < m.rows; i++ {
		base := i * m.wpr
		for wi := 0; wi < m.wpr; wi++ {
			w := m.bits[base+wi]
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				fn(i, wi*wordBits+b)
			}
		}
	}
}

// OnesPositions returns the (row, col) coordinates of all 1 entries in
// row-major order.
func (m *Matrix) OnesPositions() [][2]int {
	out := make([][2]int, 0, m.Ones())
	m.ForEachOne(func(i, j int) { out = append(out, [2]int{i, j}) })
	return out
}

// String renders the matrix as lines of '0'/'1' characters.
func (m *Matrix) String() string {
	var sb strings.Builder
	sb.Grow(m.rows * (m.cols + 1))
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		if i != m.rows-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Parse reads a matrix in the format produced by String: one row per line of
// '0'/'1' characters (spaces, tabs and commas between digits are ignored;
// blank lines and lines starting with '#' are skipped). Lines end at '\n' and
// are trimmed of Unicode white space at both ends.
//
// The first pass validates the input and sizes the matrix; the second packs
// the digits straight into the matrix words.
func Parse(s string) (*Matrix, error) {
	rows, cols := 0, 0
	for ln, rest := 1, s; rest != ""; ln++ {
		var line string
		line, rest = nextLine(rest)
		if line == "" {
			continue
		}
		n := 0
		for k := 0; k < len(line); k++ {
			switch c := line[k]; c {
			case '0', '1':
				n++
			case ' ', '\t', ',':
			default:
				r := rune(c)
				if c >= utf8.RuneSelf {
					r, _ = utf8.DecodeRuneInString(line[k:])
				}
				return nil, fmt.Errorf("bitmat: line %d: invalid character %q", ln, r)
			}
		}
		if rows > 0 && n != cols {
			return nil, fmt.Errorf("bitmat: line %d: %d columns, want %d", ln, n, cols)
		}
		rows, cols = rows+1, n
	}
	if rows == 0 {
		return nil, fmt.Errorf("bitmat: empty input")
	}
	m := New(rows, cols)
	i := 0
	for rest := s; rest != ""; {
		var line string
		line, rest = nextLine(rest)
		if line == "" {
			continue
		}
		row := m.bits[i*m.wpr : (i+1)*m.wpr]
		j := 0
		for k := 0; k < len(line); k++ {
			switch line[k] {
			case '1':
				row[j/wordBits] |= 1 << (uint(j) % wordBits)
				j++
			case '0':
				j++
			}
		}
		i++
	}
	return m, nil
}

// nextLine splits s at its first '\n' and returns the first line trimmed of
// white space, or "" when that line is blank or a '#' comment.
func nextLine(s string) (line, rest string) {
	line = s
	if k := strings.IndexByte(s, '\n'); k >= 0 {
		line, rest = s[:k], s[k+1:]
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "#") {
		line = ""
	}
	return line, rest
}

// MustParse is Parse that panics on error; intended for tests and fixed
// literal matrices.
func MustParse(s string) *Matrix {
	m, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return m
}

// ToRows converts the matrix to a slice of 0/1 int rows.
func (m *Matrix) ToRows() [][]int {
	out := make([][]int, m.rows)
	for i := range out {
		r := make([]int, m.cols)
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) {
				r[j] = 1
			}
		}
		out[i] = r
	}
	return out
}
