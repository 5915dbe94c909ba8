package bitmat

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 70) // spans two words per row
	if m.Rows() != 3 || m.Cols() != 70 {
		t.Fatalf("got %d×%d, want 3×70", m.Rows(), m.Cols())
	}
	if !m.IsZero() {
		t.Fatal("new matrix must be zero")
	}
	if m.WordsPerRow() != 2 {
		t.Fatalf("words per row = %d, want 2", m.WordsPerRow())
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	m := New(5, 130)
	coords := [][2]int{{0, 0}, {4, 129}, {2, 63}, {2, 64}, {3, 127}, {3, 128}}
	for _, c := range coords {
		m.Set(c[0], c[1], true)
	}
	for _, c := range coords {
		if !m.Get(c[0], c[1]) {
			t.Errorf("(%d,%d) not set", c[0], c[1])
		}
	}
	if m.Ones() != len(coords) {
		t.Fatalf("Ones = %d, want %d", m.Ones(), len(coords))
	}
	for _, c := range coords {
		m.Set(c[0], c[1], false)
	}
	if !m.IsZero() {
		t.Fatal("matrix should be zero after clearing")
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Get(2, 0)
}

func TestFromRowsAndToRows(t *testing.T) {
	rows := [][]int{{1, 0, 1}, {0, 1, 1}}
	m := FromRows(rows)
	got := m.ToRows()
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != got[i][j] {
				t.Fatalf("round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged input")
		}
	}()
	FromRows([][]int{{1, 0}, {1}})
}

func TestFromRowsNonBinaryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-binary entry")
		}
	}()
	FromRows([][]int{{2}})
}

func TestParseStringRoundTrip(t *testing.T) {
	src := "101\n010\n111"
	m := MustParse(src)
	if m.String() != src {
		t.Fatalf("String() = %q, want %q", m.String(), src)
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	m, err := Parse("# header\n\n1 0 1\n0,1,1\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("got %d×%d, want 2×3", m.Rows(), m.Cols())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(""); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Parse("10\n1"); err == nil {
		t.Error("ragged input should error")
	}
	if _, err := Parse("1x0"); err == nil {
		t.Error("invalid character should error")
	}
}

// TestParseCompatibility pins Parse's grammar and exact error strings: lines
// split on '\n', Unicode whitespace trimmed at both ends, blank and '#' lines
// skipped, ' ', '\t' and ',' ignored between digits, any other rune
// (invalid UTF-8 reads as U+FFFD) an error, ragged rows measured against the
// first row.
func TestParseCompatibility(t *testing.T) {
	wide := strings.Repeat("10", 35)
	cases := []struct {
		name, in string
		want     string // m.String() on success
		rows     int
		cols     int
		err      string
	}{
		{name: "crlf", in: "10\r\n01\r\n", want: "10\n01", rows: 2, cols: 2},
		{name: "trailing newline", in: "101\n010\n", want: "101\n010", rows: 2, cols: 3},
		{name: "separators", in: "  1 0 1\t\n0,1,1 ", want: "101\n011", rows: 2, cols: 3},
		{name: "comments and blanks", in: "# header\n\n101\n#2x\n   \n010", want: "101\n010", rows: 2, cols: 3},
		{name: "indented comment", in: "  # note\n1", want: "1", rows: 1, cols: 1},
		{name: "unicode space at ends", in: "\u3000 10\u2003\n01\u00a0\u0085", want: "10\n01", rows: 2, cols: 2},
		{name: "ascii control space at ends", in: "\t\v\f101\r", want: "101", rows: 1, cols: 3},
		{name: "wider than a word", in: wide + "\n" + wide, want: wide + "\n" + wide, rows: 2, cols: 70},
		{name: "zero columns", in: ",", want: "", rows: 1, cols: 0},
		{name: "zero columns two rows", in: " , \n , ", want: "\n", rows: 2, cols: 0},
		{name: "empty", in: "", err: "bitmat: empty input"},
		{name: "only comments and blanks", in: "# only\n\n  \r\n", err: "bitmat: empty input"},
		{name: "invalid ascii", in: "1x0", err: `bitmat: line 1: invalid character 'x'`},
		{name: "invalid separator", in: "1,0;1", err: `bitmat: line 1: invalid character ';'`},
		{name: "inner vertical tab", in: "11\n1\v0", err: `bitmat: line 2: invalid character '\v'`},
		{name: "inner carriage return", in: "1\r0", err: `bitmat: line 1: invalid character '\r'`},
		{name: "inner unicode space", in: "1\u00a00", err: `bitmat: line 1: invalid character '\u00a0'`},
		{name: "non-ascii", in: "# c\n1é0", err: `bitmat: line 2: invalid character 'é'`},
		{name: "invalid utf-8", in: "10\n0\xff1", err: `bitmat: line 2: invalid character '�'`},
		{name: "invalid utf-8 at line end", in: "01\xff", err: `bitmat: line 1: invalid character '�'`},
		{name: "ragged", in: "101\n10", err: "bitmat: line 2: 2 columns, want 3"},
		{name: "ragged after skipped lines", in: "# c\n\n101\n\n1 1", err: "bitmat: line 5: 2 columns, want 3"},
		{name: "ragged against zero columns", in: ",\n1", err: "bitmat: line 2: 1 columns, want 0"},
		{name: "invalid character before ragged", in: "101\n1x", err: `bitmat: line 2: invalid character 'x'`},
		{name: "invalid character after ragged digits", in: "10\n101x", err: `bitmat: line 2: invalid character 'x'`},
	}
	for _, tc := range cases {
		m, err := Parse(tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: Parse(%q) error = %v, want %q", tc.name, tc.in, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Parse(%q): %v", tc.name, tc.in, err)
			continue
		}
		if m.Rows() != tc.rows || m.Cols() != tc.cols || m.String() != tc.want {
			t.Errorf("%s: Parse(%q) = %d×%d %q, want %d×%d %q", tc.name, tc.in, m.Rows(), m.Cols(), m.String(), tc.rows, tc.cols, tc.want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := Random(rng, 1+rng.Intn(12), 1+rng.Intn(90), rng.Float64())
		if !m.Transpose().Transpose().Equal(m) {
			t.Fatalf("transpose not involutive for\n%s", m)
		}
	}
}

func TestTransposeEntries(t *testing.T) {
	m := MustParse("110\n001")
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims %d×%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.Get(i, j) != tr.Get(j, i) {
				t.Fatalf("entry mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := MustParse("10\n01")
	c := m.Clone()
	c.Set(0, 1, true)
	if m.Get(0, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("clone should equal original")
	}
}

func TestRowSharingAndSetRow(t *testing.T) {
	m := New(2, 10)
	r := m.Row(0)
	r.Set(3, true)
	if !m.Get(0, 3) {
		t.Fatal("Row must share storage")
	}
	v := NewVec(10)
	v.Set(7, true)
	m.SetRow(1, v)
	if !m.Get(1, 7) {
		t.Fatal("SetRow did not copy")
	}
	v.Set(8, true)
	if m.Get(1, 8) {
		t.Fatal("SetRow must copy, not alias")
	}
}

func TestForEachOneOrder(t *testing.T) {
	m := MustParse("0101\n1000")
	var got [][2]int
	m.ForEachOne(func(i, j int) { got = append(got, [2]int{i, j}) })
	want := [][2]int{{0, 1}, {0, 3}, {1, 0}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOccupancy(t *testing.T) {
	m := MustParse("11\n00")
	if m.Occupancy() != 0.5 {
		t.Fatalf("occupancy = %v, want 0.5", m.Occupancy())
	}
	if New(0, 0).Occupancy() != 0 {
		t.Fatal("empty occupancy should be 0")
	}
}

func TestOnesPositionsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Random(rng, 8, 8, 0.4)
	if len(m.OnesPositions()) != m.Ones() {
		t.Fatal("OnesPositions length != Ones")
	}
}

// Property: parse(String(m)) == m for random matrices.
func TestQuickStringParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(rng, 1+rng.Intn(10), 1+rng.Intn(10), rng.Float64())
		back, err := Parse(m.String())
		return err == nil && back.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose preserves the number of ones.
func TestQuickTransposePreservesOnes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(rng, 1+rng.Intn(20), 1+rng.Intn(90), rng.Float64())
		return m.Ones() == m.Transpose().Ones()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
