package bitmat_test

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/bitmat"
)

// The golden table pins fingerprints across versions of the canonicalization
// code. Hash keys every durable store record and is the wire "fingerprint"
// field, and RowMap/ColMap/Comp decide how cached partitions lift onto a
// request, so any change to a value in testdata/fingerprints.golden re-keys
// every store and changes wire bytes. The file holds each input matrix with
// its recorded fingerprint, so replaying it on older code shows where the
// values came from. Its inputs cover the shapes the service sees (the
// benchmark corpus families: random, known-optimal and gap 10×10, circuit
// layers, permuted block-diagonal composites, near-all-ones 10×10 with 3–13
// zeros, sparse arrays up to 100×100) and the canonical labeling's edge
// cases: duplicate and zero lines, identical blocks, a 16-cycle circulant and
// a 5-cube plus identity that exhausts the labeling budget. A deliberate
// format change replaces the "ebmf/fp/v1" prefix and brings its own table;
// values in this one never change.
const goldenPath = "testdata/fingerprints.golden"

// goldenRecord is one line of the golden file: an input matrix and every
// part of its fingerprint that callers can observe.
type goldenRecord struct {
	Name      string  `json:"name"`
	Matrix    string  `json:"matrix"`
	Hash      string  `json:"hash"`
	Exact     bool    `json:"exact"`
	Canonical string  `json:"canonical"`
	RowMap    []int   `json:"row_map"`
	ColMap    []int   `json:"col_map"`
	Reduced   string  `json:"reduced"`
	RowGroups [][]int `json:"row_groups"`
	ColGroups [][]int `json:"col_groups"`
}

func fingerprintRecord(name string, m *bitmat.Matrix) goldenRecord {
	fp := bitmat.ComputeFingerprint(m)
	rec := goldenRecord{
		Name:      name,
		Matrix:    m.String(),
		Hash:      fp.Hash,
		Exact:     fp.Exact,
		RowMap:    fp.RowMap,
		ColMap:    fp.ColMap,
		Reduced:   fp.Comp.Reduced.String(),
		RowGroups: fp.Comp.RowGroups,
		ColGroups: fp.Comp.ColGroups,
	}
	if fp.Canonical != nil {
		rec.Canonical = fp.Canonical.String()
	}
	return rec
}

func TestFingerprintGolden(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n, inexact := 0, 0
	for sc.Scan() {
		var want goldenRecord
		if err := json.Unmarshal(sc.Bytes(), &want); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		n++
		if !want.Exact {
			inexact++
		}
		m, err := bitmat.Parse(want.Matrix)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		// Round-trip through JSON so nil and empty slices compare the way
		// the file stores them.
		var got goldenRecord
		b, err := json.Marshal(fingerprintRecord(want.Name, m))
		if err == nil {
			err = json.Unmarshal(b, &got)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fingerprint differs from the golden table\n got %s\nwant %s", want.Name, b, sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The table must keep covering the budget-exhausted path.
	if n < 80 || inexact == 0 {
		t.Fatalf("golden table has %d records, %d inexact; want >= 80 and >= 1", n, inexact)
	}
}
