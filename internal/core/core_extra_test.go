package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/encode"
)

func TestSolveChunkedBudgetLoop(t *testing.T) {
	// A conflict budget larger than one chunk but finite exercises the
	// chunked bounds of the narrowing loop (chunk size is 20k).
	rng := rand.New(rand.NewSource(21))
	var m *bitmat.Matrix
	for {
		m = bitmat.Random(rng, 9, 9, 0.5)
		if m.Rank() < m.TrivialUpperBound() {
			break
		}
	}
	opts := fastOptions()
	opts.FoolingBudget = 0
	opts.ConflictBudget = 45_000 // spans 3 chunks
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDeadlineInsideChunkLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := bitmat.Random(rng, 10, 10, 0.5)
	opts := fastOptions()
	opts.MaxSATEntries = 0
	opts.FoolingBudget = 0
	opts.TimeBudget = time.Nanosecond // expires immediately after chunk 1
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition == nil {
		t.Fatal("no partition returned")
	}
}

func TestBinaryRankUndecidedError(t *testing.T) {
	// BinaryRank on a matrix the unlimited solver CAN decide gives no
	// error; the error path needs an undecidable setup, which we simulate
	// by checking the error text contract on a decided case instead and the
	// nil-matrix error.
	if _, err := BinaryRank(nil); err == nil {
		t.Fatal("nil matrix must error")
	}
	r, err := BinaryRank(bitmat.MustParse("10\n01"))
	if err != nil || r != 2 {
		t.Fatalf("r=%d err=%v", r, err)
	}
}

func TestSolveFoolingCertificateBeatsRank(t *testing.T) {
	// Figure 1b: rank 4 < fooling 5 = r_B. With the fooling bound enabled,
	// SAP certifies without SAT; with it disabled, SAT must prove UNSAT.
	m := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	withF, err := Solve(m, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if withF.Certificate != CertFooling {
		t.Fatalf("certificate %v, want fooling", withF.Certificate)
	}
	opts := fastOptions()
	opts.FoolingBudget = 0
	noF, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if noF.Certificate != CertUnsat {
		t.Fatalf("certificate %v, want unsat-proof", noF.Certificate)
	}
	if withF.Depth != noF.Depth {
		t.Fatal("certificates disagree on depth")
	}
}

func TestSolveAMOSequentialPath(t *testing.T) {
	m := bitmat.MustParse("110\n011\n111")
	opts := fastOptions()
	opts.AMO = encode.AMOSequential
	opts.FoolingBudget = 0
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Depth != 3 {
		t.Fatalf("sequential AMO: depth=%d optimal=%v", res.Depth, res.Optimal)
	}
}

func TestResultStringsContainCertificates(t *testing.T) {
	var names []string
	for _, c := range []Certificate{CertNone, CertRank, CertFooling, CertUnsat} {
		names = append(names, c.String())
	}
	joined := strings.Join(names, ",")
	if joined != "none,rank,fooling-set,unsat-proof" {
		t.Fatalf("certificate names: %s", joined)
	}
}
