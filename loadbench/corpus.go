package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/wire"
)

// conflictBudget is carried by every request, so an op ends on a conflict
// count and never on the daemon's wall-clock timeout: its work, its answer
// and its conflicts are then the same on every host and every run.
const conflictBudget = 1_000

// family is one generator of the shared corpus. gen draws a pattern at one
// of levels difficulty levels (occupancy, rank, pair count, ...).
type family struct {
	name   string
	levels int
	gen    func(rng *rand.Rand, level int) *bitmat.Matrix
}

// families are the input shapes the benchmark covers: the paper's Table I
// families at 10×10, compiled circuit layers, permuted block-diagonal
// composites (the decomposition path), dense near-all-ones patterns (the
// fingerprint's branching tail) and large sparse arrays up to 100×100 (the
// only inputs where word-parallel bitmat kernels can show). No record of
// real traffic exists to weigh them, so every family gets an equal share of
// each corpus; runs print each family's share of op time, so results can be
// read apart from the mix.
var families = []family{
	{"random10", 8, func(rng *rand.Rand, l int) *bitmat.Matrix {
		return benchgen.Random(rng, 10, 10, 0.1*float64(1+l))
	}},
	{"knownopt10", 10, func(rng *rand.Rand, l int) *bitmat.Matrix {
		m, _ := benchgen.KnownOptimal(rng, 10, 10, 1+l)
		return m
	}},
	{"gap10", 4, func(rng *rand.Rand, l int) *bitmat.Matrix {
		return benchgen.Gap(rng, 10, 10, 2+l)
	}},
	{"circuit", 4, func(rng *rand.Rand, l int) *bitmat.Matrix {
		geo := [][2]int{{8, 8}, {12, 12}, {16, 16}, {8, 16}}[l]
		occ := 0.05 + 0.15*rng.Float64()
		return circuit.RandomCircuit(rng, geo[0], geo[1], 1, occ).Layers[0].Pattern
	}},
	{"blockdiag", 3, func(rng *rand.Rand, l int) *bitmat.Matrix {
		blocks := make([]*bitmat.Matrix, 2+l)
		for i := range blocks {
			r, c := 3+rng.Intn(4), 3+rng.Intn(4)
			blocks[i] = benchgen.Random(rng, r, c, 0.5)
		}
		return permuted(rng, benchgen.BlockDiagonal(blocks...))
	}},
	{"dense", len(denseZeros), func(rng *rand.Rand, l int) *bitmat.Matrix {
		m := bitmat.New(10, 10)
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				m.Set(i, j, true)
			}
		}
		for z := denseZeros[l]; z > 0; {
			i, j := rng.Intn(10), rng.Intn(10)
			if m.Get(i, j) {
				m.Set(i, j, false)
				z--
			}
		}
		return m
	}},
	{"large", 16, func(rng *rand.Rand, l int) *bitmat.Matrix {
		sizes := []int{40, 60, 80, 100}
		return benchgen.Random(rng, sizes[l/4], sizes[l%4], 0.008+0.008*rng.Float64())
	}},
}

// denseZeros are the zero counts of the dense family. Only 3 and 4: they
// have a handful of canonical forms, so every corpus holds nearly the same
// few dense patterns and random10 takes the family's remaining slots. With
// 5–14 zeros (and random10 at occupancy 0.9, which lands there) the
// fingerprint's individualization branching reached 14–87 ms on 0.1–1% of
// patterns against ~0.1 ms typical, and whether a seed's base set held one
// moved a hit workload's cpu_ms_per_op by 25% between seeds (README.md).
var denseZeros = []int{3, 4}

const levelTries = 20

// pattern is one corpus entry with its canonical fingerprint.
type pattern struct {
	m      *bitmat.Matrix
	family string
	hash   string
	rank   int
}

// genCorpus draws n patterns with distinct, exact canonical fingerprints
// that are also absent from seen (which it extends). Inexact fingerprints
// are skipped: the daemons never cache them, so they could not be hits.
// Family shares and levels are exact counts (equal shares, levels
// round-robin), not random draws, so every seed gets the same mix.
func genCorpus(rng *rand.Rand, n int, seen map[string]bool) []pattern {
	type slot struct{ family, level int }
	order := make([]slot, 0, n)
	for i, f := range families {
		k := n / len(families)
		if i < n%len(families) {
			k++
		}
		for j := 0; j < k; j++ {
			order = append(order, slot{i, j % f.levels})
		}
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	out := make([]pattern, 0, n)
	exhausted := make([]bool, len(families))
	for _, sl := range order {
		fi, level := sl.family, sl.level
		// A level can run out of distinct canonical forms (rank-1 patterns
		// all share one): after levelTries misses the draw moves to the
		// next level, and a family whose every level missed (dense
		// patterns have a few dozen forms) hands its remaining slots to
		// random10.
		for try := 0; ; try++ {
			if try == levelTries*families[fi].levels {
				exhausted[fi] = true
			}
			f, l := families[fi], (level+try/levelTries)%families[fi].levels
			if exhausted[fi] {
				f, l = families[0], try%families[0].levels
			}
			m := f.gen(rng, l)
			if m.Ones() == 0 {
				continue
			}
			fp := bitmat.ComputeFingerprint(m)
			if !fp.Exact || seen[fp.Hash] {
				continue
			}
			seen[fp.Hash] = true
			out = append(out, pattern{m: m, family: f.name, hash: fp.Hash, rank: m.Rank()})
			break
		}
	}
	return out
}

// permuted returns m with rows and columns in a fresh random order.
func permuted(rng *rand.Rand, m *bitmat.Matrix) *bitmat.Matrix {
	rp, cp := rng.Perm(m.Rows()), rng.Perm(m.Cols())
	out := bitmat.New(m.Rows(), m.Cols())
	m.ForEachOne(func(i, j int) { out.Set(rp[i], cp[j], true) })
	return out
}

// solveBody is a pre-marshalled POST /v1/solve body.
func solveBody(m *bitmat.Matrix) []byte {
	return mustJSON(wire.SolveRequest{Matrix: m.String(), Options: &wire.SolveOptions{ConflictBudget: conflictBudget}})
}

// jobBody is a pre-marshalled POST /v1/jobs body.
func jobBody(m *bitmat.Matrix) []byte {
	return mustJSON(wire.JobRequest{Matrix: m.String(), Options: &wire.SolveOptions{ConflictBudget: conflictBudget}})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("loadbench: marshal %T: %v", v, err))
	}
	return b
}
