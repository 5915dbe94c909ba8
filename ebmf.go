// Package ebmf is the public API of this reproduction of "Depth-Optimal
// Addressing of 2D Qubit Array with 1D Controls Based on Exact Binary Matrix
// Factorization" (Tan, Ping, Cong — DATE 2024).
//
// The central problem: given a binary pattern matrix M of qubits to address
// on a 2D array with row/column (AOD) controls, partition the 1s of M into
// the minimum number of combinatorial rectangles — each rectangle is one
// addressing shot, so the partition size is the schedule depth. The minimum
// equals the binary rank r_B(M), the smallest r with M = H·W for binary H, W
// (addition over ℝ).
//
// Quick start:
//
//	m := ebmf.MustParse("101\n011\n111")
//	res, err := ebmf.Solve(m, ebmf.DefaultOptions())
//	// res.Partition is a depth-optimal rectangle partition when res.Optimal.
//	sched := ebmf.CompileSchedule(res.Partition)
//	err = sched.Verify(ebmf.NewArray(m.Rows(), m.Cols()))
//
// The heavy lifting lives in the internal packages: bitmat (bitset linear
// algebra), rowpack (the paper's Algorithm 2 heuristic), sat + encode (a
// from-scratch arena-based CDCL solver replacing z3, with the paper's Eq.-4
// constraints compiled to CNF), core (the SAP loop, Algorithm 1), fooling
// (lower bounds), aod (pulse-schedule simulation), ftqc (Section V),
// benchgen + eval (the paper's benchmark suites and Table I / Figure 4
// harness), and complete (the don't-care extension).
//
// Solving runs as a staged pipeline: Preprocess (compression) → Decompose
// (the matrix splits into the connected components of its bipartite
// row-column graph; binary rank is additive over them) → per-block SAP on a
// bounded worker pool (Options.Parallelism, default GOMAXPROCS) → Recombine
// (partition union, certificate stitching). SolveContext threads a
// context.Context through the pipeline into the SAT search loop, so a
// canceled request stops mid-search and still returns the best valid
// partition found.
//
// For serving workloads, NewCache wraps the pipeline in a canonicalizing
// result cache: Fingerprint hashes matrices up to row/column permutation and
// duplication, so resubmitted patterns — the common case in addressing
// traffic — are answered in O(1) with the cached partition lifted into the
// request's index space, and concurrent identical requests share one solve.
// cmd/ebmfd serves the cache over an HTTP JSON API (internal/server) with
// request batching and admission control.
//
// The SAP loop solves incrementally: the decision formula is encoded once
// at the heuristic upper bound and each depth bound is tried by switching
// rectangle slots off with selector assumptions, so learnt clauses, VSIDS
// activities and saved phases carry over from bound to bound instead of
// re-encoding per depth. The one-hot encoding breaks the k! rectangle-slot
// permutation symmetry by ordering slots by first-row index. Options
// exposes the ablation knobs — DisableDecomposition (monolithic solve),
// DisableSymmetryBreaking (slot-ordering clauses off), DisableIncremental
// (unit-clause narrowing), DisablePhaseSaving and the AMO encoding —
// alongside the budget and heuristic settings; see DESIGN.md for the
// measured trade-offs.
package ebmf

import (
	"context"
	"math/rand"

	"repro/internal/aod"
	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/fooling"
	"repro/internal/rect"
	"repro/internal/rowpack"
	"repro/internal/solvecache"
)

// Matrix is a dense binary matrix (see internal/bitmat).
type Matrix = bitmat.Matrix

// Vec is a packed binary vector.
type Vec = bitmat.Vec

// Rect is a combinatorial rectangle (row set × column set).
type Rect = rect.Rect

// Partition is a rectangle partition of a matrix — an EBMF.
type Partition = rect.Partition

// Result is the outcome of a Solve call, including the partition, lower
// bounds, optimality certificate, and stage timings.
type Result = core.Result

// Options configures Solve; see DefaultOptions.
type Options = core.Options

// PackOptions configures the row-packing heuristic.
type PackOptions = rowpack.Options

// Schedule is an AOD pulse schedule compiled from a partition.
type Schedule = aod.Schedule

// Shot is one AOD configuration (active row and column tones).
type Shot = aod.Shot

// Array is a 2D atom array, possibly with vacancies.
type Array = aod.Array

// Certificate says how a result's optimality was established.
type Certificate = core.Certificate

// Certificates.
const (
	CertNone    = core.CertNone
	CertRank    = core.CertRank
	CertFooling = core.CertFooling
	CertUnsat   = core.CertUnsat
)

// New returns an all-zero rows×cols matrix.
func New(rows, cols int) *Matrix { return bitmat.New(rows, cols) }

// FromRows builds a matrix from 0/1 int rows.
func FromRows(rows [][]int) *Matrix { return bitmat.FromRows(rows) }

// Parse reads a matrix from lines of '0'/'1' characters.
func Parse(s string) (*Matrix, error) { return bitmat.Parse(s) }

// MustParse is Parse that panics on error.
func MustParse(s string) *Matrix { return bitmat.MustParse(s) }

// Random returns a random matrix with the given occupancy.
func Random(rng *rand.Rand, rows, cols int, occupancy float64) *Matrix {
	return bitmat.Random(rng, rows, cols, occupancy)
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix { return bitmat.Identity(n) }

// AllOnes returns the all-ones matrix.
func AllOnes(rows, cols int) *Matrix { return bitmat.AllOnes(rows, cols) }

// Tensor returns the Kronecker product a ⊗ b.
func Tensor(a, b *Matrix) *Matrix { return bitmat.Tensor(a, b) }

// DefaultOptions returns the solver configuration used throughout the
// paper's evaluation at moderate effort.
func DefaultOptions() Options { return core.DefaultOptions() }

// Solve runs SAP (Algorithm 1): row packing for a fast upper bound, then
// SAT-backed narrowing toward the rank lower bound. The returned partition
// is always valid; Result.Optimal reports whether its depth is proved to be
// the binary rank.
func Solve(m *Matrix, opts Options) (*Result, error) { return core.Solve(m, opts) }

// SolveContext is Solve with cancellation: when ctx is canceled the SAT
// stage stops mid-search — the context is polled inside the CDCL propagate
// loop, not just between depth bounds — and the best partition found so far
// is returned with Result.Canceled set. Decomposed blocks run concurrently
// under Options.Parallelism; results are deterministic regardless of the
// setting.
func SolveContext(ctx context.Context, m *Matrix, opts Options) (*Result, error) {
	return core.SolveContext(ctx, m, opts)
}

// BinaryRank computes r_B(m) exactly, with no budgets (exponential worst
// case; intended for small matrices).
func BinaryRank(m *Matrix) (int, error) { return core.BinaryRank(m) }

// Fingerprint returns the canonical fingerprint of m: a hash that is equal
// for any two matrices related by row/column permutation, duplicated
// rows/columns or zero padding (the reductions that preserve the rectangle
// structure and hence the binary rank), and different otherwise. exact is
// false when canonicalization exceeded its work budget on a highly
// self-similar matrix; such hashes are deterministic but not
// permutation-invariant and are not usable as cache keys.
func Fingerprint(m *Matrix) (hash string, exact bool) {
	fp := bitmat.ComputeFingerprint(m)
	return fp.Hash, fp.Exact
}

// SolveCache is a fingerprint-keyed result cache with singleflight
// deduplication in front of the solve pipeline: resubmissions of a pattern —
// permuted, row/column-duplicated, or zero-padded — are answered from cache
// with the partition lifted into the request's index space, and N concurrent
// equivalent requests cost one pipeline run. Only proved-optimal results are
// stored (they are budget-independent facts about the matrix). The ebmfd
// service (internal/server, cmd/ebmfd) serves this cache over HTTP.
type SolveCache = solvecache.Cache

// CacheStats is a snapshot of a SolveCache's counters.
type CacheStats = solvecache.Stats

// NewCache returns a SolveCache holding up to capacity results (a default
// capacity when capacity <= 0). Solve through it with
// (*SolveCache).Solve / (*SolveCache).SolveContext, which mirror the
// package-level Solve / SolveContext contracts and additionally set
// Result.CacheHit on cache-served answers.
func NewCache(capacity int) *SolveCache { return solvecache.New(capacity) }

// CertifyDepth independently certifies that depth is the minimum partition
// depth of m: it rebuilds the depth-1 decision formula from scratch, solves
// it with DRAT proof logging, and replays the UNSAT proof through a
// reverse-unit-propagation checker (or uses the arithmetic rank bound when
// it already suffices). Nothing from prior solving runs is trusted.
func CertifyDepth(m *Matrix, depth int) error { return core.CertifyDepth(m, depth) }

// Pack runs only the row-packing heuristic (Algorithm 2) and returns the
// best partition over the configured trials.
func Pack(m *Matrix, opts PackOptions) *Partition { return rowpack.Pack(m, opts) }

// DefaultPackOptions mirror the paper's heuristic setting (100 shuffled
// trials, both orientations).
func DefaultPackOptions() PackOptions { return rowpack.DefaultOptions() }

// Trivial returns the paper's trivial partition (consolidated single rows or
// columns, whichever is smaller).
func Trivial(m *Matrix) *Partition { return rowpack.Trivial(m) }

// FoolingSet returns a maximum fooling set of m when the branch-and-bound
// search finishes within nodeBudget (≤ 0 for unlimited), or the best found.
// Its size lower-bounds the binary rank.
func FoolingSet(m *Matrix, nodeBudget int64) (set [][2]int, exact bool) {
	return fooling.Exact(m, nodeBudget)
}

// CompileSchedule converts a partition into an AOD pulse schedule, one shot
// per rectangle.
func CompileSchedule(p *Partition) *Schedule { return aod.Compile(p) }

// NewArray returns a fully loaded atom array.
func NewArray(rows, cols int) *Array { return aod.NewArray(rows, cols) }

// NewArrayWithVacancies returns an array with the given occupied sites.
func NewArrayWithVacancies(atoms *Matrix) *Array { return aod.NewArrayWithVacancies(atoms) }
