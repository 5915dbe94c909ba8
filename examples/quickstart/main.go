// Quickstart: solve the paper's Figure 1b pattern end to end — parse a
// pattern, run SAP, inspect bounds and the certificate, and extract the
// EBMF factors.
package main

import (
	"fmt"
	"log"

	ebmf "repro"
)

func main() {
	// The 6×6 addressing pattern from Figure 1b of the paper.
	m := ebmf.MustParse(`101100
010011
101010
010101
111000
000111`)

	fmt.Printf("pattern (%d×%d, %d qubits to address):\n%s\n\n", m.Rows(), m.Cols(), m.Ones(), m)

	res, err := ebmf.Solve(m, ebmf.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("minimum addressing depth: %d\n", res.Depth)
	fmt.Printf("optimal: %v (certificate: %s)\n", res.Optimal, res.Certificate)
	fmt.Printf("lower bounds: rank=%d, fooling set=%d\n\n", res.RankLB, res.FoolingLB)
	fmt.Print(res.Partition)

	// Every partition is an exact binary matrix factorization M = H·W.
	h, w := res.Partition.Factors()
	fmt.Printf("\nEBMF factors (M = H·W over the reals):\nH =\n%s\nW =\n%s\n", h, w)

	// The fooling set certifying optimality (its 5 entries pairwise exclude
	// sharing a rectangle, so no partition can use fewer rectangles).
	set, exact := ebmf.FoolingSet(m, 0)
	fmt.Printf("\nfooling set (exact=%v): %v\n", exact, set)

	// Solve runs a staged pipeline: the matrix is compressed, split into
	// the connected components of its bipartite row-column graph (binary
	// rank is additive over them), and each block runs its own SAP loop —
	// concurrently, on a worker pool sized by Options.Parallelism (default
	// GOMAXPROCS). SolveContext threads cancellation into the SAT search
	// itself, so a canceled request stops mid-proof and still returns the
	// best valid partition found so far:
	//
	//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	//	defer cancel()
	//	res, err = ebmf.SolveContext(ctx, m, ebmf.DefaultOptions())
	//	// res.Canceled reports a cancellation; res.Blocks the component count.
	//
	// The exact stage solves incrementally by default: one CNF encoding at
	// the heuristic bound, narrowed depth by depth with selector
	// assumptions so the solver keeps its learnt clauses warm, with
	// slot-ordering symmetry breaking killing the k! rectangle-permutation
	// duplicates. The Options knobs expose the ablations (see DESIGN.md §6):
	//
	//	opts := ebmf.DefaultOptions()
	//	opts.Parallelism = 1               // solve blocks one at a time
	//	opts.DisableDecomposition = true   // monolithic whole-matrix solve
	//	opts.DisableSymmetryBreaking = true // drop slot-ordering clauses
	//	opts.DisableIncremental = true     // narrow with unit clauses instead
	//	opts.DisablePhaseSaving = true     // forget polarities across backtracks
	//	res, err = ebmf.Solve(m, opts)
}
