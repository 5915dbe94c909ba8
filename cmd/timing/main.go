// Command timing regenerates Figure 4 of the paper: the most time-consuming
// cases of the exact solver, split into packing time and SAT time, together
// with each case's rational rank. The paper's observation — the expensive
// step is proving UNSAT one below the best depth found, while packing time
// is negligible — should be visible in the output on any machine.
//
// Usage:
//
//	timing [-top N] [-seed S] [-gap N] [-rand N] [-budget N] [-csv F]
//	timing [-cpuprofile F] [-memprofile F] ...   # pprof profiles of the run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/benchgen"
	"repro/internal/eval"
)

func main() {
	top := flag.Int("top", 7, "number of hardest cases to show (Figure 4 shows 7)")
	seed := flag.Int64("seed", 2024, "benchmark seed")
	gapCount := flag.Int("gap", 10, "gap instances per pair count (2..5)")
	randCount := flag.Int("rand", 5, "random 10×10 instances per occupancy")
	budget := flag.Int64("budget", 5_000_000, "SAT conflict budget per instance (0 = unlimited)")
	csvPath := flag.String("csv", "", "also write all per-instance results as CSV to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timing:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "timing:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "timing:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "timing:", err)
			}
		}()
	}

	opts := eval.Options{
		TrialCounts:    []int{100},
		ConflictBudget: *budget,
		MaxSATEntries:  400,
		Seed:           *seed,
	}

	var all []eval.InstanceResult
	start := time.Now()
	for pairs := 2; pairs <= 5; pairs++ {
		suite := benchgen.GapSuite(*seed+int64(pairs), 10, 10, []int{pairs}, *gapCount)
		_, per := eval.EvalSuite(fmt.Sprintf("gap-%d", pairs), suite, opts)
		all = append(all, per...)
	}
	randSuite := benchgen.RandomSuite(*seed, 10, 10, benchgen.PaperOccupanciesSmall(), *randCount)
	_, per := eval.EvalSuite("rand", randSuite, opts)
	all = append(all, per...)

	fmt.Printf("Figure 4: most time-consuming cases (%d instances evaluated in %v)\n\n",
		len(all), time.Since(start).Round(time.Millisecond))
	eval.WriteTimings(os.Stdout, eval.HardestCases(all, *top))
	fmt.Println("\nExpected shape (paper Observation 5): SAT time dominates packing time,")
	fmt.Println("and the bulk of it is spent proving the final bound UNSAT.")
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timing:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := eval.WriteInstanceCSV(f, all); err != nil {
			fmt.Fprintln(os.Stderr, "timing:", err)
			os.Exit(1)
		}
		fmt.Printf("raw data written to %s\n", *csvPath)
	}
}
