// Command timing regenerates Figure 4 of the paper: the most time-consuming
// cases of the exact solver, split into packing time and SAT time, together
// with each case's rational rank. The paper's observation — the expensive
// step is proving UNSAT one below the best depth found, while packing time
// is negligible — should be visible in the output on any machine.
//
// Usage:
//
//	timing [-top N] [-seed S] [-gap N] [-rand N] [-budget N] [-json]
//	timing [-cpuprofile F] [-memprofile F] ...   # pprof profiles of the run
//
// With -json the command additionally runs the perf-tracked solver and SAP
// workloads (the same ones as `go test -bench 'Solver|SAP'`) and writes a
// BENCH_solver.json snapshot, so the solver's speed trajectory is recorded
// across PRs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/eval"
	"repro/internal/sat"
	"repro/internal/server"
	"repro/internal/solvecache"
)

// benchEntry is one measured workload in the JSON snapshot.
type benchEntry struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"ns_per_op"`
	Iters   int    `json:"iters"`
}

type benchSnapshot struct {
	GoVersion string       `json:"go_version"`
	GOARCH    string       `json:"goarch"`
	When      string       `json:"when"`
	Benches   []benchEntry `json:"benches"`
}

// measure times fn over iters runs after one warm-up.
func measure(name string, iters int, fn func()) benchEntry {
	fn() // warm-up
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return benchEntry{
		Name:    name,
		NsPerOp: time.Since(start).Nanoseconds() / int64(iters),
		Iters:   iters,
	}
}

// writeBenchJSON runs the perf-tracked workloads (shared with bench_test.go
// via internal/eval) and writes the snapshot.
func writeBenchJSON(path string) error {
	jobs := eval.TableIGapSolverJobs()
	blockDiag := eval.BlockDiagSAPMatrices()
	fig1b := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	narrow := func(incremental, symBreak bool) func() {
		return func() {
			for _, j := range jobs {
				eval.NarrowToRank(j, incremental, symBreak)
			}
		}
	}
	gapMs := eval.GapSuiteMatrices()
	sapOpts := eval.TableIGapSAPOptions()
	snap := benchSnapshot{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		When:      time.Now().UTC().Format(time.RFC3339),
		Benches: []benchEntry{
			measure("SolverTableIGapNarrowing", 3, narrow(true, true)),
			measure("SolverTableIGapDestructive", 3, narrow(false, true)),
			measure("SolverTableIGapNoSymBreak", 3, narrow(true, false)),
			measure("SAPBlockDiagParallel", 3, func() { eval.RunBlockDiagSAP(blockDiag, true) }),
			measure("SAPBlockDiagSequentialWhole", 3, func() { eval.RunBlockDiagSAP(blockDiag, false) }),
			measure("SolverFig1bUnsat", 20, func() {
				if encode.NewOneHot(fig1b, 4, encode.AMONative).Solve() != sat.Unsat {
					panic("b=4 must be UNSAT")
				}
			}),
			measure("SAPTableIGap", 3, func() {
				eval.RunGapSuiteSAP(gapMs, sapOpts)
			}),
			measure("CertifiedFig1bProof", 10, func() {
				if err := core.CertifyDepth(fig1b, 5); err != nil {
					panic(err)
				}
			}),
		},
	}
	return writeSnapshot(path, snap)
}

// writeServerBenchJSON measures the serving subsystem's perf-tracked
// workloads — cold pipeline solve vs fingerprint-cache hit, through the
// cache layer and through a full HTTP round trip — and writes
// BENCH_server.json.
func writeServerBenchJSON(path string) error {
	fig1b := bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
	opts := core.DefaultOptions()

	rng := rand.New(rand.NewSource(1))
	perm := func() *bitmat.Matrix {
		rp, cp := rng.Perm(fig1b.Rows()), rng.Perm(fig1b.Cols())
		p := bitmat.New(fig1b.Rows(), fig1b.Cols())
		fig1b.ForEachOne(func(r, c int) { p.Set(rp[r], cp[c], true) })
		return p
	}

	warm := solvecache.New(0)
	if _, err := warm.Solve(fig1b, opts); err != nil {
		return err
	}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{"matrix": fig1b.String()})
	post := func(url string, body []byte) {
		resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Gateway workloads: one shard behind ebmfgw, measured once with the
	// gateway-local LRU serving permuted hits and once forced through to the
	// shard's fingerprint cache (the extra network hop).
	newGateway := func(localCache int) (*cluster.Gateway, *httptest.Server, error) {
		gw, err := cluster.New(cluster.Config{
			Backends:       []string{ts.URL},
			ProbeInterval:  -1,
			HedgeAfter:     -1,
			LocalCacheSize: localCache,
		})
		if err != nil {
			return nil, nil, err
		}
		return gw, httptest.NewServer(gw.Handler()), nil
	}
	gwLocal, gwLocalTS, err := newGateway(0)
	if err != nil {
		return err
	}
	defer gwLocal.Close()
	defer gwLocalTS.Close()
	gwProxy, gwProxyTS, err := newGateway(-1)
	if err != nil {
		return err
	}
	defer gwProxy.Close()
	defer gwProxyTS.Close()
	// Pre-marshal a pool of permuted request bodies so the measured op is
	// the same client work as ServerHTTPCacheHit (post a ready body), not
	// permutation + JSON encoding.
	permBodies := make([][]byte, 16)
	for i := range permBodies {
		permBodies[i], _ = json.Marshal(map[string]string{"matrix": perm().String()})
	}
	var permIdx int
	nextPermBody := func() []byte {
		permIdx++
		return permBodies[permIdx%len(permBodies)]
	}
	post(gwLocalTS.URL, body) // warm the local LRU
	post(gwProxyTS.URL, body) // warm the shard cache through the proxy path

	snap := benchSnapshot{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		When:      time.Now().UTC().Format(time.RFC3339),
		Benches: []benchEntry{
			measure("ServerColdSolveFig1b", 20, func() {
				if _, err := solvecache.New(0).Solve(fig1b, opts); err != nil {
					panic(err)
				}
			}),
			measure("ServerCacheHitPermutedFig1b", 200, func() {
				res, err := warm.Solve(perm(), opts)
				if err != nil {
					panic(err)
				}
				if !res.CacheHit {
					panic("expected cache hit")
				}
			}),
			measure("ServerFingerprintFig1b", 500, func() {
				if fp := bitmat.ComputeFingerprint(fig1b); !fp.Exact {
					panic("inexact fingerprint")
				}
			}),
			measure("ServerHTTPCacheHit", 200, func() { post(ts.URL, body) }),
			measure("GatewayLocalCacheHit", 200, func() { post(gwLocalTS.URL, nextPermBody()) }),
			measure("GatewayProxyCacheHit", 200, func() { post(gwProxyTS.URL, nextPermBody()) }),
		},
	}
	return writeSnapshot(path, snap)
}

func writeSnapshot(path string, snap benchSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func main() {
	top := flag.Int("top", 7, "number of hardest cases to show (Figure 4 shows 7)")
	seed := flag.Int64("seed", 2024, "benchmark seed")
	gapCount := flag.Int("gap", 10, "gap instances per pair count (2..5)")
	randCount := flag.Int("rand", 5, "random 10×10 instances per occupancy")
	budget := flag.Int64("budget", 5_000_000, "SAT conflict budget per instance (0 = unlimited)")
	csvPath := flag.String("csv", "", "also write all per-instance results as CSV to this file")
	jsonOut := flag.Bool("json", false, "run the Solver/SAP perf workloads and write BENCH_solver.json")
	serverJSON := flag.Bool("server-json", false, "run the serving-subsystem workloads and write BENCH_server.json")
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

	if *jsonOut {
		if err := writeBenchJSON("BENCH_solver.json"); err != nil {
			fmt.Fprintln(os.Stderr, "timing:", err)
			os.Exit(1)
		}
		fmt.Println("solver perf snapshot written to BENCH_solver.json")
	}
	if *serverJSON {
		if err := writeServerBenchJSON("BENCH_server.json"); err != nil {
			fmt.Fprintln(os.Stderr, "timing:", err)
			os.Exit(1)
		}
		fmt.Println("server perf snapshot written to BENCH_server.json")
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
