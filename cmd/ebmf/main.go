// Command ebmf solves the depth-optimal rectangular addressing problem for a
// binary pattern matrix: it reads a matrix (rows of 0/1 characters), runs
// the SAP solver, and prints the rectangle partition, optionally as EBMF
// factors, an AOD pulse schedule, or the service wire JSON.
//
// Usage:
//
//	ebmf [flags] [file]            # reads stdin when no file is given
//
// Flags:
//
//	-trials N          row-packing trials (default 100)
//	-amo M             at-most-one handling: native | pairwise | sequential
//	                   (default native — the solver's built-in propagator;
//	                   the others are encoded ablations)
//	-no-inprocess      disable between-restart clause simplification
//	-budget N          SAT conflict budget, 0 = unlimited (default 2000000)
//	-timeout D         SAT wall-clock budget, e.g. 30s (default unlimited)
//	-fooling N         fooling-set node budget, 0 = skip (default 200000)
//	-heuristic         skip the exact stage
//	-strategies S      run one named solver strategy (canonical, luby,
//	                   destructive, no-phase, seq-amo, native-amo,
//	                   luby-destructive); validated up front
//	-factors           print the H and W factors
//	-schedule          print the AOD schedule and per-shot frames
//	-schedule-json F   write the AOD schedule as JSON to F ('-' for stdout)
//	-json              print the result as wire JSON on stdout (the same
//	                   schema POST /v1/solve returns, fingerprint included)
//	-trace             print the solve's span timeline and progress samples
//	                   to stderr (per-block, per-depth-probe timings)
//	-trace-json F      write the trace as JSON to F ('-' for stdout)
//	-server URL        submit to a running ebmfd/ebmfgw as an async job:
//	                   progress streams to stderr, the result prints under
//	                   the same output flags and exit-code contract
//	-api-key K         API key for -server (Authorization: Bearer)
//	-degrade           with -server: under overload accept a heuristic-only
//	                   answer (exit code 2) instead of a 429
//	-callback URL      with -server: webhook URL POSTed the terminal job
//	                   snapshot (must be on the server's -webhook-allow list)
//	-q                 print only the depth
//
// -fooling, -no-inprocess, -factors, -schedule, -schedule-json, -trace and
// -trace-json act on a local solve only, and -api-key, -degrade and
// -callback on a remote one; setting one in the other mode is a flag
// error.
//
// Exit codes: 0 when the partition is proved depth-optimal, 2 when the
// solver returned a valid but unproven partition (budget exhausted or
// heuristic-only), 1 on error — so scripts can distinguish "optimal",
// "best-effort" and "failed" without parsing output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	ebmf "repro"
	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Exit codes.
const (
	exitOptimal    = 0 // partition proved depth-optimal
	exitError      = 1 // input or solver error
	exitNonOptimal = 2 // valid partition, optimality not established
)

func main() {
	os.Exit(run())
}

func run() int {
	trials := flag.Int("trials", 100, "row-packing trials")
	amoMode := flag.String("amo", "native", "at-most-one handling: native, pairwise or sequential")
	noInprocess := flag.Bool("no-inprocess", false, "disable between-restart clause simplification (ablation)")
	budget := flag.Int64("budget", 2_000_000, "SAT conflict budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "SAT wall-clock budget (0 = unlimited)")
	fooling := flag.Int64("fooling", 200_000, "fooling-set node budget (0 = skip the fooling bound)")
	heuristic := flag.Bool("heuristic", false, "skip the exact stage")
	strategy := flag.String("strategies", "", "run this one named solver strategy (empty = the configuration the other flags describe)")
	factors := flag.Bool("factors", false, "print EBMF factors H and W")
	schedule := flag.Bool("schedule", false, "print the AOD schedule")
	schedJSON := flag.String("schedule-json", "", "write the AOD schedule as JSON to this file ('-' for stdout)")
	jsonOut := flag.Bool("json", false, "print the result as wire JSON on stdout")
	trace := flag.Bool("trace", false, "print the solve's span timeline to stderr")
	traceJSON := flag.String("trace-json", "", "write the trace as JSON to this file ('-' for stdout)")
	serverURL := flag.String("server", "", "submit to a running ebmfd/ebmfgw as an async job instead of solving locally")
	apiKey := flag.String("api-key", "", "API key for -server (sent as Authorization: Bearer)")
	degrade := flag.Bool("degrade", false, "with -server: accept a heuristic-only answer under overload instead of a 429")
	callback := flag.String("callback", "", "with -server: webhook URL POSTed the terminal job (must be on the server's allowlist)")
	quiet := flag.Bool("q", false, "print only the depth")
	// A flag error is an error (exit 1), not exit 2's "valid but unproven"
	// — which flag.ExitOnError would report, e.g. for a retired flag.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return exitOptimal
		}
		return exitError
	}
	if err := checkModeFlags(*serverURL != ""); err != nil {
		return fail(err)
	}
	// Validate up front: a typo should be a flag error naming the valid
	// set, not a failure halfway through the solve.
	if strings.Contains(*strategy, ",") {
		return fail(fmt.Errorf("-strategies takes one name, got %q (strategy racing was removed)", *strategy))
	}
	if *strategy != "" {
		if _, err := core.ByName(*strategy); err != nil {
			return fail(err)
		}
	}

	var src io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		src = f
	}
	data, err := io.ReadAll(src)
	if err != nil {
		return fail(err)
	}
	m, err := ebmf.Parse(string(data))
	if err != nil {
		return fail(err)
	}

	// Remote mode: the solve runs server-side as an async job; the flag
	// surface maps onto wire options and the exit-code contract is shared
	// with the local path.
	if *serverURL != "" {
		wopts := &wire.SolveOptions{
			Trials:         *trials,
			AMO:            *amoMode,
			ConflictBudget: *budget,
			TimeoutMS:      timeout.Milliseconds(),
			Heuristic:      *heuristic,
		}
		if *strategy != "" {
			wopts.PortfolioStrategies = []string{*strategy}
		}
		return runRemote(*serverURL, *apiKey, *degrade, *callback, m, wopts, *jsonOut, *quiet)
	}

	opts := ebmf.DefaultOptions()
	opts.Packing.Trials = *trials
	opts.ConflictBudget = *budget
	opts.TimeBudget = *timeout
	opts.FoolingBudget = *fooling
	opts.SkipSAT = *heuristic
	amo, err := encode.ParseAMO(*amoMode)
	if err != nil {
		return fail(err)
	}
	opts.AMO = amo
	opts.DisableInprocessing = *noInprocess
	opts.Strategy = *strategy

	// Tracing uses the context-carrying solve entry point; without the flags
	// the plain path runs untouched (no tracer, no context plumbing).
	var res *ebmf.Result
	if *trace || *traceJSON != "" {
		tracer := obs.New(obs.Config{SampleEvery: 1})
		ctx, root := tracer.StartTrace(context.Background(), "solve", nil)
		res, err = ebmf.SolveContext(ctx, m, opts)
		td := root.Finish()
		if err != nil {
			return fail(err)
		}
		if err := emitTrace(td, *trace, *traceJSON); err != nil {
			return fail(err)
		}
	} else {
		res, err = ebmf.Solve(m, opts)
		if err != nil {
			return fail(err)
		}
	}

	switch {
	case *jsonOut:
		fp := bitmat.ComputeFingerprint(m)
		hash := ""
		if fp.Exact {
			hash = fp.Hash
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(wire.FromResult(res, hash)); err != nil {
			return fail(err)
		}
	case *quiet:
		fmt.Println(res.Depth)
	default:
		printHuman(m, res, *factors)
	}

	if *schedule || *schedJSON != "" {
		if err := emitSchedule(m, res, *schedule && !*jsonOut && !*quiet, *schedJSON); err != nil {
			return fail(err)
		}
	}
	if !res.Optimal {
		return exitNonOptimal
	}
	return exitOptimal
}

func printHuman(m *ebmf.Matrix, res *ebmf.Result, factors bool) {
	fmt.Printf("matrix: %d×%d, %d ones (occupancy %.1f%%)\n",
		m.Rows(), m.Cols(), m.Ones(), 100*m.Occupancy())
	fmt.Printf("depth:  %d rectangles", res.Depth)
	if res.Optimal {
		fmt.Printf("  (optimal, certificate: %s)", res.Certificate)
	} else {
		fmt.Printf("  (upper bound; lower bound %d%s)", lowerBound(res), timedOut(res))
	}
	fmt.Println()
	fmt.Printf("bounds: rank=%d fooling=%d heuristic=%d\n",
		res.RankLB, res.FoolingLB, res.HeuristicDepth)
	fmt.Printf("effort: pack=%v sat=%v (%d calls, %d conflicts)\n",
		res.PackTime.Round(time.Microsecond), res.SATTime.Round(time.Microsecond),
		res.SATCalls, res.Conflicts)
	fmt.Print(res.Partition)

	if factors {
		h, w := res.Partition.Factors()
		fmt.Printf("H (%d×%d):\n%s\nW (%d×%d):\n%s\n",
			h.Rows(), h.Cols(), h, w.Rows(), w.Cols(), w)
	}
}

// emitSchedule verifies and optionally prints/writes the AOD schedule.
func emitSchedule(m *ebmf.Matrix, res *ebmf.Result, print bool, jsonPath string) error {
	sched := ebmf.CompileSchedule(res.Partition)
	arr := ebmf.NewArray(m.Rows(), m.Cols())
	if err := sched.Verify(arr); err != nil {
		return fmt.Errorf("schedule verification failed: %w", err)
	}
	if print {
		st := sched.ComputeStats()
		fmt.Printf("schedule: depth=%d tones=%d maxTones=%d reconfig=%d (verified)\n",
			st.Depth, st.TotalTones, st.MaxTones, st.ReconfigCost)
		fmt.Print(sched.Render(arr))
	}
	if jsonPath != "" {
		var out io.Writer = os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := sched.WriteJSON(out); err != nil {
			return err
		}
	}
	return nil
}

// emitTrace prints the finished span tree (human form to stderr so it never
// mixes with -json/-q stdout) and/or writes the wire JSON form.
func emitTrace(td *obs.TraceData, human bool, jsonPath string) error {
	if td == nil {
		return fmt.Errorf("trace: no trace recorded")
	}
	if human {
		fmt.Fprint(os.Stderr, td.Render())
	}
	if jsonPath != "" {
		var out io.Writer = os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(td.JSON())
	}
	return nil
}

// localOnly and remoteOnly name the flags one mode honours and the other
// cannot: a remote job carries no fooling budget, inprocessing switch,
// trace or local rendering, and a local solve has no server to send a key,
// degrade request or callback to.
var (
	localOnly  = []string{"fooling", "no-inprocess", "factors", "schedule", "schedule-json", "trace", "trace-json"}
	remoteOnly = []string{"api-key", "degrade", "callback"}
)

// checkModeFlags rejects an explicitly set flag that the chosen mode would
// ignore, naming it.
func checkModeFlags(remote bool) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case remote && slices.Contains(localOnly, f.Name):
			err = fmt.Errorf("-%s has no effect with -server", f.Name)
		case !remote && slices.Contains(remoteOnly, f.Name):
			err = fmt.Errorf("-%s requires -server", f.Name)
		}
	})
	return err
}

func lowerBound(res *ebmf.Result) int {
	lb := res.RankLB
	if res.FoolingLB > lb {
		lb = res.FoolingLB
	}
	return lb
}

func timedOut(res *ebmf.Result) string {
	if res.TimedOut {
		return ", budget exhausted"
	}
	return ""
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "ebmf:", err)
	return exitError
}
