// Command loadbench is the repository's end-to-end benchmark. It drives the
// unchanged ebmfd and ebmfgw binaries as child processes from one
// load-generator process over one keep-alive connection in a closed loop,
// checks every answer, and prints each metric with its unit.
// With -trace 1 it also replays the workload's op sequence in-process
// through each layer's public functions, recording a span per call, and
// prints the per-layer metrics instead of the end-to-end ones.
//
// Usage (from the repository root, after building the daemons):
//
//	loadbench -workload gateway_hits -seed 1 -seconds 10 -trace 0 -bin DIR -work DIR
//
// loadbench/run.sh builds everything and passes -bin and -work. The last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names
// and units (TestBenchmarkJSONMatches pins that).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p99_ms", "ms", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"proved_ratio", "ratio", "higher"},
	{"accept_p50_ms", "ms", "lower"},
}

func main() {
	wl := flag.String("workload", "", "workload name: cold_jobs or gateway_hits")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "sizes the timed phase: ops = the workload's ops/s × seconds")
	trace := flag.Int("trace", 0, "1 = also run the traced in-process replay and print per-layer metrics")
	bin := flag.String("bin", "", "directory holding the ebmfd and ebmfgw binaries")
	work := flag.String("work", "", "working directory for daemon logs, stores and spans")
	flag.Parse()

	w := findWorkload(*wl)
	if w == nil || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "loadbench: need -workload (cold_jobs|gateway_hits), -bin, -work, -seconds ≥ 1, -trace 0|1")
		os.Exit(2)
	}
	e := &env{bin: *bin, seed: *seed, seconds: *seconds,
		work: filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, *seed))}
	res, err := runWorkload(w, e, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is one invocation's output.
type result struct {
	workload   string
	out        *runOut
	traced     bool
	layers     map[string]float64 // per-layer metrics (traced runs)
	traceNotes []string
}

func runWorkload(w *workload, e *env, traced bool) (*result, error) {
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	out, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r := &result{workload: w.name, out: out, traced: traced}
	if traced {
		tr, err := traceReplay(w.name, e, out)
		if err != nil {
			return nil, fmt.Errorf("%s traced replay: %w", w.name, err)
		}
		r.layers = tr.metrics
		r.traceNotes = tr.notes
		if len(tr.mismatches) > 0 {
			out.failures = append(out.failures, tr.mismatches...)
		}
	}
	return r, nil
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) line() resultLine {
	o := r.out
	l := resultLine{
		Correct:   o.failed == 0 && len(o.failures) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if r.traced {
		for _, d := range perLayer {
			l.Metrics[d.name] = jsonMetric{finite(r.layers[d.name]), d.unit}
		}
	} else {
		for _, d := range endToEnd {
			l.Metrics[d.name] = jsonMetric{finite(o.e2e[d.name]), d.unit}
		}
	}
	return l
}

// finite maps +Inf (the latency of a failed op) to the largest float, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func (r *result) print(f *os.File) {
	o := r.out
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d ops attempted, %d failed; rates, p50s and rss_peak_mb are medians over %d rounds; p99 from %d samples, %d beyond it\n",
		r.workload, o.attempted, o.failed, o.rounds, o.p99Samples, o.p99Beyond)
	for _, msg := range o.failures {
		fmt.Fprintf(&b, "  failure: %s\n", msg)
	}
	fmt.Fprintf(&b, "host (not gated): steal_share=%.4f over the timed phase, load1=%.2f at start, probe_ms=%.2f before / %.2f after\n",
		o.steal, o.load1, o.probe[0], o.probe[1])
	det, _ := json.Marshal(o.det)
	fmt.Fprintf(&b, "determinism: %s\n", det)
	fmt.Fprintf(&b, "properties: %s\n", sortedKV(o.props))
	b.WriteString("families (share of ops / share of op time / p50 ms):")
	for _, f := range o.families {
		fmt.Fprintf(&b, " %s %.3f/%.3f/%.3f", f.name, f.ops, f.time, f.p50)
	}
	b.WriteByte('\n')
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "  %-18s %14.4f %s\n", d.name, o.e2e[d.name], d.unit)
	}
	if r.traced {
		for _, n := range r.traceNotes {
			fmt.Fprintf(&b, "trace: %s\n", n)
		}
		for _, d := range perLayer {
			fmt.Fprintf(&b, "  %-30s %14.4f %s\n", d.name, r.layers[d.name], d.unit)
		}
	}
	line, _ := json.Marshal(r.line())
	b.Write(line)
	b.WriteByte('\n')
	f.WriteString(b.String())
}

func sortedKV(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4f", k, m[k])
	}
	return strings.Join(parts, " ")
}
