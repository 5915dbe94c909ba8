package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches pins BENCHMARK.json to the names, units and
// directions the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i, d := range got {
			if w := want[i]; d.name != w.Name || d.unit != w.Unit || d.better != w.Better {
				t.Errorf("%s %d: benchmark %+v, BENCHMARK.json %+v", kind, i, d, w)
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, spec.PerLayer)
}

// reached lists, per workload, per-layer metrics that must be non-zero: the
// work counts of every layer the workload's ops reach.
var reached = map[string][]string{
	"cold_jobs": {"server.handler_us", "server.job_accept_us", "server.mallocs_per_op", "wire.decode_us",
		"wire.bytes_per_op", "bitmat.fingerprint_us", "solvecache.lift_us", "core.solve_ms", "core.blocks",
		"rowpack.pack_ms", "fooling.exact_ms", "store.put_us", "store.journal_append_us", "store.appends",
		"store.journal_appends"},
	"gateway_hits": {"server.handler_us", "cluster.handler_local_us", "cluster.handler_proxy_us",
		"cluster.local_hit_ratio", "cluster.mallocs_per_op", "bitmat.fingerprint_us", "solvecache.hit_us"},
}

// unreached lists metric prefixes that must read 0 on a workload: layers its
// timed ops never reach.
var unreached = map[string][]string{
	"cold_jobs":    {"cluster.", "solvecache.hit_us", "solvecache.hit_self_us"},
	"gateway_hits": {"core.", "rowpack.", "fooling.", "encode.", "sat.", "store.", "server.job_"},
}

// TestSelfTest runs every workload twice at a tiny op count, the second
// time with the traced replay: no op may fail, every metric prints with its
// unit, reached layers report work, the spans parse, and the determinism
// counts of the two runs of one seed agree exactly.
func TestSelfTest(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-C", "..", "-o", bin+"/", "./cmd/ebmfd", "./cmd/ebmfgw")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var dets []detCounts
			for trace := 0; trace < 2; trace++ {
				// The gateway's base set must outgrow its 512-entry local LRU
				// for some ops to be proxied (cold_jobs has no base set).
				e := &env{bin: bin, work: filepath.Join(t.TempDir(), "run"), seed: 7, ops: 120, base: 600, seconds: 1}
				r, err := runWorkload(&w, e, trace == 1)
				if err != nil {
					t.Fatal(err)
				}
				line := r.line()
				if !line.Correct || line.Failed != 0 || line.Attempted < e.ops {
					t.Fatalf("trace=%d: correct=%v attempted=%d failed=%d %v", trace, line.Correct, line.Attempted, line.Failed, r.out.failures)
				}
				want := endToEnd
				if trace == 1 {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("trace=%d: %d metrics printed, want %d", trace, len(line.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace=%d: metric %s missing or unit %q != %q", trace, d.name, m.Unit, d.unit)
					}
				}
				for _, d := range endToEnd {
					if r.out.e2e[d.name] <= 0 {
						t.Errorf("end-to-end %s = %v, want > 0", d.name, r.out.e2e[d.name])
					}
				}
				if trace == 1 {
					for _, name := range reached[w.name] {
						if r.layers[name] == 0 {
							t.Errorf("per-layer %s = 0 on %s", name, w.name)
						}
					}
					for _, d := range perLayer {
						for _, prefix := range unreached[w.name] {
							if strings.HasPrefix(d.name, prefix) && r.layers[d.name] != 0 {
								t.Errorf("per-layer %s = %v on %s, whose ops never reach it", d.name, r.layers[d.name], w.name)
							}
						}
					}
					spans, err := parseSpans(filepath.Join(e.work, traceFileName))
					if err != nil || len(spans) == 0 {
						t.Errorf("span output: %d spans, %v", len(spans), err)
					}
				}
				dets = append(dets, r.out.det)
			}
			if dets[0] != dets[1] {
				t.Errorf("determinism counts differ between two runs of one seed: %+v vs %+v", dets[0], dets[1])
			}
		})
	}
}

// parseSpans reads a span file back.
func parseSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []span
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
