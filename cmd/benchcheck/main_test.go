package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// testBounds covers both directions and a tight bound, as BENCHMARK.json
// states them.
var testBounds = []bound{
	{Name: "lat_p50_ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Better: "higher", Bound: 0.25},
	{Name: "proved_ratio", Better: "higher", Bound: 0.02},
}

// ok is a correct result line; an empty name in drop keeps every metric.
func ok(p50, throughput, proved float64, drop string) string {
	var ms []string
	for _, m := range []struct {
		name string
		v    float64
	}{{"lat_p50_ms", p50}, {"throughput_ops_s", throughput}, {"proved_ratio", proved}} {
		if m.name != drop {
			ms = append(ms, fmt.Sprintf(`"%s":{"value":%g,"unit":"u"}`, m.name, m.v))
		}
	}
	return `{"correct":true,"attempted":100,"failed":0,"metrics":{` + strings.Join(ms, ",") + `}}`
}

var parentRun = ok(2, 250, 0.99, "")

// fivePairs pairs five parent runs with the given change runs; a change
// run left empty is a copy of the parent run.
func fivePairs(parent string, change ...string) string {
	var b strings.Builder
	for i := 0; i < 5; i++ {
		c := parent
		if i < len(change) && change[i] != "" {
			c = change[i]
		}
		fmt.Fprintf(&b, "gateway_hits parent %s\ngateway_hits change %s\n", parent, c)
	}
	return b.String()
}

// every is the same change run in all five pairs.
func every(change string) []string { return []string{change, change, change, change, change} }

func TestJudgeDecisionRule(t *testing.T) {
	slow, fast := ok(2.6, 250, 0.99, ""), ok(1.9, 250, 0.99, "")
	for _, c := range []struct {
		name     string
		input    string
		wantPass bool
		wantOut  string
	}{
		{"worse beyond the bound in every pair", fivePairs(parentRun, every(slow)...),
			false, "lat_p50_ms 2.0000 2.6000 1.300 5/5 FAIL"},
		{"worse beyond the bound in 4 of 5 pairs", fivePairs(parentRun, slow, slow, fast, slow, slow),
			true, "lat_p50_ms 2.0000 2.6000 1.300 4/5 unresolved"},
		{"worse inside the bound in every pair", fivePairs(parentRun, every(ok(2.4, 250, 0.99, ""))...),
			true, "lat_p50_ms 2.0000 2.4000 1.200 5/5 ok"},
		{"throughput lower beyond the bound in every pair", fivePairs(parentRun, every(ok(2, 180, 0.99, ""))...),
			false, "throughput_ops_s 250.0000 180.0000 0.720 5/5 FAIL"},
		{"throughput higher in every pair", fivePairs(parentRun, every(ok(2, 400, 0.99, ""))...),
			true, "throughput_ops_s 250.0000 400.0000 1.600 0/5 ok"},
		{"proved_ratio lower beyond its 0.02 bound in every pair", fivePairs(parentRun, every(ok(2, 250, 0.96, ""))...),
			false, "proved_ratio 0.9900 0.9600 0.970 5/5 FAIL"},
		{"proved_ratio lower inside its bound in every pair", fivePairs(parentRun, every(ok(2, 250, 0.98, ""))...),
			true, "proved_ratio 0.9900 0.9800 0.990 5/5 ok"},
		{"a change run not correct", fivePairs(parentRun, "", "", `{"correct":false,"attempted":100,"failed":3,"metrics":{}}`),
			false, "FAIL pair 3: the change run is not correct (3 failed ops)"},
		{"a change run that printed no result", fivePairs(parentRun, "", "loadbench: gateway_hits: set-up: connection refused"),
			false, "FAIL pair 2: the change run is not correct"},
		{"a change run with more failed ops", fivePairs(parentRun, "", "", "", "",
			`{"correct":true,"attempted":100,"failed":1,"metrics":{"lat_p50_ms":{"value":2},"throughput_ops_s":{"value":250},"proved_ratio":{"value":0.99}}}`),
			false, "FAIL pair 5: the change run failed 1 ops, its parent run 0"},
		{"a parent run not correct",
			strings.Replace(fivePairs(parentRun), "gateway_hits parent "+parentRun, `gateway_hits parent {"correct":false,"failed":2}`, 1),
			true, "unresolved pair 1: the parent run is not correct (2 failed ops); pair left out"},
		{"a metric missing from a change result", fivePairs(parentRun, "", ok(2, 250, 0.99, "proved_ratio")),
			false, "FAIL pair 2: proved_ratio missing from the change result"},
	} {
		t.Run(c.name, func(t *testing.T) {
			workloads, pairs, err := readPairs(strings.NewReader(c.input))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if pass := judge(&out, testBounds, workloads, pairs); pass != c.wantPass {
				t.Errorf("pass = %v, want %v\n%s", pass, c.wantPass, out.String())
			}
			// Column widths are not part of the rule: any run of spaces
			// in wantOut matches any run of blanks.
			want := regexp.MustCompile(strings.Join(strings.Fields(regexp.QuoteMeta(c.wantOut)), `\s+`))
			if !want.MatchString(out.String()) {
				t.Errorf("output lacks %q:\n%s", c.wantOut, out.String())
			}
		})
	}
}

// TestReadPairsRejectsUnpairedInput: the gate must not judge fewer runs
// than were made, or a side it cannot name.
func TestReadPairsRejectsUnpairedInput(t *testing.T) {
	for _, input := range []string{
		"",
		"cold_jobs parent {}\ncold_jobs change {}\ncold_jobs parent {}\n",
		"cold_jobs base {}\n",
	} {
		if _, _, err := readPairs(strings.NewReader(input)); err == nil {
			t.Errorf("%q: accepted", input)
		}
	}
}

// TestReadBoundsReadsTheBenchmark reads the repository's BENCHMARK.json,
// the file the gate applies.
func TestReadBoundsReadsTheBenchmark(t *testing.T) {
	bounds, err := readBounds("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bounds {
		if b.Name == "lat_p99_ms" && b.Better == "lower" && b.Bound > 0 {
			return
		}
	}
	t.Errorf("no lower-is-better lat_p99_ms bound in %+v", bounds)
}
