// Command benchcheck is the CI bench gate's judge. It reads the results of
// paired runs of the repository's benchmark on a base tree (the parent) and
// on a change, and applies the end-to-end bounds of BENCHMARK.json, read
// from the current directory. scripts/bench_check.sh runs the pairs and
// feeds it; it takes no flags. Each input line is
//
//	WORKLOAD SIDE RESULT
//
// where SIDE is parent or change and RESULT is the last line the run
// printed: a loadbench result object, or anything else for a run that
// printed none. The n-th parent line of a workload pairs with its n-th
// change line.
//
// For every workload and end-to-end metric it prints the parent and change
// medians, their ratio and the pairs the change lost. It fails (exit 1) when
//   - a change run is not correct, or fails more ops than its paired parent
//     run;
//   - a metric BENCHMARK.json names is missing from a correct result;
//   - the change's median is worse than the parent's by more than the
//     metric's bound, and the change is worse in every pair.
//
// A median worse beyond the bound that some pair does not confirm is
// printed as unresolved, and so is a pair whose parent run failed, which
// is left out of the medians; neither fails the check. Input it cannot
// pair exits 2.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the largest relative worsening allowed
}

// result is a loadbench result line. A line that does not decode is a run
// that printed no result, and counts as not correct.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type pair struct{ parent, change result }

func main() {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	workloads, pairs, err := readPairs(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if !judge(os.Stdout, bounds, workloads, pairs) {
		fmt.Println("benchcheck: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchcheck: PASS")
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, b := range spec.EndToEnd {
		if b.Better != "lower" && b.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, b.Name, b.Better)
		}
	}
	return spec.EndToEnd, nil
}

// readPairs groups the input lines by workload, in first-seen order, and
// pairs each workload's parent and change runs in order.
func readPairs(r io.Reader) ([]string, map[string][]pair, error) {
	runs := map[string]map[string][]result{}
	var workloads []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) < 2 || (fields[1] != "parent" && fields[1] != "change") {
			return nil, nil, fmt.Errorf("line %d: want WORKLOAD parent|change RESULT, got %q", n, line)
		}
		var res result
		if len(fields) == 3 && json.Unmarshal([]byte(fields[2]), &res) != nil {
			res = result{}
		}
		if runs[fields[0]] == nil {
			runs[fields[0]] = map[string][]result{}
			workloads = append(workloads, fields[0])
		}
		runs[fields[0]][fields[1]] = append(runs[fields[0]][fields[1]], res)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(workloads) == 0 {
		return nil, nil, fmt.Errorf("no runs on stdin")
	}
	pairs := map[string][]pair{}
	for _, w := range workloads {
		p, c := runs[w]["parent"], runs[w]["change"]
		if len(p) != len(c) {
			return nil, nil, fmt.Errorf("%s: %d parent runs, %d change runs", w, len(p), len(c))
		}
		for i := range p {
			pairs[w] = append(pairs[w], pair{p[i], c[i]})
		}
	}
	return workloads, pairs, nil
}

// judge prints the comparison and reports whether the change passes.
func judge(w io.Writer, bounds []bound, workloads []string, pairs map[string][]pair) bool {
	pass := true
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s: %d pairs\n", wl, len(pairs[wl]))
		var usable []pair
		for i, p := range pairs[wl] {
			ok := p.parent.Correct && p.change.Correct
			if !p.change.Correct {
				fmt.Fprintf(w, "  FAIL pair %d: the change run is not correct (%d failed ops)\n", i+1, p.change.Failed)
				pass = false
			} else if p.change.Failed > p.parent.Failed {
				fmt.Fprintf(w, "  FAIL pair %d: the change run failed %d ops, its parent run %d\n", i+1, p.change.Failed, p.parent.Failed)
				pass = false
			}
			for _, side := range []struct {
				name string
				res  result
			}{{"parent", p.parent}, {"change", p.change}} {
				for _, b := range bounds {
					if _, found := side.res.Metrics[b.Name]; side.res.Correct && !found {
						fmt.Fprintf(w, "  FAIL pair %d: %s missing from the %s result\n", i+1, b.Name, side.name)
						pass, ok = false, false
					}
				}
			}
			if !p.parent.Correct {
				fmt.Fprintf(w, "  unresolved pair %d: the parent run is not correct (%d failed ops); pair left out\n", i+1, p.parent.Failed)
			}
			if ok {
				usable = append(usable, p)
			}
		}
		if len(usable) == 0 {
			fmt.Fprintln(w, "  unresolved: no pair has two correct, complete runs")
			continue
		}
		fmt.Fprintf(w, "  %-18s %14s %14s %7s %5s  %s\n", "metric", "parent median", "change median", "ratio", "lost", "verdict")
		for _, b := range bounds {
			parent := make([]float64, len(usable))
			change := make([]float64, len(usable))
			lost := 0
			for i, p := range usable {
				parent[i], change[i] = p.parent.Metrics[b.Name].Value, p.change.Metrics[b.Name].Value
				if worse(b, change[i], parent[i]) {
					lost++
				}
			}
			pm, cm := median(parent), median(change)
			verdict := "ok"
			if beyond(b, cm, pm) {
				verdict = fmt.Sprintf("unresolved: worse beyond the %g bound, but not in every pair", b.Bound)
				if lost == len(usable) {
					verdict = fmt.Sprintf("FAIL: worse beyond the %g bound, and in every pair", b.Bound)
					pass = false
				}
			}
			fmt.Fprintf(w, "  %-18s %14.4f %14.4f %7.3f %2d/%-2d  %s\n", b.Name, pm, cm, cm/pm, lost, len(usable), verdict)
		}
	}
	return pass
}

// worse reports whether change reads worse than parent on b.
func worse(b bound, change, parent float64) bool {
	if b.Better == "higher" {
		return change < parent
	}
	return change > parent
}

// beyond reports whether change is worse than parent by more than b's
// bound, relative to parent.
func beyond(b bound, change, parent float64) bool {
	if b.Better == "higher" {
		return change < parent*(1-b.Bound)
	}
	return change > parent*(1+b.Bound)
}

// median sorts xs and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
