package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads: the end-to-end
// metrics with the direction in which each is better and the share of the
// base's median by which it may worsen.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRecords reads a result file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// valuesOf collects one end-to-end metric of one workload over a set's
// untraced runs.
func valuesOf(recs []record, workload, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if mt, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, mt.Value)
		}
	}
	return vs
}

// Verdicts of one workload and metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares a set's values with the base's. The metric regressed
// when its median is worse than the base's by more than bound of the base's
// median. When either set's own spread exceeds the bound the two medians
// cannot be told apart at that resolution: unresolved, not ok.
func verdict(base, set []float64, m boundedMetric) (ratio float64, v string) {
	a, b := median(base), median(set)
	ratio = b / a
	worse := (b - a) / a
	if m.Better == "higher" {
		worse = (a - b) / a
	}
	switch {
	case spread(base) > m.Bound || spread(set) > m.Bound:
		return ratio, verdictUnresolved
	case worse > m.Bound:
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

// compareMain prints one row per workload and end-to-end metric for two
// result files and returns the process's exit code: 1 when any row
// regressed.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "the file the bounds are read from")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bounds BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := readBenchmarkSpec(*bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sets [2][]record
	for i := range sets {
		if sets[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	regressed := false
	fmt.Fprintln(out, "B/A is B's median over A's; iqr is a set's own interquartile distance over its median")
	fmt.Fprintf(out, "%-16s %-18s %-6s %3s %3s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "better", "nA", "nB", "median A", "median B", "B/A", "iqr A", "iqr B", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := valuesOf(sets[0], w.Name, m.Name), valuesOf(sets[1], w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue // the metric does not apply, or the set did not run the workload
			}
			ratio, v := verdict(a, b, m)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(out, "%-16s %-18s %-6s %3d %3d %14.6g %14.6g %8.4f %6.1f%% %6.1f%% %5.1f%%  %s\n",
				w.Name, m.Name, m.Better, len(a), len(b), median(a), median(b), ratio, 100*spread(a), 100*spread(b), 100*m.Bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
