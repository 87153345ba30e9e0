// Command bench is the repository's benchmark: four closed-loop workloads
// on one pinned world, measured end to end through the root package's
// facade over TCP loopback, and a traced run that attributes the time to
// the layers. See README.md beside this file.
//
//	bench -workload <name>|all [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-trace-out FILE]
//	bench compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// record is one run as a result file keeps it: one JSON object per line.
type record struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Seed       int64      `json:"seed"`
	WindowS    float64    `json:"window_s"`
	World      worldShape `json:"world"`
	Nproc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Commit     string     `json:"commit"`
	// Claim is the gain the run is evidence for. The benchmark's own
	// change claims none.
	Claim     *string `json:"claim"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Info holds what a run measured beside BENCHMARK.json's metrics. It is
	// printed and kept, and compared by nothing.
	Info metrics `json:"info,omitempty"`
	// LatenciesMs are the raw latencies of the measured window's ops, in
	// completion order per client. Kept in the result file only.
	LatenciesMs []float64 `json:"latencies_ms,omitempty"`
}

// runConfig is one run. The command line sets workload, seed, window and
// trace; the rest are fixed for BENCHMARK.json runs and shortened by
// bench_test.go.
type runConfig struct {
	spec         worldSpec
	workload     string
	seed         int64
	window       time.Duration
	warm         time.Duration
	setupRepeats int
	trace        bool
	traceOut     string
}

// The driver's run: five set-ups (setup_s is their median), a 2 s warm-up,
// then the measured window.
const (
	defaultSetupRepeats = 5
	defaultWarm         = 2 * time.Second
	defaultSeconds      = 20
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	workload := flag.String("workload", "", "one of "+fmt.Sprint(workloads)+", or all")
	seed := flag.Int64("seed", 1, "seed of the order of the op inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := flag.String("out", "", "append the run's record to this file, one JSON object per line")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the span dump to this file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchProcs)
	rec, err := run(runConfig{
		spec: w2k, workload: *workload, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)), warm: defaultWarm,
		setupRepeats: defaultSetupRepeats, trace: *trace == 1, traceOut: *traceOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	printRecord(rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

// runAll runs the four workloads in order, each in a process of its own so
// that peak_rss_mb and the set-up are the workload's and not its
// predecessors'.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, w := range workloads {
		cmd := exec.Command(self, append(slices.Clone(args), "-workload", w)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w, err)
			return 1
		}
	}
	return 0
}

// run executes one run and returns its record. An op that fails makes the
// record incorrect; only a failure of the harness itself is an error.
func run(cfg runConfig) (*record, error) {
	rec := &record{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, WindowS: cfg.window.Seconds(),
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Metrics: metrics{}, Info: metrics{},
	}
	var firstError error
	var err error
	if cfg.trace {
		firstError, err = runTraced(cfg, rec)
	} else {
		firstError, err = runEndToEnd(cfg, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	if firstError != nil {
		fmt.Fprintln(os.Stderr, "bench: first failed op:", firstError)
	}
	return rec, nil
}

// setupCalReps is how many times the reference kernel is timed before the
// first set-up and after each one.
const setupCalReps = 5

// runEndToEnd measures the end-to-end metrics of one workload, tracing off:
// one client's closed loop, every duration scaled to reference speed.
func runEndToEnd(cfg runConfig, rec *record) (firstError, err error) {
	cal := &calibrator{}
	cal.sample(1) // untimed in effect: the first call pays for the kernel's own warm-up
	cal.at, cal.ms = cal.at[:0], cal.ms[:0]

	var w *world
	var setups, rawSetups []float64
	cal.sample(setupCalReps)
	for range cfg.setupRepeats {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if w, err = buildWorld(cfg.spec); err != nil {
			return nil, err
		}
		t1 := time.Now()
		cal.sample(setupCalReps)
		d := time.Duration(w.setupSeconds * float64(time.Second))
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, cal.atRef(d, t0, t1).Seconds())
	}
	defer w.close()
	rec.World = w.shape()

	in, err := makeInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	sess, err := newSessions(w, in, cfg.workload, 1)
	if err != nil {
		return nil, err
	}
	defer closeSessions(sess)
	r := closedLoop(sess, cfg.warm, cfg.window, nil, cal, cfg.workload)
	rec.Attempted, rec.Failed = r.attempted, r.failed
	ops := len(r.latencies)
	if ops == 0 {
		return r.firstError, nil
	}

	atRef := make([]time.Duration, ops)
	for i, d := range r.latencies {
		atRef[i] = cal.atRef(d, r.starts[i], r.starts[i].Add(d))
	}
	m := rec.Metrics
	rec.LatenciesMs = msOf(r.latencies)
	p50 := median(msOf(atRef))
	upPerOp, downPerOp := float64(r.up)/float64(ops), float64(r.down)/float64(ops)
	m.set("setup_s", median(setups), "s", len(setups))
	m.set("op_p50_ms", p50, "ms", ops)
	m.set("up_bytes_per_op", upPerOp, "B", ops)
	m.set("down_bytes_per_op", downPerOp, "B", ops)
	m.set("wan_p50_ms", p50+wanMs(upPerOp, downPerOp), "ms", ops)
	m.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	// What the clock read, before scaling, and the machine's speed.
	rec.Info.set("raw_setup_s", median(rawSetups), "s", len(rawSetups))
	rec.Info.set("raw_op_p50_ms", median(rec.LatenciesMs), "ms", ops)
	rec.Info.set("ref_kernel_ms", median(cal.ms), "ms", len(cal.ms))
	// Throughput is not an end-to-end metric: with one client in a closed loop
	// it is the inverse of the latency, less the reference kernel's share of
	// the window.
	rec.Info.set("ops_per_s", r.opsPerS, "1/s", ops)
	return r.firstError, nil
}

// commit is the revision the binary was built from, when the build knew it.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printRecord prints every metric by name with its unit, then, as the last
// line, the one JSON object the benchmark's driver reads.
func printRecord(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v window=%gs world=%s docs=%d segments=%d gomaxprocs=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.WindowS, rec.World.Name, rec.World.LiveDocs, rec.World.Segments, rec.GOMAXPROCS)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]valueUnit{}}
	for _, name := range names {
		mt := rec.Metrics[name]
		fmt.Printf("%-28s %16.6g %-6s n=%d\n", name, mt.Value, mt.Unit, mt.Samples)
		last.Metrics[name] = valueUnit{mt.Value, mt.Unit}
	}
	for name, mt := range rec.Info {
		fmt.Printf("%-28s %16.6g %-6s n=%d (not in BENCHMARK.json)\n", name, mt.Value, mt.Unit, mt.Samples)
	}
	line, err := json.Marshal(last)
	if err != nil { // a NaN metric: the run measured nothing it can report
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
