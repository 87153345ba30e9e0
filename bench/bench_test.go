package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(m.Run())
}

func testConfig(workload string, trace bool) runConfig {
	return runConfig{
		spec: wTest, workload: workload, seed: 1,
		window: 500 * time.Millisecond, warm: 100 * time.Millisecond,
		setupRepeats: 1, trace: trace,
	}
}

func declared(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readBenchmarkSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsEmitDeclaredMetrics runs all four workloads on the small
// world with the correctness checks on, and holds each run's metrics
// against BENCHMARK.json: every end-to-end metric, with its unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec := declared(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, the harness runs %q", i, w.Name, workloads[i])
		}
		t.Run(w.Name, func(t *testing.T) {
			rec, err := run(testConfig(w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			if rec.World.Segments != 1+wTest.AddBatches || rec.World.LiveDocs != wTest.docs()-wTest.Deletes {
				t.Errorf("world shape %+v: want %d segments and %d live documents", rec.World, 1+wTest.AddBatches, wTest.docs()-wTest.Deletes)
			}
			if len(rec.Metrics) != len(spec.EndToEnd) {
				t.Errorf("the run emitted %d metrics, BENCHMARK.json declares %d end-to-end ones", len(rec.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("metric %s is declared but was not emitted", m.Name)
				} else if got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("metric %s = %v %s, want a positive value in %s", m.Name, got.Value, got.Unit, m.Unit)
				}
			}
		})
	}
}

// TestTracedRunEmitsDeclaredMetrics does the same for the traced run and the
// per-layer metrics, and checks the span dump.
func TestTracedRunEmitsDeclaredMetrics(t *testing.T) {
	spec := declared(t)
	cfg := testConfig(searchSession, true)
	cfg.traceOut = filepath.Join(t.TempDir(), "spans.json")
	rec, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
	}
	if len(rec.Metrics) != len(spec.PerLayer) {
		t.Errorf("the traced run emitted %d metrics, BENCHMARK.json declares %d per-layer ones", len(rec.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		got, ok := rec.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s is declared but was not emitted", m.Name)
		} else if got.Unit != m.Unit || math.IsNaN(got.Value) {
			t.Errorf("metric %s = %v %s, want a number in %s", m.Name, got.Value, got.Unit, m.Unit)
		}
	}
	// The workloads isolate their layers.
	if share := rec.Metrics["core.decode_share"].Value; share < 0.8 {
		t.Errorf("core.decode_share = %.3f: decoding should dominate a search session", share)
	}
	if rec.Metrics["net.errors"].Value != 0 || rec.Metrics["net.shed"].Value != 0 {
		t.Errorf("the server refused or failed requests: %v errors, %v shed", rec.Metrics["net.errors"].Value, rec.Metrics["net.shed"].Value)
	}

	raw, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		span
		Self time.Duration `json:"self_ns"`
	}
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
		if s.Self < 0 || s.Self > s.duration() {
			t.Errorf("span %d %s: self time %v outside its duration %v", s.ID, s.Name, s.Self, s.duration())
		}
		if strings.HasPrefix(s.Name, "op."+rankServe) && s.Parent != -1 {
			t.Errorf("span %d %s has a parent", s.ID, s.Name)
		}
	}
	for _, name := range []string{"core.embellish", "core.process", "core.decode", "core.rank", "retrieve.fetch",
		"pir.querygen", "pir.scan", "pir.decode", "pir.rec_querygen", "pir.rec_scan", "pir.rec_decode"} {
		if byName[name] == 0 {
			t.Errorf("no span named %s", name)
		}
	}
}

// TestBenchmarkFileNames holds BENCHMARK.json's names and units to the
// character sets its consumers accept.
func TestBenchmarkFileNames(t *testing.T) {
	spec := declared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name, "")
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
}

func TestPercentileRule(t *testing.T) {
	values := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // descending: percentile must sort
		}
		return vs
	}
	if _, ok := percentile(values(99), 0.90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must not be reported")
	}
	if v, ok := percentile(values(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond it", v, ok)
	}
	if _, ok := percentile(values(1000), 0.999); ok {
		t.Error("p99.9 of 1000 samples has one sample beyond it and must not be reported")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
	} {
		q1, q2, q3 := quartiles(tc.values)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.values, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestSpreadOver: an op counts in each slice by the share of it that ran
// there, and only by the share that ran inside the window.
func TestSpreadOver(t *testing.T) {
	slices := make([]float64, 4)
	window := 4 * time.Second
	spreadOver(slices, window, 500*time.Millisecond, 250*time.Millisecond) // inside slice 0
	spreadOver(slices, window, 500*time.Millisecond, 2*time.Second)        // a quarter, a half, a quarter
	spreadOver(slices, window, 3500*time.Millisecond, time.Second)         // half of it runs past the window
	want := []float64{1.25, 0.5, 0.25, 0.5}
	for i := range want {
		if math.Abs(slices[i]-want[i]) > 1e-9 {
			t.Fatalf("slices %v, want %v", slices, want)
		}
	}
}

// TestCalibratorScalesToReferenceSpeed: a duration is scaled by the kernel's
// median over the samples taken around it.
func TestCalibratorScalesToReferenceSpeed(t *testing.T) {
	t0 := time.Now()
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	c := &calibrator{
		at: []time.Time{at(0), at(0.2), at(0.4), at(5), at(5.2)},
		ms: []float64{refKernelMs, refKernelMs, refKernelMs, 2 * refKernelMs, 2 * refKernelMs},
	}
	for _, tc := range []struct {
		name     string
		from, to float64
		want     float64 // the kernel's time the interval is scaled by
	}{
		{"samples inside and within the margin", 0.1, 0.3, refKernelMs},
		{"a slow phase", 5.05, 5.1, 2 * refKernelMs},
		{"an interval spanning both phases takes the median of all it covers", 0, 5.2, refKernelMs},
		{"no sample near: the whole run's median", 8, 9, refKernelMs},
	} {
		if got := c.kernelMs(at(tc.from), at(tc.to)); got != tc.want {
			t.Errorf("%s: kernel time %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := c.atRef(time.Second, at(5.05), at(5.1)); got != 500*time.Millisecond {
		t.Errorf("one second measured at half speed = %v at reference speed, want 500ms", got)
	}

	var live calibrator
	live.spend(0)
	live.sample(2)
	if len(live.ms) != 3 || len(live.at) != 3 || !(live.ms[0] > 0) || live.at[2].Before(live.at[1]) {
		t.Errorf("three timed kernels left %v at %v", live.ms, live.at)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: the union counts once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 4, Parent: 1, Name: "a.inner", Start: 15, End: 20},
	}
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}

	var off *tracer
	off.end(off.start("ignored", -1, 0)) // a nil tracer records nothing and does not panic
	tr := newTracer()
	root := tr.start("root", -1, 7)
	tr.end(tr.start("child", root, 7))
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 || len(tr.named("child")) != 1 {
		t.Errorf("recorded spans %+v", tr.spans)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := boundedMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name      string
		base, set []float64
		m         boundedMetric
		want      string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"slower within the bound", steady, []float64{108, 109, 107, 108, 108}, lower, verdictOK},
		{"slower beyond the bound", steady, []float64{120, 121, 119, 120, 120}, lower, verdictRegressed},
		{"faster is never a regression", steady, []float64{50, 51, 49, 50, 50}, lower, verdictOK},
		{"higher is better: a drop regresses", steady, []float64{80, 81, 79, 80, 80}, higher, verdictRegressed},
		{"higher is better: a rise is ok", steady, []float64{120, 121, 119, 120, 120}, higher, verdictOK},
		{"a set noisier than the bound resolves nothing", steady, []float64{70, 100, 130, 160, 100}, lower, verdictUnresolved},
		{"so does a noisy base", []float64{70, 100, 130, 160, 100}, steady, lower, verdictUnresolved},
		{"single runs have no spread", []float64{100}, []float64{105}, lower, verdictOK},
	} {
		if _, got := verdict(tc.base, tc.set, tc.m); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles drives compare through result files, as a later change's
// author would: a set against itself is ok, against a slowed copy regressed.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		path := filepath.Join(dir, name)
		for _, p50 := range []float64{100, 101, 99} {
			rec := &record{Workload: searchSession, Metrics: metrics{}}
			rec.Metrics.set("op_p50_ms", p50*scale, "ms", 50)
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		traced := &record{Workload: searchSession, Trace: true, Metrics: metrics{}}
		traced.Metrics.set("op_p50_ms", 1e9, "ms", 1) // traced runs are not compared
		if err := appendRecord(path, traced); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow := write("base.jsonl", 1), write("slow.jsonl", 1.5)
	bounds := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if code := compareMain([]string{"-bounds", bounds, base, base}, &out); code != 0 || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("a set against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-bounds", bounds, base, slow}, &out); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a set against a copy half again as slow: exit %d\n%s", code, out.String())
	}
	if strings.Count(out.String(), searchSession) != 1 {
		t.Errorf("want one row, for the one metric the files hold:\n%s", out.String())
	}
}
