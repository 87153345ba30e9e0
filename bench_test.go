package embellish

// One benchmark per figure of the paper's evaluation (Section 5). Each
// benchmark regenerates the corresponding figure's series through
// internal/eval and prints it once, so `go test -bench=.` both times the
// pipeline and emits the reproduced tables. The benchmarks run at a
// laptop-scale configuration; cmd/embellish-eval exposes flags to rerun
// any figure at larger scales (up to the paper's 82,115-synset /
// 172,961-document setting).

import (
	"sync"
	"testing"

	"embellish/internal/bucket"
	"embellish/internal/core"
	"embellish/internal/eval"
	"embellish/internal/wordnet"
)

var (
	benchOnce sync.Once
	benchEnv  *eval.Env
	benchErr  error

	printMu    sync.Mutex
	printedFig = map[string]bool{}
)

// benchConfig is the shared benchmark environment scale. PIR server work
// grows with inverted-list length × bucket size, so the corpus is kept
// moderate.
func benchConfig() eval.Config {
	cfg := eval.DefaultConfig()
	cfg.Synsets = 2000
	cfg.NumDocs = 220
	cfg.MeanDocLen = 70
	cfg.KeyBits = 256
	cfg.Trials = 12
	cfg.QuerySize = 12
	return cfg
}

func benchEnvGet(b *testing.B) *eval.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = eval.NewEnv(benchConfig())
	})
	if benchErr != nil {
		b.Fatalf("environment: %v", benchErr)
	}
	return benchEnv
}

// emit prints a rendered figure once per process, keyed by figure ID.
func emit(b *testing.B, figs ...eval.Figure) {
	b.Helper()
	printMu.Lock()
	defer printMu.Unlock()
	for _, f := range figs {
		if printedFig[f.ID] {
			continue
		}
		printedFig[f.ID] = true
		b.Log("\n" + f.Render())
	}
}

func BenchmarkFigure2(b *testing.B) {
	e := benchEnvGet(b)
	var f eval.Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = e.Figure2()
	}
	emit(b, f)
}

func BenchmarkFigure5a(b *testing.B) {
	e := benchEnvGet(b)
	var f eval.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = e.Figure5a(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, f)
}

func BenchmarkFigure5b(b *testing.B) {
	e := benchEnvGet(b)
	var f eval.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = e.Figure5b(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, f)
}

func BenchmarkFigure6a(b *testing.B) {
	e := benchEnvGet(b)
	var f eval.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = e.Figure6a(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, f)
}

func BenchmarkFigure6b(b *testing.B) {
	e := benchEnvGet(b)
	var f eval.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = e.Figure6b(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, f)
}

// benchBktSzSweep is a reduced Figure 7 x-axis so a bench iteration
// stays in seconds; cmd/embellish-eval runs the full 2..24 sweep.
var benchBktSzSweep = []int{2, 8, 16}

func BenchmarkFigure7(b *testing.B) {
	e := benchEnvGet(b)
	var figs []eval.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err = e.Figure7(benchBktSzSweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, figs...)
}

// benchQuerySizeSweep is a reduced Figure 8 x-axis (full: 4..40).
var benchQuerySizeSweep = []int{4, 12, 24}

func BenchmarkFigure8(b *testing.B) {
	e := benchEnvGet(b)
	var figs []eval.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err = e.Figure8(benchQuerySizeSweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, figs...)
}

// The remaining benchmarks time the individual building blocks, so
// regressions in any substrate are visible without rerunning a whole
// figure.

func newBenchClient(b *testing.B, e *eval.Env, org *bucket.Organization) *core.Client {
	b.Helper()
	c := core.NewClient(org, e.PRKey, 1)
	c.CryptoRand = e.Rand
	return c
}

func newBenchServer(e *eval.Env, org *bucket.Organization) *core.Server {
	return core.NewServer(e.Index, org, e.DB)
}

// benchGenuine picks n evenly spaced searchable terms, deterministic
// across runs.
func benchGenuine(e *eval.Env, n int) []wordnet.TermID {
	out := make([]wordnet.TermID, 0, n)
	step := len(e.Searchable) / n
	for i := 0; i < n; i++ {
		out = append(out, e.Searchable[i*step])
	}
	return out
}

func BenchmarkEmbellishQuery(b *testing.B) {
	e := benchEnvGet(b)
	org, err := e.Organization(8, 0)
	if err != nil {
		b.Fatal(err)
	}
	client := newBenchClient(b, e, org)
	genuine := benchGenuine(e, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Embellish(genuine); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerProcess(b *testing.B) {
	e := benchEnvGet(b)
	org, err := e.Organization(8, 0)
	if err != nil {
		b.Fatal(err)
	}
	client := newBenchClient(b, e, org)
	server := newBenchServer(e, org)
	genuine := benchGenuine(e, 12)
	q, _, err := client.Embellish(genuine)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := server.Process(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPostFilter(b *testing.B) {
	e := benchEnvGet(b)
	org, err := e.Organization(8, 0)
	if err != nil {
		b.Fatal(err)
	}
	client := newBenchClient(b, e, org)
	server := newBenchServer(e, org)
	q, _, err := client.Embellish(benchGenuine(e, 12))
	if err != nil {
		b.Fatal(err)
	}
	resp, _, err := server.Process(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.PostFilter(resp, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBucketGeneration(b *testing.B) {
	e := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Organization(8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerProcessParallel(b *testing.B) {
	e := benchEnvGet(b)
	org, err := e.Organization(8, 0)
	if err != nil {
		b.Fatal(err)
	}
	client := newBenchClient(b, e, org)
	server := newBenchServer(e, org)
	q, _, err := client.Embellish(benchGenuine(e, 12))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := server.ProcessParallel(q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigureRecall(b *testing.B) {
	e := benchEnvGet(b)
	var f eval.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = e.FigureRecall([]int{1, 2, 4, 8}, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, f)
}
