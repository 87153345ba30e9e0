package eval

import (
	"strings"
	"testing"

	"embellish/internal/privacy"
)

var cachedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if cachedEnv == nil {
		cfg := DefaultConfig()
		cfg.Synsets = 1200
		cfg.NumDocs = 150
		cfg.KeyBits = 192
		cfg.Trials = 6
		cfg.QuerySize = 4
		e, err := NewEnv(cfg)
		if err != nil {
			t.Fatalf("NewEnv: %v", err)
		}
		cachedEnv = e
	}
	return cachedEnv
}

func TestNewEnvErrors(t *testing.T) {
	if _, err := NewEnv(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultConfig()
	cfg.Synsets = 50
	cfg.NumDocs = 2
	if _, err := NewEnv(cfg); err == nil {
		t.Fatal("tiny world with too few searchable terms accepted")
	}
}

func TestFigure2Shape(t *testing.T) {
	e := env(t)
	f := e.Figure2()
	if f.ID != "2" || len(f.Series) != 1 {
		t.Fatalf("malformed figure: %+v", f)
	}
	s := f.Series[0]
	var total, modeCount, modeSpec float64
	for i, y := range s.Y {
		total += y
		if y > modeCount {
			modeCount, modeSpec = y, s.X[i]
		}
	}
	if total != float64(e.DB.NumTerms()) {
		t.Fatalf("histogram sums to %v, lexicon has %d terms", total, e.DB.NumTerms())
	}
	// Figure 2: mode at specificity 7 holding roughly a third of terms.
	if modeSpec != 7 {
		t.Fatalf("histogram mode at specificity %v, want 7", modeSpec)
	}
	if frac := modeCount / total; frac < 0.2 || frac > 0.45 {
		t.Fatalf("mode holds %.0f%% of terms, want roughly a third", frac*100)
	}
}

func TestFigure5aShape(t *testing.T) {
	e := env(t)
	f, err := e.Figure5a([]int{4, 64, 1024})
	if err != nil {
		t.Fatal(err)
	}
	bucket, ok1 := f.SeriesByName("Bucket")
	random, ok2 := f.SeriesByName("Random")
	if !ok1 || !ok2 {
		t.Fatal("missing series")
	}
	// The paper's claim: Bucket under Random at every sweep point.
	for i := range bucket.Y {
		if bucket.Y[i] >= random.Y[i] {
			t.Fatalf("SegSz=2^%v: bucket %.2f not below random %.2f", bucket.X[i], bucket.Y[i], random.Y[i])
		}
	}
	// And the trend: the largest segment is at most the smallest.
	if bucket.Y[len(bucket.Y)-1] > bucket.Y[0] {
		t.Fatalf("specificity difference grew with SegSz: %v", bucket.Y)
	}
}

func TestFigure5bShape(t *testing.T) {
	e := env(t)
	f, err := e.Figure5b([]int{16, 256})
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := f.SeriesByName("Bucket (Closest)")
	bf, _ := f.SeriesByName("Bucket (Farthest)")
	rf, _ := f.SeriesByName("Random (Farthest)")
	for i := range bc.Y {
		if bc.Y[i] > bf.Y[i] {
			t.Fatalf("closest cover %.2f above farthest %.2f", bc.Y[i], bf.Y[i])
		}
		if bf.Y[i] > rf.Y[i] {
			t.Fatalf("bucket farthest %.2f above random farthest %.2f", bf.Y[i], rf.Y[i])
		}
	}
}

func TestFigure6aShape(t *testing.T) {
	e := env(t)
	f, err := e.Figure6a([]int{2, 8, 16}) // small sweep for speed
	if err != nil {
		t.Fatal(err)
	}
	bucket, _ := f.SeriesByName("Bucket")
	random, _ := f.SeriesByName("Random")
	for i := range bucket.Y {
		if bucket.Y[i] >= random.Y[i] {
			t.Fatalf("BktSz=%v: bucket %.2f not below random %.2f", bucket.X[i], bucket.Y[i], random.Y[i])
		}
	}
	// Small buckets start low (the Figure 6a observation).
	if bucket.Y[0] > bucket.Y[len(bucket.Y)-1] {
		t.Fatalf("specificity difference decreased with BktSz: %v", bucket.Y)
	}
}

func TestFigure6bShape(t *testing.T) {
	e := env(t)
	f, err := e.Figure6b([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("want 4 series, got %d", len(f.Series))
	}
	for _, s := range f.Series {
		for i, y := range s.Y {
			if y < 0 {
				t.Fatalf("series %s point %d negative: %v", s.Name, i, y)
			}
		}
	}
}

func TestFigure7Shapes(t *testing.T) {
	e := env(t)
	figs, err := e.Figure7([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("want 4 panels, got %d", len(figs))
	}
	byID := map[string]Figure{}
	for _, f := range figs {
		byID[f.ID] = f
	}
	// Panel (c): PR traffic must be well below PIR traffic at every
	// point (the paper reports an order of magnitude).
	traffic := byID["7c"]
	pr, _ := traffic.SeriesByName("PR")
	pir, _ := traffic.SeriesByName("PIR")
	for i := range pr.Y {
		if pr.Y[i] >= pir.Y[i] {
			t.Fatalf("BktSz=%v: PR traffic %.2fKB not below PIR %.2fKB", pr.X[i], pr.Y[i], pir.Y[i])
		}
	}
	// Panel (a): the schemes' I/O must be within a small factor (the
	// paper reports "virtually the same").
	io := byID["7a"]
	prIO, _ := io.SeriesByName("PR")
	pirIO, _ := io.SeriesByName("PIR")
	for i := range prIO.Y {
		lo, hi := prIO.Y[i], pirIO.Y[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo <= 0 || hi/lo > 3 {
			t.Fatalf("BktSz=%v: I/O gap PR=%.2f PIR=%.2f too wide", prIO.X[i], prIO.Y[i], pirIO.Y[i])
		}
	}
	// Panels (b) and (d): CPU time, with the same calls' wall time beside
	// it; every reading is positive.
	for _, id := range []string{"7b", "7d"} {
		f := byID[id]
		for _, name := range []string{"PIR", "PR", "PIR wall", "PR wall"} {
			s, ok := f.SeriesByName(name)
			if !ok || len(s.Y) != 2 || s.Y[0] <= 0 || s.Y[1] <= 0 {
				t.Fatalf("panel %s: series %q is %v (found %v), want two positive readings", id, name, s.Y, ok)
			}
		}
	}
}

func TestFigure8Shapes(t *testing.T) {
	e := env(t)
	figs, err := e.Figure8([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Figure{}
	for _, f := range figs {
		byID[f.ID] = f
	}
	// PIR traffic grows with query size (one run per genuine term);
	// PR traffic stays below it.
	traffic := byID["8c"]
	pir, _ := traffic.SeriesByName("PIR")
	pr, _ := traffic.SeriesByName("PR")
	if pir.Y[1] <= pir.Y[0] {
		t.Fatalf("PIR traffic did not grow with query size: %v", pir.Y)
	}
	for i := range pr.Y {
		if pr.Y[i] >= pir.Y[i] {
			t.Fatalf("query size %v: PR traffic %.2f not below PIR %.2f", pr.X[i], pr.Y[i], pir.Y[i])
		}
	}
}

func TestRenderContainsData(t *testing.T) {
	e := env(t)
	f := e.Figure2()
	out := f.Render()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "Count") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 5 {
		t.Fatalf("render suspiciously short:\n%s", out)
	}
}

func TestSeriesByNameMissing(t *testing.T) {
	f := Figure{}
	if _, ok := f.SeriesByName("nope"); ok {
		t.Fatal("found a series in an empty figure")
	}
}

func TestFigureRecallShape(t *testing.T) {
	e := env(t)
	f, err := e.FigureRecall([]int{1, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	pr, ok1 := f.SeriesByName("PR")
	canon, ok2 := f.SeriesByName("Canonical")
	if !ok1 || !ok2 {
		t.Fatal("missing series")
	}
	for i := range pr.Y {
		if pr.Y[i] != 1.0 {
			t.Fatalf("PR recall %v, Claim 1 says 1.0", pr.Y[i])
		}
		if canon.Y[i] < 0 || canon.Y[i] > 1 {
			t.Fatalf("canonical recall %v out of [0,1]", canon.Y[i])
		}
	}
	// The baseline must actually lose something somewhere — otherwise
	// the comparison is vacuous.
	lossy := false
	for _, y := range canon.Y {
		if y < 1 {
			lossy = true
		}
	}
	if !lossy {
		t.Fatal("canonical substitution lossless across the sweep; baseline implausible")
	}
}

// TestFigureRiskShape pins the served-privacy bottom line: observed
// risk falls as BktSz (decoy count per genuine term) grows, stays in
// (0, 1], and the semantically coherent Bucket organization reads
// HIGHER risk than the incoherent Random baseline.
func TestFigureRiskShape(t *testing.T) {
	e := env(t)
	f, err := e.FigureRisk([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "risk" || len(f.Series) != 2 {
		t.Fatalf("malformed figure: %+v", f)
	}
	bucketS, ok1 := f.SeriesByName("Bucket")
	randomS, ok2 := f.SeriesByName("Random")
	if !ok1 || !ok2 {
		t.Fatal("figure missing a series")
	}
	for i, y := range bucketS.Y {
		if y <= 0 || y > 1 {
			t.Fatalf("Bucket risk[%d] = %v outside (0, 1]", i, y)
		}
		if i > 0 && y >= bucketS.Y[i-1] {
			t.Fatalf("Bucket risk not decreasing: %v", bucketS.Y)
		}
		if randomS.Y[i] <= 0 || randomS.Y[i] > 1 {
			t.Fatalf("Random risk[%d] = %v outside (0, 1]", i, randomS.Y[i])
		}
		// Coherent buckets should read at least comparably risky to the
		// incoherent Random baseline; at laptop scale the two are close,
		// so assert a loose floor rather than strict ordering.
		if y < randomS.Y[i]*0.5 {
			t.Fatalf("Bucket risk %v far below Random %v at BktSz=%v", y, randomS.Y[i], bucketS.X[i])
		}
	}
	// Widening buckets from 2 to 8 decoys must buy a real risk drop.
	if last, first := bucketS.Y[len(bucketS.Y)-1], bucketS.Y[0]; last > first/2 {
		t.Fatalf("risk fell only %v -> %v across the sweep", first, last)
	}
}

// TestRiskPointMatchesManual recomputes one RiskPoint by hand through
// the auditor to guard the expansion-and-dedup contract the networked
// battery relies on.
func TestRiskPointMatchesManual(t *testing.T) {
	e := env(t)
	org, err := e.Organization(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := privacy.NewAuditor(org, e.DB)
	queries := e.RiskQueries()[:3]
	got, err := RiskPoint(a, queries)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, q := range queries {
		seen := map[int]bool{}
		var buckets []int
		for _, tm := range q {
			b, ok := org.BucketOf(tm)
			if !ok {
				t.Fatal("searchable term outside organization")
			}
			if !seen[b] {
				seen[b] = true
				buckets = append(buckets, b)
			}
		}
		r, err := a.ObservedRisk(buckets)
		if err != nil {
			t.Fatal(err)
		}
		want += r
	}
	want /= float64(len(queries))
	if got != want {
		t.Fatalf("RiskPoint = %v, manual = %v", got, want)
	}
}
