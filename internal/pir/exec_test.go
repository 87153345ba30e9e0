package pir

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"embellish/internal/scanclock"
)

// multiBatch builds k queries over one key with distinct targets.
func multiBatch(t testing.TB, k *ClientKey, label string, nCols, count int) []*Query {
	t.Helper()
	qs := make([]*Query, count)
	for i := range qs {
		q, err := k.NewQuery(newDetRand(fmt.Sprintf("%s-%d", label, i)), nCols, i%nCols)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// TestExecutorValidation: batch-shape and column preconditions are
// errors, not wrong answers.
func TestExecutorValidation(t *testing.T) {
	k := testKey(t)
	cols := churnColumns(t, 11, 4, 2)
	qs := multiBatch(t, k, "val", 4, 2)
	run := func(cols [][]byte, colBytes int, qs []*Query) error {
		_, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, qs, Exec{})
		return err
	}

	if err := run(cols, 2, nil); err != errEmptyBatch {
		t.Errorf("empty batch: got %v", err)
	}
	big1 := make([]*Query, MaxMulti+1)
	for i := range big1 {
		big1[i] = qs[0]
	}
	if err := run(cols, 2, big1); err != errBatchSize {
		t.Errorf("oversize batch: got %v", err)
	}
	k2, err := GenerateKey(newDetRand("val-other-key"), 64)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := k2.NewQuery(newDetRand("val-other"), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cols, 2, []*Query{qs[0], q2}); err != errBatchModulus {
		t.Errorf("modulus mismatch: got %v", err)
	}
	narrow, err := k.NewQuery(newDetRand("val-narrow"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cols, 2, []*Query{qs[0], narrow}); err != errBatchWidth {
		t.Errorf("width mismatch: got %v", err)
	}
	if err := run(cols[:3], 2, qs); err != errQueryWidth {
		t.Errorf("column mismatch: got %v", err)
	}
	if err := run(cols, 0, qs); err != errColumnSize {
		t.Errorf("zero colBytes: got %v", err)
	}
	if err := run(cols, 4, qs); err == nil {
		t.Error("short column accepted")
	}
}

// TestExecutorStatsPinned pins the batch accounting arithmetic: with a
// pinned window and one worker, each query's TableMuls must be exactly
//
//	2·width (Montgomery conversions + the product C of the values)
//	+ Σ_groups (2^g − 2) (complement table build)
//	+ rows (gamma out-conversions, each the product with C)
//
// and ModMuls must exceed TableMuls by exactly the scan cost
// (groups−1)·rows — at every batch width, a batch of one included.
// Window 1 degenerates to one multiplication per column per row past
// the first, the oracle's pattern; a wide window must at least halve
// that work on a block-shaped store.
func TestExecutorStatsPinned(t *testing.T) {
	k := testKey(t)
	const nCols, colBytes, window = 11, 4, 3
	rows := colBytes * 8
	cols := churnColumns(t, 13, nCols, colBytes)

	tableBuild := 0
	groups := (nCols + window - 1) / window
	for gi := 0; gi < groups; gi++ {
		g := window
		if (gi+1)*window > nCols {
			g = nCols - gi*window
		}
		tableBuild += (1 << g) - 2
	}
	wantTable := 2*nCols + tableBuild + rows
	wantTotal := wantTable + (groups-1)*rows

	for _, batch := range []int{1, 3} {
		qs := multiBatch(t, k, "stats", nCols, batch)
		// Two or three workers split the groups. Each partition converts
		// only its own columns and multiplies them into its own product
		// (one product fewer than its columns); the products meet in
		// workers-1 more and leave the form in one: still 2·width in
		// total. Each builds the same tables. The first group of EACH
		// partition skips its scan muls (the accumulator starts as a
		// table entry), so each further worker saves rows scan muls and
		// adds rows recombine muls: same total.
		for _, workers := range []int{1, 2, 3} {
			_, stats, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, qs, Exec{Workers: workers, Window: window})
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range stats {
				if st.TableMuls != wantTable || st.ModMuls != wantTotal {
					t.Errorf("batch %d, %d workers, query %d: stats %+v, want TableMuls %d ModMuls %d",
						batch, workers, i, st, wantTable, wantTotal)
				}
			}
		}
	}

	wide := randomColumns(t, 7, 24, 64) // 512 rows
	q := multiBatch(t, k, "work", len(wide), 1)
	_, seqSt, err := ProcessColumnsCtx(context.Background(), wide, 64, q[0])
	if err != nil {
		t.Fatal(err)
	}
	_, winSt, err := ProcessColumnsMultiExecCtx(context.Background(), wide, 64, q, Exec{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if winSt[0].ModMuls*2 >= seqSt.ModMuls {
		t.Fatalf("window 8 did not halve the work: %d vs sequential %d", winSt[0].ModMuls, seqSt.ModMuls)
	}
}

// TestExecutorSharesTransposition is the guardrail against silently
// losing the batch sharing in a refactor: whatever the batch width k, the
// skeleton walks the store group-major — each column group is transposed
// once and serves the k queries' builds and folds back to back — never
// query-major (k store passes). A scan stopped anywhere in its middle
// third, on the scan clock, must find every query within one group's
// work of every other: a query-major walk would have finished the first
// queries and not begun the last. The uncut scan's gammas must be the
// oracle's, so each fold was handed its group's patterns. Deterministic
// on purpose: what the sharing is worth in wall time is
// BenchmarkExecutorBatch*'s to say.
func TestExecutorSharesTransposition(t *testing.T) {
	const nCols, colBytes, window = 23, 5, 4 // six groups, the last ragged
	rows := colBytes * 8
	cols := randomColumns(t, 31, nCols, colBytes)
	key := testKey(t)
	// One group's multiplications for one query: its table, then a fold
	// of every row.
	perGroup := 1<<window - 2 + rows
	for _, k := range []int{2, 4} {
		qs := multiBatch(t, key, fmt.Sprintf("shares-%d", k), nCols, k)
		mont, err := NewMont(qs[0].N)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([][]*big.Int, k)
		for i, q := range qs {
			vals[i] = q.Values
		}
		// scanTo runs one worker's scan under a clock that crosses the
		// deadline at poll number cut (never, when 0) and reports the
		// polls made.
		scanTo := func(cut int) (*scanPart, int) {
			deadline := time.Now().Add(time.Hour)
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			polls := 0
			restore := scanclock.Set(func() time.Time {
				polls++
				if cut > 0 && polls >= cut {
					return deadline
				}
				return deadline.Add(-time.Minute)
			})
			defer restore()
			p := &scanPart{kern: newScanKernel(mont, k, nCols, rows, window)}
			p.scan(newScanPoll(ctx), cols, vals, colBytes, window, 0, nCols, nil, nil)
			return p, polls
		}
		full, total := scanTo(0)
		if full.err != nil {
			t.Fatal(full.err)
		}
		for i, q := range qs {
			want, _, err := ProcessColumnsCtx(context.Background(), cols, colBytes, q)
			if err != nil {
				t.Fatal(err)
			}
			// C, out of the form, completes each row on its way out.
			kw := mont.Words()
			c := make([]big.Word, kw)
			mont.Mul(c, full.kern.prod[i*kw:(i+1)*kw], mont.one)
			got := make([]byte, len(want.Image))
			full.kern.export(i, 0, c, got, want.Width)
			if !bytes.Equal(got, want.Image) {
				t.Fatalf("batch %d query %d: image differs from the oracle's", k, i)
			}
		}
		loads := 2*nCols - 1 // into the form, and into C past the first
		for cut := total / 3; cut <= 2*total/3; cut++ {
			p, _ := scanTo(cut)
			if p.err == nil {
				t.Fatalf("batch %d: scan cut at poll %d of %d ran to the end", k, cut, total)
			}
			lo, hi := slices.Min(p.muls), slices.Max(p.muls)
			if lo <= loads || hi-lo > perGroup {
				t.Fatalf("batch %d, cut at poll %d of %d: per-query work %v, want every query past its loads (%d) and within %d of the others",
					k, cut, total, p.muls, loads, perGroup)
			}
		}
	}
}

// TestTranspositionMatchesOracle: scans through one Transposition — the
// cold scan that fills it, warm scans that read it, and scans that
// replace it — return the oracle's gammas and exactly the Stats of a scan
// without one, at one, two and three workers. The columns a step must
// take from the cache are zeroed in the bytes it scans, so only the
// cache can give it the oracle's gammas; a step that must take nothing
// from the cache and fill nothing scans all-zero columns and must get
// their gammas.
func TestTranspositionMatchesOracle(t *testing.T) {
	const nCols, colBytes = 29, 6
	cols := randomColumns(t, 43, nCols, colBytes)
	blank := make([][]byte, nCols)
	for j := range blank {
		blank[j] = make([]byte, colBytes)
	}
	key := testKey(t)
	steps := []struct {
		name                 string
		width, window, batch int
		fills                bool   // transposes every group into a new slab
		cached               int    // leading columns read from the cache
		slab                 [2]int // the published width and window after the step
	}{
		{"cold", 20, 4, 2, true, 0, [2]int{20, 4}},
		{"warm", 20, 4, 2, false, 20, [2]int{20, 4}},
		{"warm batch of one", 20, 4, 1, false, 20, [2]int{20, 4}},
		{"prefix on a group edge", 12, 4, 3, false, 12, [2]int{20, 4}},
		{"prefix mid-group", 14, 4, 2, false, 12, [2]int{20, 4}},
		{"another window", 20, 3, 2, false, 0, [2]int{20, 4}},
		{"more columns", 29, 4, 2, true, 0, [2]int{29, 4}},
		{"warm ragged last group", 29, 4, 2, false, 29, [2]int{29, 4}},
		{"same columns, wider window", 29, 5, 2, true, 0, [2]int{29, 5}},
		{"older prefix, narrower window", 20, 4, 2, false, 0, [2]int{29, 5}},
	}
	for _, workers := range []int{1, 2, 3} {
		tr := new(Transposition)
		for _, st := range steps {
			src, want := cols[:st.width], cols[:st.width]
			if !st.fills {
				src = append(slices.Clone(blank[:st.cached]), cols[st.cached:st.width]...)
				if st.cached == 0 {
					src, want = blank[:st.width], blank[:st.width]
				}
			}
			qs := multiBatch(t, key, "tr-"+st.name, st.width, st.batch)
			ex := Exec{Workers: workers, Window: st.window}
			_, plainSt, err := ProcessColumnsMultiExecCtx(context.Background(), src, colBytes, qs, ex)
			if err != nil {
				t.Fatal(err)
			}
			ex.Patterns = tr
			got, gotSt, err := ProcessColumnsMultiExecCtx(context.Background(), src, colBytes, qs, ex)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotSt, plainSt) {
				t.Errorf("%d workers, %s: Stats %v, want %v", workers, st.name, gotSt, plainSt)
			}
			for i, q := range qs {
				ref, _, err := ProcessColumnsCtx(context.Background(), want, colBytes, q)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[i].Image, ref.Image) {
					t.Fatalf("%d workers, %s: query %d differs from the oracle", workers, st.name, i)
				}
			}
			if sl := tr.slab.Load(); sl == nil || [2]int{sl.width, sl.window} != st.slab {
				t.Fatalf("%d workers, after %s: published slab %+v, want width and window %v", workers, st.name, sl, st.slab)
			}
		}
	}
}

// TestCancelledScanPublishesNothing: a cold scan cut at any poll, on the
// scan clock, returns no answers and leaves its Transposition empty;
// the next, uncut scan fills it and returns the oracle's gammas.
func TestCancelledScanPublishesNothing(t *testing.T) {
	const nCols, colBytes, window = 23, 5, 4
	cols := randomColumns(t, 47, nCols, colBytes)
	qs := multiBatch(t, testKey(t), "cut", nCols, 2)
	for _, workers := range []int{1, 2} {
		// scan runs one scan under a clock that crosses the deadline at
		// poll number cut (never, when 0) and reports the polls made.
		scan := func(tr *Transposition, cut int64) ([]*Answer, int64, error) {
			deadline := time.Now().Add(time.Hour)
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			var polls atomic.Int64
			restore := scanclock.Set(func() time.Time {
				if n := polls.Add(1); cut > 0 && n >= cut {
					return deadline
				}
				return deadline.Add(-time.Minute)
			})
			defer restore()
			ans, _, err := ProcessColumnsMultiExecCtx(ctx, cols, colBytes, qs, Exec{Workers: workers, Window: window, Patterns: tr})
			return ans, polls.Load(), err
		}
		_, total, err := scan(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for cut := int64(1); cut <= total; cut++ {
			tr := new(Transposition)
			if ans, _, err := scan(tr, cut); err == nil || ans != nil {
				t.Fatalf("%d workers, cut at poll %d of %d: answers %v, err %v", workers, cut, total, ans != nil, err)
			}
			if tr.slab.Load() != nil {
				t.Fatalf("%d workers, cut at poll %d of %d: a cancelled scan published its slab", workers, cut, total)
			}
			ans, _, err := scan(tr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tr.slab.Load() == nil {
				t.Fatalf("%d workers: the uncut scan published nothing", workers)
			}
			for i, q := range qs {
				ref, _, err := ProcessColumnsCtx(context.Background(), cols, colBytes, q)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ans[i].Image, ref.Image) {
					t.Fatalf("%d workers, after a cut at poll %d: query %d differs from the oracle", workers, cut, i)
				}
			}
		}
	}
}

// refGroupPatterns is the transposition's definition, bit by bit: the
// reference the table-driven groupPatterns16 is held to.
func refGroupPatterns(cols [][]byte, start, end, colBytes int, pats []uint16) {
	clear(pats)
	for k := 0; start+k < end; k++ {
		for r := 0; r < colBytes*8; r++ {
			// MSB-first, the column layout of ProcessColumnsCtx.
			if cols[start+k][r>>3]&(0x80>>(r&7)) != 0 {
				pats[r] |= 1 << k
			}
		}
	}
}

// TestGroupPatternsMatchesReference: every group width, start offsets,
// a ragged last group, column lengths below, at and far above the
// eight-row unit, over zero, all-ones and random bytes. Columns longer
// than colBytes and a stale pattern buffer must not leak in.
func TestGroupPatternsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, colBytes := range []int{1, 7, 64, 1024} {
		const nCols = 37
		cols := make([][]byte, nCols)
		for j := range cols {
			cols[j] = make([]byte, colBytes+j%3) // some columns over-long
			switch j % 5 {
			case 0: // all zero
			case 1:
				for i := range cols[j] {
					cols[j][i] = 0xFF
				}
			default:
				rng.Read(cols[j])
			}
		}
		got, want := make([]uint16, colBytes*8), make([]uint16, colBytes*8)
		for width := 1; width <= 16; width++ {
			for _, start := range []int{0, 3, nCols - width} {
				for i := range got {
					got[i] = 0xBEEF
				}
				groupPatterns16(cols, start, start+width, colBytes, got)
				refGroupPatterns(cols, start, start+width, colBytes, want)
				if !slices.Equal(got, want) {
					t.Fatalf("colBytes %d, columns [%d, %d): patterns differ from the reference", colBytes, start, start+width)
				}
			}
		}
	}
}

// FuzzGroupPatterns holds the transposition to the reference on
// arbitrary bytes and group shapes.
func FuzzGroupPatterns(f *testing.F) {
	f.Add([]byte("the quick brown fox"), uint8(3), uint8(1))
	f.Add([]byte{0xFF, 0, 0x80, 1}, uint8(16), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, width, start uint8) {
		g := 1 + int(width)%16
		colBytes := len(data) / (g + int(start)%3)
		if colBytes == 0 {
			return
		}
		var cols [][]byte
		for ; len(data) >= colBytes; data = data[colBytes:] {
			cols = append(cols, data[:colBytes])
		}
		s := int(start) % 3
		if s+g > len(cols) {
			return
		}
		got, want := make([]uint16, colBytes*8), make([]uint16, colBytes*8)
		groupPatterns16(cols, s, s+g, colBytes, got)
		refGroupPatterns(cols, s, s+g, colBytes, want)
		if !slices.Equal(got, want) {
			t.Fatalf("columns [%d, %d) of %d bytes: patterns differ from the reference", s, s+g, colBytes)
		}
	})
}

// TestAutoWindowMultiBounds: windows stay in [1, MaxBatchWindow], never
// narrow as the column grows, and pass 8 columns for block-shaped
// stores.
func TestAutoWindowMultiBounds(t *testing.T) {
	prev := 0
	for _, rows := range []int{1, 64, 8192, 24576, 1 << 20} {
		w := autoWindowMulti(rows)
		if w < 1 || w > MaxBatchWindow {
			t.Fatalf("autoWindowMulti(%d) = %d out of range", rows, w)
		}
		if w < prev {
			t.Fatalf("window narrowed as the column grew: rows=%d: %d -> %d", rows, prev, w)
		}
		prev = w
	}
	if w := autoWindowMulti(8192); w <= 8 {
		t.Fatalf("block-shaped store picked window %d; expected beyond 8", w)
	}
}

// TestAutoWindowMinimizesCountedProducts ties the window model to the
// counts: at 1,024, 8,192 and 24,576 rows, over 2,520 columns (which
// every window up to 10 divides, and 12 too), the executor pinned at
// each window 1..MaxBatchWindow spends some number of products on a
// query, and the automatic window's must be within 1% of the least.
func TestAutoWindowMinimizesCountedProducts(t *testing.T) {
	const nCols = 2520
	q := multiBatch(t, wordTestKey(t), "auto-window", nCols, 1)
	for _, rows := range []int{1024, 8192, 24576} {
		cols := randomColumns(t, 9, nCols, rows/8)
		muls := func(window int) int {
			_, st, err := ProcessColumnsMultiExecCtx(context.Background(), cols, rows/8, q, Exec{Workers: 2, Window: window})
			if err != nil {
				t.Fatal(err)
			}
			return st[0].ModMuls
		}
		least, at := muls(1), 1
		for w := 2; w <= MaxBatchWindow; w++ {
			if m := muls(w); m < least {
				least, at = m, w
			}
		}
		auto := autoWindowMulti(rows)
		if got := muls(0); got*100 > least*101 {
			t.Errorf("%d rows: the automatic window %d spends %d products, window %d spends %d", rows, auto, got, at, least)
		}
	}
}

// benchmarkKey is the 64-bit key of the micro-benchmarks — the one-word
// kernel both fetch workloads of the repository benchmark run.
func benchmarkKey(b *testing.B) *ClientKey { return sizedKey(b, 64) }

// BenchmarkOracle is the paper's cost model at a small shape (128
// columns × 1024 rows): the baseline the executor's figures divide.
func BenchmarkOracle(b *testing.B) {
	const nCols, colBytes = 128, 128
	cols := randomColumns(b, 1, nCols, colBytes)
	q := multiBatch(b, benchmarkKey(b), "bench-q", nCols, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ProcessColumnsCtx(context.Background(), cols, colBytes, q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkExecutor measures one executor pass, transposing every group,
// at the oracle's shape (small), a block-store-like one (512 columns ×
// 8192 rows) or the repository benchmark's whole block array (6,029 ×
// 8192: what a traced block-array query scans, and a flat fetch does
// not since fetches scan class views).
func benchmarkExecutor(b *testing.B, nCols, colBytes, batch, workers int) {
	cols := randomColumns(b, 2, nCols, colBytes)
	qs := multiBatch(b, benchmarkKey(b), "bench-multi", nCols, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, qs, Exec{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorSmall1(b *testing.B)  { benchmarkExecutor(b, 128, 128, 1, 1) }
func BenchmarkExecutorBatch1(b *testing.B)  { benchmarkExecutor(b, 512, 1024, 1, 1) }
func BenchmarkExecutorBatch4(b *testing.B)  { benchmarkExecutor(b, 512, 1024, 4, 1) }
func BenchmarkExecutorBatch16(b *testing.B) { benchmarkExecutor(b, 512, 1024, 16, 1) }
func BenchmarkExecutorStore1(b *testing.B)  { benchmarkExecutor(b, 6029, 1024, 1, 2) }
func BenchmarkExecutorStore6(b *testing.B)  { benchmarkExecutor(b, 6029, 1024, 6, 2) }

// benchmarkView measures what one fetch-flat frame of the repository
// benchmark scans: two queries over its class-3 view (762 columns of
// 3 KiB) on two workers, through a Transposition, under its 64-bit key.
// Cold passes each get a fresh one — the first scan of a view in a
// snapshot, which transposes and fills it; warm passes share one filled
// before the timer starts, as every served frame after a snapshot's first
// does (BenchmarkExecutorServed).
func benchmarkView(b *testing.B, warm bool) {
	const nCols, colBytes = 762, 3 * 1024
	cols := randomColumns(b, 2, nCols, colBytes)
	qs := multiBatch(b, benchmarkKey(b), "bench-view", nCols, 2)
	ex := Exec{Workers: 2, Patterns: new(Transposition)}
	if _, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, qs, ex); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			ex.Patterns = new(Transposition)
		}
		if _, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, qs, ex); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorViewCold(b *testing.B) { benchmarkView(b, false) }
func BenchmarkExecutorServed(b *testing.B)   { benchmarkView(b, true) }

// TestExecutorAllocationsFlatInHeight: what the executor allocates does
// not grow with the column height — an answer is one image however many
// rows it holds, and no gamma is an object of its own — at the served
// shape's batch and workers, warm, at 512 B and 4 KiB columns.
func TestExecutorAllocationsFlatInHeight(t *testing.T) {
	const nCols = 40
	qs := multiBatch(t, sizedKey(t, 64), "allocs", nCols, 2)
	allocs := func(colBytes int) float64 {
		cols := randomColumns(t, 3, nCols, colBytes)
		ex := Exec{Workers: 2, Patterns: new(Transposition)}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, qs, ex); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, tall := allocs(512), allocs(4096); short != tall {
		t.Fatalf("a scan of 512 B columns allocates %v times, of 4 KiB columns %v", short, tall)
	}
}

// benchmarkGroupPatterns is one transposition pass over a store of the
// repository benchmark's shape (6,029 blocks of 1 KB, ten columns per
// group).
func benchmarkGroupPatterns(b *testing.B, cols [][]byte) {
	const colBytes, window = 1024, 10
	pats := make([]uint16, colBytes*8)
	b.SetBytes(int64(len(cols) * colBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for start := 0; start < len(cols); start += window {
			groupPatterns16(cols, start, min(start+window, len(cols)), colBytes, pats)
		}
	}
}

// Text bytes: what a document store holds.
func BenchmarkGroupPatternsText(b *testing.B) {
	cols := randomColumns(b, 5, 6029, 1024)
	for _, col := range cols {
		for i, c := range col {
			col[i] = "etaoin shrdlu"[c%13]
		}
	}
	benchmarkGroupPatterns(b, cols)
}

// Random bytes: the recursive level-2 image.
func BenchmarkGroupPatternsRandom(b *testing.B) {
	benchmarkGroupPatterns(b, randomColumns(b, 5, 6029, 1024))
}
