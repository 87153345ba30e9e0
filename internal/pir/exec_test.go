package pir

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
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
//	2·width (Montgomery conversions + squares)
//	+ Σ_groups 2·(2^g − 2) (table build)
//	+ rows (gamma out-conversions)
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
		tableBuild += 2 * ((1 << g) - 2)
	}
	wantTable := 2*nCols + tableBuild + rows
	wantTotal := wantTable + (groups-1)*rows

	for _, batch := range []int{1, 3} {
		qs := multiBatch(t, k, "stats", nCols, batch)
		// Two workers split the groups; each partition converts only
		// its own columns (still 2·width total across workers) and
		// builds the same tables. The first group of EACH partition
		// skips its scan muls (the accumulator starts as a table
		// entry), so two workers save rows scan muls and add rows
		// recombine muls: same total.
		for _, workers := range []int{1, 2} {
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
	perGroup := 2*(1<<window-2) + rows
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
			p.scan(newScanPoll(ctx), cols, vals, colBytes, window, 0, nCols)
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
			got := make([]*big.Int, rows)
			full.kern.export(i, 0, got)
			for r := range got {
				if got[r].Cmp(want.Gammas[r]) != 0 {
					t.Fatalf("batch %d query %d row %d: gamma differs from the oracle's", k, i, r)
				}
			}
		}
		loads := 2 * nCols
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

// refGroupPatterns is the transposition's definition, bit by bit: the
// reference the table-driven groupPatterns16 is held to.
func refGroupPatterns(cols [][]byte, start, end, colBytes int, pats []uint16) {
	clear(pats)
	for k := 0; start+k < end; k++ {
		for r := 0; r < colBytes*8; r++ {
			// MSB-first, matching Matrix.SetColumn's layout.
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

// TestAutoWindowMultiBounds: batch-amortized windows stay in
// [1, MaxBatchWindow], never narrow as the batch grows, and pass 8
// columns for block-shaped stores once the batch is wide enough to pay
// for the bigger tables.
func TestAutoWindowMultiBounds(t *testing.T) {
	for _, rows := range []int{1, 64, 8192, 1 << 20} {
		for _, cols := range []int{1, 100, 1 << 16} {
			prev := 0
			for _, k := range []int{1, 2, 4, 16, 64} {
				w := autoWindowMulti(rows, cols, 8, k)
				if w < 1 || w > MaxBatchWindow {
					t.Fatalf("autoWindowMulti(%d, %d, 8, %d) = %d out of range", rows, cols, k, w)
				}
				if w < prev {
					t.Fatalf("window narrowed with batch growth: rows=%d cols=%d k=%d: %d -> %d",
						rows, cols, k, prev, w)
				}
				prev = w
			}
		}
	}
	if w := autoWindowMulti(8192, 1000, 8, 8); w <= 8 {
		t.Fatalf("block-shaped batch picked window %d; expected beyond 8", w)
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

// benchmarkExecutor measures one executor pass at the oracle's shape
// (small), a block-store-like one (512 columns × 8192 rows) or the
// repository benchmark's store (6,029 × 8192: what one frame of a
// fetch-flat op scans — the one-query slow-start probe, then the rest).
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
