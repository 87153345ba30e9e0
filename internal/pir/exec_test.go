package pir

import (
	"context"
	"fmt"
	"testing"
	"time"
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

// TestExecutorAmortizationSmoke is the CI guardrail against silently
// losing the batch sharing in a refactor: on a block-shaped corpus, one
// pass for a batch of 4 must finish faster in wall time than four
// batch-of-one passes (shared transposition, wider windows). The
// assertion demands only an outright win to stay robust on noisy CI
// machines.
func TestExecutorAmortizationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke")
	}
	k := wordTestKey(t)                       // the one-word kernel, where the shared transposition shows
	const nCols, colBytes, batch = 64, 512, 4 // 4096 rows
	cols := randomColumns(t, 23, nCols, colBytes)
	qs := multiBatch(t, k, "amort", nCols, batch)
	ctx := context.Background()

	oneByOne := time.Duration(1<<62 - 1)
	together := oneByOne
	// Best of three to damp scheduler noise.
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := range qs {
			if _, _, err := ProcessColumnsMultiExecCtx(ctx, cols, colBytes, qs[i:i+1], Exec{}); err != nil {
				t.Fatal(err)
			}
		}
		oneByOne = min(oneByOne, time.Since(start))
		start = time.Now()
		if _, _, err := ProcessColumnsMultiExecCtx(ctx, cols, colBytes, qs, Exec{}); err != nil {
			t.Fatal(err)
		}
		together = min(together, time.Since(start))
	}
	t.Logf("4 batches of one: %v, one batch of 4: %v (%.1fx)", oneByOne, together,
		float64(oneByOne)/float64(together))
	if together >= oneByOne {
		t.Fatalf("batch of 4 (%v) not faster than four batches of one (%v)", together, oneByOne)
	}
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
func benchmarkKey(b *testing.B) *ClientKey {
	k, err := GenerateKey(newDetRand("bench"), 64)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

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
// (small) or a block-store-like one (512 columns × 8192 rows), on one
// goroutine.
func benchmarkExecutor(b *testing.B, nCols, colBytes, batch int) {
	cols := randomColumns(b, 2, nCols, colBytes)
	qs := multiBatch(b, benchmarkKey(b), "bench-multi", nCols, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, qs, Exec{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorSmall1(b *testing.B)  { benchmarkExecutor(b, 128, 128, 1) }
func BenchmarkExecutorBatch1(b *testing.B)  { benchmarkExecutor(b, 512, 1024, 1) }
func BenchmarkExecutorBatch4(b *testing.B)  { benchmarkExecutor(b, 512, 1024, 4) }
func BenchmarkExecutorBatch16(b *testing.B) { benchmarkExecutor(b, 512, 1024, 16) }
