package pir

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"embellish/internal/scanclock"
)

// wordKey returns a cached 64-bit key — single-word prime factors, the
// shape that selects both the montMulWord serving kernel and the
// single-prime decode shortcut.
var cachedWordKey *ClientKey

func wordTestKey(t *testing.T) *ClientKey {
	t.Helper()
	if cachedWordKey == nil {
		k, err := GenerateKey(newDetRand("pir-word-test"), 64)
		if err != nil {
			t.Fatal(err)
		}
		cachedWordKey = k
	}
	return cachedWordKey
}

// recursiveOne answers one recursive query as a batch of one.
func recursiveOne(cols [][]byte, colBytes int, q *RecursiveQuery, ex Exec) (*Answer, Stats, error) {
	answers, stats, err := ProcessColumnsRecursiveMultiExecCtx(context.Background(), cols, colBytes, []*RecursiveQuery{q}, ex)
	if err != nil {
		return nil, Stats{}, err
	}
	return answers[0], stats[0], nil
}

// recursiveShapeFor mirrors the geometry resolution of the serving
// path — the oracle tests need it to call recursiveRefOne directly.
func recursiveShapeFor(q *RecursiveQuery, nCols, colBytes int) recShape {
	w := q.Span
	if w == 0 {
		w = min(q.Width-q.Offset, nCols)
	}
	return recShape{
		gridRows: len(q.Rows),
		gridCols: q.GridCols,
		offset:   q.Offset,
		window:   w,
		rows:     colBytes * 8,
	}
}

// TestRecursiveGridShape pins the grid geometry: the grid covers the
// width, the upload stays within the 3·⌈√n⌉ budget the acceptance
// bound demands, and ceilSqrt is exact at word boundaries.
func TestRecursiveGridShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 100, 1199, 1200, 30413, 1 << 20} {
		s := ceilSqrt(n)
		if s*s < n || (s-1)*(s-1) >= n {
			t.Fatalf("ceilSqrt(%d) = %d", n, s)
		}
		r, c := RecursiveGrid(n)
		if c < 1 || r < 1 || r*c < n {
			t.Fatalf("RecursiveGrid(%d) = %d×%d does not cover the width", n, r, c)
		}
		if c > 2*s {
			t.Fatalf("RecursiveGrid(%d): %d grid columns beyond the hostile cap 2·%d", n, c, s)
		}
		if r+c > 3*s {
			t.Fatalf("RecursiveGrid(%d): upload %d+%d elements exceeds the 3·√n budget (√n=%d)", n, r, c, s)
		}
	}
	if ceilSqrt(0) != 0 || ceilSqrt(-4) != 0 {
		t.Fatal("ceilSqrt of nonpositive width")
	}
}

// TestRecursiveFastMatchesRef: the word kernel's answers must be
// ciphertext-identical to the big.Int reference — the fast path is an
// optimization, not a different protocol. Crossed over workers, window
// (auto and pinned below the grid-column count, so level 2 folds several
// groups), batch widths, level-1-only partition mode and served windows
// (an offset/span slice of the grid with absent cells on both sides, and
// a store that stops inside the last grid row), on images of several
// level-2 tiles with a partial last one.
func TestRecursiveFastMatchesRef(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 150, 80 // 22×7 grid (4 padding cells), 5,120-byte image: three tiles
	cols := churnColumns(t, 41, nCols, colBytes)
	windows := []struct {
		name         string
		offset, span int
		store        [][]byte
	}{
		{"full", 0, 0, cols},
		{"slice", 37, 61, cols[37 : 37+61]},
		{"short store", 0, 0, cols[:131]},
	}
	ctx := context.Background()
	for _, win := range windows {
		for _, partial := range []bool{false, true} {
			qs := recursiveBatch(t, k, fmt.Sprintf("fastref-%s-%v", win.name, partial), nCols, 6)
			for _, q := range qs {
				q.Offset, q.Span = win.offset, win.span
				if partial {
					q.Cols = nil // level-1-only partition mode
				}
			}
			refs := make([]*Answer, len(qs))
			for i, q := range qs {
				ref, _, err := recursiveRefOne(ctx, win.store, colBytes, q, Exec{}, recursiveShapeFor(q, len(win.store), colBytes))
				if err != nil {
					t.Fatal(err)
				}
				refs[i] = ref
			}
			for _, workers := range []int{1, 3} {
				for _, window := range []int{0, 4} {
					for _, batch := range []int{1, 6} {
						label := fmt.Sprintf("%s partial=%v workers=%d window=%d batch=%d", win.name, partial, workers, window, batch)
						fast, _, err := ProcessColumnsRecursiveMultiExecCtx(ctx, win.store, colBytes, qs[:batch], Exec{Workers: workers, Window: window})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for i, ans := range fast {
							if len(ans.Gammas) != len(refs[i].Gammas) {
								t.Fatalf("%s query %d: %d ciphertexts vs ref %d", label, i, len(ans.Gammas), len(refs[i].Gammas))
							}
							for j := range ans.Gammas {
								if ans.Gammas[j].Cmp(refs[i].Gammas[j]) != 0 {
									t.Fatalf("%s query %d ciphertext %d: fast path differs from reference", label, i, j)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestRecursiveWorkTargetIndependent: the server's multiplication
// counts are a function of the shape alone — identity at 0-bits skips no
// product the fold would otherwise make, and nothing branches on the
// selection vectors — so two targets of one shape cost exactly the same.
func TestRecursiveWorkTargetIndependent(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 150, 40
	cols := churnColumns(t, 43, nCols, colBytes)
	for _, ex := range []Exec{{}, {Workers: 3, Window: 4}} {
		var first Stats
		for i, target := range []int{0, 1, 77, nCols - 1} {
			q, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("work-%d", target)), nCols, target)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := recursiveOne(cols, colBytes, q, ex)
			if err != nil {
				t.Fatal(err)
			}
			if st.ModMuls <= 0 || st.TableMuls <= 0 || st.TableMuls > st.ModMuls {
				t.Fatalf("%+v target %d: implausible stats %+v", ex, target, st)
			}
			if i == 0 {
				first = st
			} else if st != first {
				t.Fatalf("%+v: target %d cost %+v, target 0 cost %+v", ex, target, st, first)
			}
		}
	}
}

// TestDecodeRecursiveTypedErrors: a short or long answer is an
// *AnswerLengthError, and a ciphertext that does not land in the
// order-256 subgroup — a non-unit modulo p1 — is a *SymbolError naming
// the first such position, on the word decoder and the big.Int one.
func TestDecodeRecursiveTypedErrors(t *testing.T) {
	for _, k := range []*ClientKey{wordTestKey(t), testKey(t)} {
		const nCols, colBytes = 9, 2
		cols := churnColumns(t, 47, nCols, colBytes)
		q, err := k.NewRecursiveQuery(newDetRand("typed"), nCols, 4)
		if err != nil {
			t.Fatal(err)
		}
		ans, _, err := recursiveOne(cols, colBytes, q, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []*Answer{
			{Gammas: ans.Gammas[:len(ans.Gammas)-1]},
			{Gammas: append(append([]*big.Int(nil), ans.Gammas...), big.NewInt(1))},
			{},
		} {
			var lerr *AnswerLengthError
			if _, err := k.DecodeRecursive(bad, colBytes); !errors.As(err, &lerr) ||
				lerr.Got != len(bad.Gammas) || lerr.Want != len(ans.Gammas) {
				t.Fatalf("answer of %d ciphertexts: got %v", len(bad.Gammas), err)
			}
		}
		for _, pos := range []int{0, 5, len(ans.Gammas) - 1} {
			forged := append([]*big.Int(nil), ans.Gammas...)
			forged[pos] = new(big.Int).Lsh(k.p1, 1) // a multiple of p1 below N
			forged[len(forged)-1] = new(big.Int)
			var serr *SymbolError
			if _, err := k.DecodeRecursive(&Answer{Gammas: forged}, colBytes); !errors.As(err, &serr) || serr.Pos != pos {
				t.Fatalf("forged ciphertext at %d: got %v", pos, err)
			}
		}
		if _, err := k.DecodeRecursive(ans, colBytes); err != nil {
			t.Fatalf("honest answer refused: %v", err)
		}
	}
	if _, err := (&ClientKey{N: big.NewInt(35), p1: big.NewInt(5), p2: big.NewInt(7)}).DecodeRecursive(&Answer{}, 1); err != errNoPackingElement {
		t.Fatalf("hand-built key: got %v", err)
	}
}

// TestGenerateKeyProperties: at every size, down to the floor, the
// modulus has exactly the requested bit length, p1 ≡ 1 (mod 256), y is
// a Jacobi-(+1) non-residue, and D = y^((p1−1)/256) has order exactly
// 256 modulo p1 — what the packed level 2 decodes by.
func TestGenerateKeyProperties(t *testing.T) {
	for _, bits := range []int{32, 64, 128, 1024} {
		for rep := 0; rep < 3; rep++ {
			k, err := GenerateKey(newDetRand(fmt.Sprintf("keyprop-%d-%d", bits, rep)), bits)
			if err != nil {
				t.Fatal(err)
			}
			if k.N.BitLen() != bits {
				t.Fatalf("%d bits: N has %d", bits, k.N.BitLen())
			}
			if new(big.Int).Mul(k.p1, k.p2).Cmp(k.N) != 0 || k.p1.Cmp(k.p2) == 0 ||
				!k.p1.ProbablyPrime(20) || !k.p2.ProbablyPrime(20) {
				t.Fatalf("%d bits: N is not a product of two distinct primes", bits)
			}
			if new(big.Int).And(k.p1, big.NewInt(255)).Cmp(one) != 0 {
				t.Fatalf("%d bits: p1 = %v is not 1 mod 256", bits, k.p1)
			}
			if big.Jacobi(k.y, k.N) != 1 || k.isQR(k.y) || big.Jacobi(k.y, k.p1) != -1 {
				t.Fatalf("%d bits: y is not a Jacobi-(+1) non-residue", bits)
			}
			e8 := new(big.Int).Rsh(new(big.Int).Sub(k.p1, one), packBits)
			d := new(big.Int).Exp(k.y, e8, k.p1)
			if new(big.Int).Exp(d, big.NewInt(128), k.p1).Cmp(one) == 0 ||
				new(big.Int).Exp(d, big.NewInt(256), k.p1).Cmp(one) != 0 {
				t.Fatalf("%d bits: D does not have order 256", bits)
			}
			// And the decoder reads every byte back.
			dec := k.decoder()
			x, err := k.randomQR(newDetRand("keyprop-x"))
			if err != nil {
				t.Fatal(err)
			}
			x.Exp(x, big.NewInt(128), k.N) // a 256-th power
			for m := 0; m < 256; m += 51 {
				c := new(big.Int).Exp(k.y, big.NewInt(int64(m)), k.N)
				c.Mul(c, x).Mod(c, k.N)
				if got, ok := dec.symbol(k, c); !ok || int(got) != m {
					t.Fatalf("%d bits: symbol %d decoded %d (ok=%v)", bits, m, got, ok)
				}
			}
		}
	}
	if _, err := GenerateKey(newDetRand("keyprop-small"), minKeyBits-1); err == nil {
		t.Fatal("a key below the floor was generated")
	}
}

// TestRecursiveCancelMidLevel2: a deadline crossed inside the level-2
// scan — timed in polls on the pinned scan clock, not on the wall —
// returns the context error, the work done so far, and no answer at all.
func TestRecursiveCancelMidLevel2(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 150, 80
	cols := churnColumns(t, 53, nCols, colBytes)
	q, err := k.NewRecursiveQuery(newDetRand("cancel-l2"), nCols, 77)
	if err != nil {
		t.Fatal(err)
	}
	l1 := *q
	l1.Cols = nil
	matrix, _, err := recursiveOne(cols, colBytes, &l1, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	// run serves under a clock that crosses the deadline at poll
	// number crossAt (never, when 0) and reports the polls made.
	run := func(crossAt int, serve func() (*Answer, Stats, error)) (int, *Answer, Stats, error) {
		polls := 0
		restore := scanclock.Set(func() time.Time {
			polls++
			if crossAt > 0 && polls >= crossAt {
				return deadline
			}
			return deadline.Add(-time.Minute)
		})
		defer restore()
		ans, st, err := serve()
		return polls, ans, st, err
	}
	level2 := func() (*Answer, Stats, error) {
		return RecursiveLevel2(ctx, q, matrix.Gammas, colBytes, Exec{Window: 4})
	}
	full := func() (*Answer, Stats, error) {
		answers, stats, err := ProcessColumnsRecursiveMultiExecCtx(ctx, cols, colBytes, []*RecursiveQuery{q}, Exec{Window: 4})
		if err != nil {
			return nil, stats[0], err
		}
		return answers[0], stats[0], nil
	}
	l2Polls, want, l2Stats, err := run(0, level2)
	if err != nil || l2Polls < 4 {
		t.Fatalf("level 2 alone: %d polls, err %v", l2Polls, err)
	}
	fullPolls, got, fullStats, err := run(0, full)
	if err != nil || fullPolls <= l2Polls {
		t.Fatalf("full scan: %d polls (level 2 alone %d), err %v", fullPolls, l2Polls, err)
	}
	for i := range want.Gammas {
		if got.Gammas[i].Cmp(want.Gammas[i]) != 0 {
			t.Fatalf("ciphertext %d: executor and RecursiveLevel2 disagree", i)
		}
	}
	for _, tc := range []struct {
		name    string
		crossAt int
		serve   func() (*Answer, Stats, error)
		whole   Stats
	}{
		{"RecursiveLevel2", l2Polls / 2, level2, l2Stats},
		// Level 2 is the tail of the full scan: half its polls from the
		// end lands inside it.
		{"executor", fullPolls - l2Polls/2, full, fullStats},
	} {
		_, ans, st, err := run(tc.crossAt, tc.serve)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err %v, want DeadlineExceeded", tc.name, err)
		}
		if ans != nil {
			t.Fatalf("%s: a partial answer came back with the cancellation", tc.name)
		}
		if st.ModMuls <= 0 || st.ModMuls >= tc.whole.ModMuls {
			t.Fatalf("%s: cancelled scan charged %d multiplications, the whole one %d", tc.name, st.ModMuls, tc.whole.ModMuls)
		}
	}
}

// TestRecursiveEdgeWidths: widths 1..6 exercise every degenerate grid
// (1×1, last-row padding, single grid column), on 1-byte blocks.
func TestRecursiveEdgeWidths(t *testing.T) {
	k := wordTestKey(t)
	for width := 1; width <= 6; width++ {
		cols := churnColumns(t, int64(500+width), width, 1)
		for target := 0; target < width; target++ {
			q, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("edge-%d-%d", width, target)), width, target)
			if err != nil {
				t.Fatal(err)
			}
			ans, _, err := recursiveOne(cols, 1, q, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			bits, err := k.DecodeRecursive(ans, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := ColumnBytes(bits); !bytes.Equal(got, cols[target]) {
				t.Fatalf("width %d target %d: decoded %x, want %x", width, target, got, cols[target])
			}
		}
	}
}

// TestRecursiveBatchIdentical: a multi-query recursive batch answers
// each query gamma-identically to its own single run, and the batch
// validation mirrors the flat batch's.
func TestRecursiveBatchIdentical(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes, batch = 23, 4, 5
	cols := churnColumns(t, 61, nCols, colBytes)
	qs := make([]*RecursiveQuery, batch)
	for i := range qs {
		q, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("rbatch-%d", i)), nCols, (i*7)%nCols)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	got, stats, err := ProcessColumnsRecursiveMultiExecCtx(context.Background(), cols, colBytes, qs, Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != batch || len(stats) != batch {
		t.Fatalf("%d answers / %d stats, want %d", len(got), len(stats), batch)
	}
	for i, q := range qs {
		want, _, err := recursiveOne(cols, colBytes, q, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		for r := range want.Gammas {
			if got[i].Gammas[r].Cmp(want.Gammas[r]) != 0 {
				t.Fatalf("batch query %d gamma %d differs from single run", i, r)
			}
		}
		bits, err := k.DecodeRecursive(got[i], colBytes)
		if err != nil {
			t.Fatal(err)
		}
		if decoded := ColumnBytes(bits); !bytes.Equal(decoded, cols[(i*7)%nCols]) {
			t.Fatalf("batch query %d decoded wrong block", i)
		}
	}
}

// TestRecursivePartitionCompose is the cluster identity in miniature:
// three partitions each serve a level-1-only query over their slice of
// the store (with the grid windowed by Offset/Span), the partial
// matrices combine element-wise mod N, level 2 runs over the combined
// matrix — and the result is gamma-identical to the single-process
// full answer. Exercised at splits that cut grid rows mid-row.
func TestRecursivePartitionCompose(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 31, 4
	cols := churnColumns(t, 71, nCols, colBytes)
	rows := colBytes * 8
	for target := 0; target < nCols; target += 4 {
		full, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("part-%d", target)), nCols, target)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := recursiveOne(cols, colBytes, full, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		C := full.GridCols
		combined := make([]*big.Int, C*rows)
		for i := range combined {
			combined[i] = big.NewInt(1)
		}
		for _, cut := range [][2]int{{0, 11}, {11, 24}, {24, nCols}} {
			part := &RecursiveQuery{
				N: full.N, Width: full.Width, GridCols: full.GridCols,
				Offset: cut[0], Span: cut[1] - cut[0], Rows: full.Rows,
			}
			ans, _, err := recursiveOne(cols[cut[0]:cut[1]], colBytes, part, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Gammas) != C*rows {
				t.Fatalf("partition answered %d gammas, want %d", len(ans.Gammas), C*rows)
			}
			for i, g := range ans.Gammas {
				combined[i].Mul(combined[i], g)
				combined[i].Mod(combined[i], full.N)
			}
		}
		got, _, err := RecursiveLevel2(context.Background(), full, combined, colBytes, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		for r := range want.Gammas {
			if got.Gammas[r].Cmp(want.Gammas[r]) != 0 {
				t.Fatalf("target %d: composed gamma %d differs from single process", target, r)
			}
		}
		bits, err := k.DecodeRecursive(got, colBytes)
		if err != nil {
			t.Fatal(err)
		}
		if decoded := ColumnBytes(bits); !bytes.Equal(decoded, cols[target]) {
			t.Fatalf("target %d: composed answer decoded %x, want %x", target, decoded, cols[target])
		}
	}
}

// TestRecursiveSpanRefusal: a Span beyond the stored blocks — the
// stale-cluster-map symptom — is refused with the diagnostic error,
// never served short.
func TestRecursiveSpanRefusal(t *testing.T) {
	k := wordTestKey(t)
	cols := churnColumns(t, 81, 5, 2)
	q, err := k.NewRecursiveQuery(newDetRand("span"), 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	q.Cols = nil
	q.Offset, q.Span = 4, 8 // partition claims 8 blocks; the store holds 5
	_, _, err = recursiveOne(cols, 2, q, Exec{})
	if err == nil || !strings.Contains(err.Error(), "re-partitioned") {
		t.Fatalf("oversized span: got %v", err)
	}
	q.Span = 5 // exactly the store: served
	if _, _, err := recursiveOne(cols, 2, q, Exec{}); err != nil {
		t.Fatalf("exact span refused: %v", err)
	}
}

// TestRecursiveValidation: hostile shapes are errors before any
// dimension-sized allocation, and batch members must agree on shape.
func TestRecursiveValidation(t *testing.T) {
	k := wordTestKey(t)
	cols := churnColumns(t, 91, 9, 2)
	good := func() *RecursiveQuery {
		q, err := k.NewRecursiveQuery(newDetRand("val"), 9, 2)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	cases := []struct {
		name   string
		mutate func(*RecursiveQuery)
		want   error
	}{
		{"zero width", func(q *RecursiveQuery) { q.Width = 0 }, errRecursiveWidth},
		{"grid cols zero", func(q *RecursiveQuery) { q.GridCols = 0 }, errRecursiveGrid},
		{"grid cols beyond cap", func(q *RecursiveQuery) { q.GridCols = 7 }, errRecursiveGrid},
		{"rows mismatch", func(q *RecursiveQuery) { q.Rows = q.Rows[1:] }, errRecursiveRows},
		{"cols mismatch", func(q *RecursiveQuery) { q.Cols = q.Cols[1:] }, errRecursiveCols},
		{"negative offset", func(q *RecursiveQuery) { q.Offset = -1 }, errRecursiveOffset},
		{"offset at width", func(q *RecursiveQuery) { q.Offset = 9 }, errRecursiveOffset},
		{"span past width", func(q *RecursiveQuery) { q.Span = 10 }, errRecursiveSpan},
	}
	for _, tc := range cases {
		q := good()
		tc.mutate(q)
		if _, _, err := recursiveOne(cols, 2, q, Exec{}); err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, _, err := recursiveOne(cols, 0, good(), Exec{}); err != errColumnSize {
		t.Errorf("zero colBytes: got %v", err)
	}
	short := churnColumns(t, 92, 9, 2)
	short[4] = short[4][:1]
	if _, _, err := recursiveOne(short, 2, good(), Exec{}); err == nil {
		t.Error("short column accepted")
	}
	if _, _, err := ProcessColumnsRecursiveMultiExecCtx(context.Background(), cols, 2, nil, Exec{}); err != errEmptyBatch {
		t.Errorf("empty batch: got %v", err)
	}
	over := make([]*RecursiveQuery, MaxMulti+1)
	for i := range over {
		over[i] = good()
	}
	if _, _, err := ProcessColumnsRecursiveMultiExecCtx(context.Background(), cols, 2, over, Exec{}); err != errBatchSize {
		t.Errorf("oversize batch: got %v", err)
	}
	other := testKey(t)
	oq, err := other.NewRecursiveQuery(newDetRand("val-other"), 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ProcessColumnsRecursiveMultiExecCtx(context.Background(), cols, 2, []*RecursiveQuery{good(), oq}, Exec{}); err != errBatchModulus {
		t.Errorf("modulus mismatch: got %v", err)
	}
	mixed := good()
	mixed.Cols = nil
	if _, _, err := ProcessColumnsRecursiveMultiExecCtx(context.Background(), cols, 2, []*RecursiveQuery{good(), mixed}, Exec{}); err != errRecursiveShape {
		t.Errorf("mode mismatch: got %v", err)
	}
	// Level 2 guards its own inputs (the router calls it directly).
	lq := good()
	if _, _, err := RecursiveLevel2(context.Background(), lq, make([]*big.Int, 3), 2, Exec{}); err != errRecursiveMatrix {
		t.Errorf("matrix mismatch: got %v", err)
	}
	lq.Cols = nil
	if _, _, err := RecursiveLevel2(context.Background(), lq, nil, 2, Exec{}); err != errRecursiveCols {
		t.Errorf("level-2 without Cols: got %v", err)
	}
}

// TestRecursiveDecoderMatchesIsQR: the single-prime word shortcut must
// agree with the two-prime isQR on every honest transcript value —
// QRs, Jacobi-(+1) QNRs, their products — and on the degenerate
// non-unit multiples of a prime factor.
func TestRecursiveDecoderMatchesIsQR(t *testing.T) {
	k := wordTestKey(t)
	d := k.decoder()
	if !d.word {
		t.Fatal("64-bit key did not select the word decoder")
	}
	rnd := newDetRand("dec")
	vals := []*big.Int{big.NewInt(1), new(big.Int).Set(k.p1), new(big.Int).Lsh(k.p1, 1)}
	for i := 0; i < 40; i++ {
		var v *big.Int
		var err error
		if i%2 == 0 {
			v, err = k.randomQR(rnd)
		} else {
			v, err = k.randomQNR(rnd)
		}
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
		if i > 2 {
			p := new(big.Int).Mul(vals[len(vals)-1], vals[len(vals)-2])
			vals = append(vals, p.Mod(p, k.N))
		}
	}
	for _, v := range vals {
		if got, want := d.qnr(k, v), !k.isQR(v); got != want {
			t.Fatalf("decoder disagrees with isQR on %v: got %v, want %v", v, got, want)
		}
	}
	// The wide key falls back to isQR wholesale.
	if testKey(t).decoder().word {
		t.Fatal("192-bit key selected the word decoder")
	}
}

// TestRecursiveTrafficAccounting pins the upload arithmetic the bench
// and the acceptance bound rely on: Rows+Cols elements uploaded, every
// element modBytes wide, total under 3·⌈√n⌉ elements — against the
// flat path's n.
func TestRecursiveTrafficAccounting(t *testing.T) {
	k := wordTestKey(t)
	modBytes := (k.N.BitLen() + 7) / 8
	for _, width := range []int{1, 64, 1200, 12000} {
		r, c := RecursiveGrid(width)
		if got, want := k.RecursiveQueryBytes(width), (r+c)*modBytes; got != want {
			t.Fatalf("RecursiveQueryBytes(%d) = %d, want %d", width, got, want)
		}
		if width >= 64 {
			if k.RecursiveQueryBytes(width) > 3*ceilSqrt(width)*modBytes {
				t.Fatalf("width %d: upload exceeds the 3·√n budget", width)
			}
			if k.RecursiveQueryBytes(width) >= k.QueryBytes(width) {
				t.Fatalf("width %d: recursive upload not below flat", width)
			}
		}
		q, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("traffic-%d", width)), width, width/2)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Rows) != r || len(q.Cols) != c {
			t.Fatalf("width %d: query vectors %d+%d, want %d+%d", width, len(q.Rows), len(q.Cols), r, c)
		}
	}
	if got, want := k.RecursiveAnswerBytes(4), 8*4*modBytes*modBytes; got != want {
		t.Fatalf("RecursiveAnswerBytes(4) = %d, want %d", got, want)
	}
}

// TestRecursiveOverwideStore: with Span zero, a store longer than the
// grid is clamped (the extra blocks are simply not addressed), and a
// store SHORTER than Width−Offset serves what it has with identity
// cells — no error, the partition posture.
func TestRecursiveOverwideStore(t *testing.T) {
	k := wordTestKey(t)
	cols := churnColumns(t, 111, 10, 2)
	q, err := k.NewRecursiveQuery(newDetRand("overwide"), 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := recursiveOne(cols, 2, q, Exec{}) // store 10, grid 8
	if err != nil {
		t.Fatal(err)
	}
	bits, err := k.DecodeRecursive(ans, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ColumnBytes(bits); !bytes.Equal(got, cols[6]) {
		t.Fatalf("clamped store decoded %x, want %x", got, cols[6])
	}
	// Short store: blocks beyond it decode as all-zero (identity γ=1 is
	// a QR at every bit).
	q2, err := k.NewRecursiveQuery(newDetRand("overwide2"), 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	ans2, _, err := recursiveOne(cols[:4], 2, q2, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	bits2, err := k.DecodeRecursive(ans2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ColumnBytes(bits2); !bytes.Equal(got, make([]byte, 2)) {
		t.Fatalf("absent block decoded %x, want zeros", got)
	}
}

// recursiveBatch builds a batch of recursive queries for spread targets.
func recursiveBatch(tb testing.TB, k *ClientKey, tag string, nCols, batch int) []*RecursiveQuery {
	tb.Helper()
	qs := make([]*RecursiveQuery, batch)
	for i := range qs {
		q, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("%s-%d", tag, i)), nCols, (i*997+nCols/2)%nCols)
		if err != nil {
			tb.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// BenchmarkRecursiveStore6 is what one frame of a fetch-recursive op
// scans: six queries over the repository benchmark's store (6,029
// blocks of 1 KB, grid 155×39) under its 64-bit key, on two workers.
func BenchmarkRecursiveStore6(b *testing.B) {
	cols := randomColumns(b, 2, 6029, 1024)
	qs := recursiveBatch(b, benchmarkKey(b), "bench-rec", 6029, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ProcessColumnsRecursiveMultiExecCtx(context.Background(), cols, 1024, qs, Exec{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecursiveLevel2 is level 2 alone at that shape on one worker:
// a 39-column image of 65,536 bytes re-encrypted a byte per ciphertext.
func BenchmarkRecursiveLevel2(b *testing.B) {
	k := benchmarkKey(b)
	mont, err := NewMont(k.N)
	if err != nil {
		b.Fatal(err)
	}
	q := recursiveBatch(b, k, "bench-l2", 6029, 1)[0]
	image := randomColumns(b, 3, q.GridCols, 8192*8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := level2Word(newScanPoll(context.Background()), mont, q.Cols, image, 8192*8, Exec{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRecursive is one recursive block decode: the 65,536
// ciphertexts of a 1 KB block under the 64-bit key, then its 8,192
// level-1 gammas.
func BenchmarkDecodeRecursive(b *testing.B) {
	k := benchmarkKey(b)
	cols := randomColumns(b, 9, 16, 1024)
	ans, _, err := recursiveOne(cols, 1024, recursiveBatch(b, k, "bench-rdec", 16, 1)[0], Exec{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.DecodeRecursive(ans, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecursiveLevel2MatchesDefinition holds the big.Int reference —
// the oracle of the word kernel — to the definition itself: ciphertext
// b is Π_gc sel[gc]^(image[gc][b]) mod n, computed here with one
// big.Int.Exp per factor, on an odd and an even modulus.
func TestRecursiveLevel2MatchesDefinition(t *testing.T) {
	const C, imgBytes = 5, 300
	image := randomColumns(t, 59, C, imgBytes)
	copy(image[2], make([]byte, 40)) // a run of zero exponents
	for _, n := range []*big.Int{wordTestKey(t).N, testKey(t).N, evenModulus} {
		sel := rawQuery(rand.New(rand.NewSource(61)), n, C).Values
		got, st, err := level2Ref(newScanPoll(context.Background()), n, sel, image, imgBytes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Gammas) != imgBytes || st.ModMuls != C*254+imgBytes*(C-1) {
			t.Fatalf("%d ciphertexts, stats %+v", len(got.Gammas), st)
		}
		for b, c := range got.Gammas {
			want := big.NewInt(1)
			for gc := range image {
				want.Mul(want, new(big.Int).Exp(sel[gc], big.NewInt(int64(image[gc][b])), n))
				want.Mod(want, n)
			}
			if c.Cmp(want) != 0 {
				t.Fatalf("modulus %v ciphertext %d: reference %v, definition %v", n, b, c, want)
			}
		}
	}
}
