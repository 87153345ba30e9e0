package pir

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"strings"
	"testing"
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
// path for a zero-Offset, zero-Span query — the oracle tests need it
// to call recursiveRefOne directly.
func recursiveShapeFor(q *RecursiveQuery, nCols, colBytes int) recShape {
	w := q.Width
	if w > nCols {
		w = nCols
	}
	return recShape{
		gridRows: len(q.Rows),
		gridCols: q.GridCols,
		offset:   0,
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
// gamma-identical to the reference composition of the flat paths —
// the fast path is an optimization, not a different protocol.
func TestRecursiveFastMatchesRef(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 29, 8
	cols := churnColumns(t, 41, nCols, colBytes)
	for _, partial := range []bool{false, true} {
		for target := 0; target < nCols; target += 5 {
			q, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("fastref-%v-%d", partial, target)), nCols, target)
			if err != nil {
				t.Fatal(err)
			}
			if partial {
				q.Cols = nil // level-1-only partition mode
			}
			fast, _, err := recursiveOne(cols, colBytes, q, Exec{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := recursiveRefOne(context.Background(), cols, colBytes, q, Exec{}, recursiveShapeFor(q, nCols, colBytes))
			if err != nil {
				t.Fatal(err)
			}
			if len(fast.Gammas) != len(ref.Gammas) {
				t.Fatalf("partial=%v target %d: %d gammas vs ref %d", partial, target, len(fast.Gammas), len(ref.Gammas))
			}
			for i := range fast.Gammas {
				if fast.Gammas[i].Cmp(ref.Gammas[i]) != 0 {
					t.Fatalf("partial=%v target %d gamma %d: fast path differs from reference", partial, target, i)
				}
			}
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
	if got, want := k.RecursiveAnswerBytes(4), 64*4*modBytes*modBytes; got != want {
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
