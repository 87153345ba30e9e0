package pir

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
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
	return recShape{
		gridRows: len(q.Rows),
		gridCols: q.GridCols,
		window:   min(q.Width, nCols),
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
// optimization, not a different protocol. Crossed over workers, level-1
// windows (auto, and pins from 2 to the cap of 16: every served window
// below then has a partial FIRST and a partial LAST group under some of
// them, the runs the edge tables fold), batch widths and served windows
// (the whole grid, a store that stops inside the last grid row, and a
// store of one block), on images of several level-2 tiles with a partial
// last one.
func TestRecursiveFastMatchesRef(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 150, 80 // 22×7 grid (4 padding cells), 5,120-byte image: three tiles
	cols := churnColumns(t, 41, nCols, colBytes)
	windows := []struct {
		name  string
		store [][]byte
	}{
		{"full", cols},
		{"short store", cols[:131]},
		{"one block", cols[:1]},
	}
	ctx := context.Background()
	for _, win := range windows {
		qs := recursiveBatch(t, k, "fastref-"+win.name, nCols, 6)
		refs := make([]*Answer, len(qs))
		for i, q := range qs {
			ref, _, err := recursiveRefOne(ctx, win.store, colBytes, q, Exec{}, recursiveShapeFor(q, len(win.store), colBytes))
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = ref
		}
		for _, workers := range []int{1, 3} {
			for _, window := range []int{0, 2, 10, 13, 16} {
				for _, batch := range []int{1, 6} {
					label := fmt.Sprintf("%s workers=%d window=%d batch=%d", win.name, workers, window, batch)
					fast, _, err := ProcessColumnsRecursiveMultiExecCtx(ctx, win.store, colBytes, qs[:batch], Exec{Workers: workers, Window: window})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for i, ans := range fast {
						if ans.Width != refs[i].Width || !bytes.Equal(ans.Image, refs[i].Image) {
							t.Fatalf("%s query %d: %d ciphertexts differ from the reference's %d", label, i, ans.Count(), refs[i].Count())
						}
					}
				}
			}
		}
	}
}

// TestRecursiveWorkTargetIndependent: the server's multiplication counts are a
// function of the shape, the window and the worker count alone. Identity
// at 0-bits skips no product the fold would otherwise make, nothing
// branches on the selection vectors, and — since the window edges fold
// tables like every other group — nothing branches on a stored bit
// either: every target costs the same, and so does every store of one
// shape whatever it holds (zeros, ones, text).
func TestRecursiveWorkTargetIndependent(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 150, 40
	text := make([][]byte, nCols)
	zeros, ones := make([][]byte, nCols), make([][]byte, nCols)
	for j := range text {
		text[j] = []byte(fmt.Sprintf("%-40.40s", fmt.Sprintf("block %d of a stored document, plain ASCII", j)))
		zeros[j] = make([]byte, colBytes)
		ones[j] = bytes.Repeat([]byte{0xFF}, colBytes)
	}
	stores := [][][]byte{churnColumns(t, 43, nCols, colBytes), zeros, ones, text}
	for _, ex := range []Exec{{}, {Workers: 3, Window: 4}, {Workers: 2, Window: 13}} {
		var first Stats
		for si, store := range stores {
			for ti, target := range []int{0, 1, 77, nCols - 1} {
				q, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("work-%d", target)), nCols, target)
				if err != nil {
					t.Fatal(err)
				}
				_, st, err := recursiveOne(store, colBytes, q, ex)
				if err != nil {
					t.Fatal(err)
				}
				if st.ModMuls <= 0 || st.TableMuls <= 0 || st.TableMuls > st.ModMuls {
					t.Fatalf("%+v target %d: implausible stats %+v", ex, target, st)
				}
				if si == 0 && ti == 0 {
					first = st
				} else if st != first {
					t.Fatalf("%+v: store %d target %d cost %+v, store 0 target 0 cost %+v", ex, si, target, st, first)
				}
			}
		}
	}
}

// TestRecursiveStatsFormula pins the counts to the formula the docs
// state, at a shape small enough to work by hand: 150 blocks of 40 bytes
// (rows = 320) on a 22×7 grid with 4 padding cells, 64-bit modulus
// (modBytes = 8), window 4, one worker. Groups: five of 4 grid rows and
// one of 2; in the last group grid columns 3..6 have one present row, a
// run of its own. Per query:
//
//	row vector in    2·R                          =     44
//	tables           5·2(2^4−2) + 2(2^2−2) + 0    =    144   (a one-row table is the value itself)
//	folds            C·rows·(groups−1)            = 11,200   (first touch is a copy)
//	out of form      C·rows                       =  2,240
//	level-2 tables   C·255                        =  1,785
//	level-2 scan     rows·modBytes·C              = 17,920   (C−1 products and one conversion each)
func TestRecursiveStatsFormula(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 150, 40
	cols := churnColumns(t, 45, nCols, colBytes)
	q, err := k.NewRecursiveQuery(newDetRand("formula"), nCols, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := recursiveOne(cols, colBytes, q, Exec{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	const R, C, rows, modBytes = 22, 7, 320, 8
	wantTable := 2*R + (5*2*(1<<4-2) + 2*(1<<2-2)) + C*rows + C*255 + rows*modBytes
	want := wantTable + C*rows*5 + rows*modBytes*(C-1)
	if st.ModMuls != want || st.TableMuls != wantTable {
		t.Fatalf("stats %+v, formula gives ModMuls %d TableMuls %d", st, want, wantTable)
	}
}

// TestRecursiveWindowModel: the level-1 window is a function of the shape
// alone — never wider than 16 or than the grid has rows, wider (never
// narrower) as the fold work C·rows it amortises a table over grows, and
// 13 at the repository benchmark's 155×39 grid of 1 KB blocks.
func TestRecursiveWindowModel(t *testing.T) {
	for _, workers := range []int{1, 2} {
		if w := recursiveWindow(155, 39, 8192, workers); w != 13 {
			t.Fatalf("W2k shape, %d workers: window %d, want 13", workers, w)
		}
	}
	for _, R := range []int{1, 2, 5, 16, 17, 155, 1000} {
		for _, workers := range []int{1, 3, 8} {
			prev := 0
			for _, cells := range [][2]int{{1, 8}, {1, 64}, {4, 256}, {7, 640}, {39, 8192}, {200, 8192}, {1000, 65536}} {
				w := recursiveWindow(R, cells[0], cells[1], workers)
				if w < 1 || w > maxRecursiveWindow || w > R {
					t.Fatalf("R=%d C=%d rows=%d workers=%d: window %d out of range", R, cells[0], cells[1], workers, w)
				}
				if w < prev {
					t.Fatalf("R=%d workers=%d: window fell from %d to %d as C·rows grew to %d", R, workers, prev, w, cells[0]*cells[1])
				}
				prev = w
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
		gammas := gammasOf(ans)
		packed := func(gs []*big.Int) *Answer { return &Answer{Width: ans.Width, Image: packGammas(gs, ans.Width)} }
		for _, bad := range []*Answer{
			packed(gammas[:len(gammas)-1]),
			packed(append(slices.Clone(gammas), big.NewInt(1))),
			{},
		} {
			var lerr *AnswerLengthError
			if _, err := k.DecodeRecursive(bad, colBytes); !errors.As(err, &lerr) ||
				lerr.Got != bad.Count() || lerr.Want != len(gammas) {
				t.Fatalf("answer of %d ciphertexts: got %v", bad.Count(), err)
			}
		}
		for _, pos := range []int{0, 5, len(gammas) - 1} {
			forged := slices.Clone(gammas)
			forged[pos] = new(big.Int).Lsh(k.p1, 1) // a multiple of p1 below N
			forged[len(forged)-1] = new(big.Int)
			var serr *SymbolError
			if _, err := k.DecodeRecursive(packed(forged), colBytes); !errors.As(err, &serr) || serr.Pos != pos {
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
// returns the context error, the work done so far, and no answer at all,
// from the level-2 kernel alone and from the executor it ends.
func TestRecursiveCancelMidLevel2(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 150, 80
	cols := churnColumns(t, 53, nCols, colBytes)
	q, err := k.NewRecursiveQuery(newDetRand("cancel-l2"), nCols, 77)
	if err != nil {
		t.Fatal(err)
	}
	mont, err := NewMont(k.N)
	if err != nil {
		t.Fatal(err)
	}
	// Level 2's polls and products depend on the matrix's shape alone, so
	// any cells of the executor's shape time it.
	cells := make([]big.Word, q.GridCols*colBytes*8)
	for i, v := range rawQuery(rand.New(rand.NewSource(53)), k.N, len(cells)).Values {
		cells[i] = big.Word(v.Uint64())
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
		return level2Word(newScanPoll(ctx), mont, q.Cols, cells, colBytes*8, (k.N.BitLen()+7)/8, Exec{})
	}
	full := func() (*Answer, Stats, error) {
		answers, stats, err := ProcessColumnsRecursiveMultiExecCtx(ctx, cols, colBytes, []*RecursiveQuery{q}, Exec{Window: 4})
		if err != nil {
			return nil, stats[0], err
		}
		return answers[0], stats[0], nil
	}
	l2Polls, _, l2Stats, err := run(0, level2)
	if err != nil || l2Polls < 4 {
		t.Fatalf("level 2 alone: %d polls, err %v", l2Polls, err)
	}
	fullPolls, _, fullStats, err := run(0, full)
	if err != nil || fullPolls <= l2Polls {
		t.Fatalf("full scan: %d polls (level 2 alone %d), err %v", fullPolls, l2Polls, err)
	}
	for _, tc := range []struct {
		name    string
		crossAt int
		serve   func() (*Answer, Stats, error)
		whole   Stats
	}{
		{"level2Word", l2Polls / 2, level2, l2Stats},
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
		if !bytes.Equal(got[i].Image, want.Image) {
			t.Fatalf("batch query %d differs from single run", i)
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
		{"no cols", func(q *RecursiveQuery) { q.Cols = nil }, errRecursiveCols},
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
		t.Errorf("shape mismatch: got %v", err)
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
	width := (k.N.BitLen() + 7) / 8
	got := k.Decode(&Answer{Width: width, Image: packGammas(vals, width)})
	for i, v := range vals {
		if want := !k.isQR(v); got[i] != want {
			t.Fatalf("decoder disagrees with isQR on %v: got %v, want %v", v, got[i], want)
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

// TestRecursiveOverwideStore: a store longer than the grid is clamped
// (the extra blocks are simply not addressed), and a store SHORTER than
// Width serves what it has with identity cells — no error, the prefix
// addressing of the flat scan.
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
// a 39-column matrix of 8,192 cells — an image of 65,536 bytes —
// re-encrypted a byte per ciphertext.
func BenchmarkRecursiveLevel2(b *testing.B) {
	k := benchmarkKey(b)
	mont, err := NewMont(k.N)
	if err != nil {
		b.Fatal(err)
	}
	q := recursiveBatch(b, k, "bench-l2", 6029, 1)[0]
	cells := make([]big.Word, q.GridCols*8192)
	for i, v := range rawQuery(rand.New(rand.NewSource(3)), k.N, len(cells)).Values {
		cells[i] = big.Word(v.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := level2Word(newScanPoll(context.Background()), mont, q.Cols, cells, 8192, 8, Exec{}); err != nil {
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
		if got.Count() != imgBytes || st.ModMuls != C*254+imgBytes*(C-1) {
			t.Fatalf("%d ciphertexts, stats %+v", got.Count(), st)
		}
		for b, c := range gammasOf(got) {
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

// TestRecursiveLevel2WordMatchesRef: the word kernel — tiles serialized
// as they are folded, image columns two per pass — equals the big.Int
// reference ciphertext for ciphertext, at odd and even column counts down
// to one and two (no pair at all, one column left over), one and three
// workers, on a word-wide modulus (whole-word stores) and a 32-bit one
// (four image bytes per cell), over several tiles with a partial last
// one — and counts the same multiplications whatever the cells hold.
func TestRecursiveLevel2WordMatchesRef(t *testing.T) {
	small, err := GenerateKey(newDetRand("l2-32"), 32)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 700
	for _, k := range []*ClientKey{wordTestKey(t), small} {
		mont, err := NewMont(k.N)
		if err != nil || mont.Words() != 1 {
			t.Fatalf("%d-bit key: no one-word Montgomery context (%v)", k.N.BitLen(), err)
		}
		modBytes := (k.N.BitLen() + 7) / 8
		rng := rand.New(rand.NewSource(67))
		for _, C := range []int{1, 2, 3, 4, 7, 8} {
			matrix := rawQuery(rng, k.N, C*rows).Values
			matrix[0], matrix[1] = new(big.Int), new(big.Int).Sub(k.N, one)
			cells := make([]big.Word, len(matrix))
			for i, g := range matrix {
				cells[i] = big.Word(g.Uint64())
			}
			image := make([][]byte, C)
			for gc := range image {
				image[gc] = putCells(make([]byte, rows*modBytes), cells[gc*rows:(gc+1)*rows], 1, modBytes)
			}
			sel := rawQuery(rng, k.N, C).Values
			want, wantSt, err := level2Ref(newScanPoll(context.Background()), k.N, sel, image, rows*modBytes)
			if err != nil {
				t.Fatal(err)
			}
			var first Stats
			for _, workers := range []int{1, 3} {
				got, st, err := level2Word(newScanPoll(context.Background()), mont, sel, cells, rows, modBytes, Exec{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got.Count() != rows*modBytes || !bytes.Equal(got.Image, want.Image) {
					t.Fatalf("%d-bit C=%d workers=%d: %d ciphertexts differ from the reference's %d", k.N.BitLen(), C, workers, got.Count(), want.Count())
				}
				// The word kernel's products: the reference's, plus the
				// conversions in and out of Montgomery form.
				if st.ModMuls != wantSt.ModMuls+C+rows*modBytes {
					t.Fatalf("%d-bit C=%d: %d multiplications, reference %d", k.N.BitLen(), C, st.ModMuls, wantSt.ModMuls)
				}
				if workers == 1 {
					first = st
				} else if st != first {
					t.Fatalf("%d-bit C=%d: stats %+v on three workers, %+v on one", k.N.BitLen(), C, st, first)
				}
			}
			zeros, zst, err := level2Word(newScanPoll(context.Background()), mont, sel, make([]big.Word, len(cells)), rows, modBytes, Exec{})
			if err != nil || zst != first {
				t.Fatalf("%d-bit C=%d: all-zero cells cost %+v (err %v), random cells %+v", k.N.BitLen(), C, zst, err, first)
			}
			for b, c := range gammasOf(zeros) {
				if c.Cmp(one) != 0 {
					t.Fatalf("%d-bit C=%d: ciphertext %d of the zero image is %v, want the empty product", k.N.BitLen(), C, b, c)
				}
			}
		}
	}
}

// TestRecursiveCancelAnywhere: wherever the deadline is crossed — counted
// in polls on the pinned scan clock, so every poll site is visited: the
// row-vector load, whole groups, the partial runs at the end of a store
// that stops inside a grid row, the conversion out of form, level 2 —
// the batch returns the context error, never an answer, and charges no
// more than the whole scan costs.
func TestRecursiveCancelAnywhere(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 150, 80
	cols := churnColumns(t, 57, nCols, colBytes)
	qs := recursiveBatch(t, k, "cancel-any", nCols, 2)
	store := cols[:95] // grid row 13 ends at column 3; the last group is partial under window 4
	deadline := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	run := func(crossAt int) (int, []*Answer, []Stats, error) {
		polls := 0
		restore := scanclock.Set(func() time.Time {
			polls++
			if crossAt > 0 && polls >= crossAt {
				return deadline
			}
			return deadline.Add(-time.Minute)
		})
		defer restore()
		answers, stats, err := ProcessColumnsRecursiveMultiExecCtx(ctx, store, colBytes, qs, Exec{Window: 4})
		return polls, answers, stats, err
	}
	polls, answers, whole, err := run(0)
	if err != nil || len(answers) != len(qs) || polls < 20 {
		t.Fatalf("uncancelled scan: %d polls, %d answers, err %v", polls, len(answers), err)
	}
	for crossAt := 1; crossAt <= polls; crossAt++ {
		_, answers, stats, err := run(crossAt)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline crossed at poll %d of %d: err %v", crossAt, polls, err)
		}
		if answers != nil {
			t.Fatalf("deadline crossed at poll %d: %d answers came back with the cancellation", crossAt, len(answers))
		}
		for i, st := range stats {
			if st.ModMuls > whole[i].ModMuls || st.TableMuls > st.ModMuls {
				t.Fatalf("deadline crossed at poll %d: query %d charged %+v, the whole scan %+v", crossAt, i, st, whole[i])
			}
		}
	}
}

// TestPowWordsMatchesPowWord: the four-lane exponentiation equals the
// scalar chain residue for residue — random residues, the edges 0, 1 and
// p1−1, both of the key's exponents and a few arbitrary ones, and every
// run length around the lane count, so full lanes and scalar tails both
// run.
func TestPowWordsMatchesPowWord(t *testing.T) {
	d := wordTestKey(t).decoder()
	if !d.word {
		t.Fatal("64-bit key did not select the word decoder")
	}
	rng := rand.New(rand.NewSource(71))
	for _, e := range []uint{d.e, d.e8, 0, 1, 2, 0xdeadbeef, ^uint(0)} {
		for n := 0; n <= 3*powLanes+1; n++ {
			rs := make([]uint, n)
			for i := range rs {
				rs[i] = uint(rng.Uint64()) % d.p
			}
			for i, edge := range []uint{0, d.p - 1, 1} {
				if i < n {
					rs[(i*5)%n] = edge
				}
			}
			want := make([]uint, n)
			for i, r := range rs {
				want[i] = d.powWord(r, e)
			}
			d.powWords(rs, e)
			for i := range rs {
				if rs[i] != want[i] {
					t.Fatalf("exponent %#x, run of %d: lane result %d is %#x, scalar %#x", e, n, i, rs[i], want[i])
				}
			}
		}
	}
}

// TestDecodeRecursiveLanes: answers whose length is no multiple of the
// lane count decode to the stored block; a non-unit planted at each lane
// position of a full lane group, of the scalar tail, and at several
// positions at once is refused by the SMALLEST position, on one decode
// worker and on several; and the decode allocates a handful of times,
// not per ciphertext.
func TestDecodeRecursiveLanes(t *testing.T) {
	k := wordTestKey(t)
	// 1-byte blocks: 64 ciphertexts — with one dropped and re-added the
	// chunk boundaries move; 7-byte blocks: 448 = 256 + 192 ciphertexts.
	for _, colBytes := range []int{1, 7} {
		const nCols = 9
		cols := churnColumns(t, 73, nCols, colBytes)
		q, err := k.NewRecursiveQuery(newDetRand("lanes"), nCols, 5)
		if err != nil {
			t.Fatal(err)
		}
		ans, _, err := recursiveOne(cols, colBytes, q, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		bits, err := k.DecodeRecursive(ans, colBytes)
		if err != nil || !bytes.Equal(ColumnBytes(bits), cols[5]) {
			t.Fatalf("%d-byte blocks: decoded %x (err %v), want %x", colBytes, ColumnBytes(bits), err, cols[5])
		}
		gammas := gammasOf(ans)
		n := len(gammas)
		nonUnit := new(big.Int).Lsh(k.p1, 1)
		for _, planted := range [][]int{{0}, {1}, {2}, {3}, {4}, {n - 1}, {n - 2}, {n - 3}, {n - 4}, {n - 5}, {n - 1, 2}, {7, 6, 5}, {n / 2, n/2 + 1}} {
			forged := slices.Clone(gammas)
			first := n
			for _, pos := range planted {
				forged[pos] = nonUnit
				first = min(first, pos)
			}
			var serr *SymbolError
			if _, err := k.DecodeRecursive(&Answer{Width: ans.Width, Image: packGammas(forged, ans.Width)}, colBytes); !errors.As(err, &serr) || serr.Pos != first {
				t.Fatalf("%d-byte blocks, non-units at %v: got %v, want position %d", colBytes, planted, err, first)
			}
		}
	}
	// Lane groups that straddle a run's end: the symbol pass over every
	// prefix length of an answer, against the scalar symbol.
	d := k.decoder()
	cols := churnColumns(t, 75, 4, 2)
	q, err := k.NewRecursiveQuery(newDetRand("lanes-prefix"), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := recursiveOne(cols, 2, q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 21; n++ {
		raw := make([]byte, n)
		if at := d.symbols(k, ans, 0, raw); at != -1 {
			t.Fatalf("prefix of %d: refused ciphertext %d", n, at)
		}
		for i, c := range gammasOf(ans)[:n] {
			if m, ok := d.symbol(k, c); !ok || raw[i] != m {
				t.Fatalf("prefix of %d: ciphertext %d read %d through the lanes, %d alone (ok=%v)", n, i, raw[i], m, ok)
			}
		}
	}
}

// TestDecodeRecursiveAllocations: decoding one 1 KB block's 65,536
// ciphertexts allocates O(1) times — the image, the bits, the workers.
func TestDecodeRecursiveAllocations(t *testing.T) {
	k := sizedKey(t, 64)
	cols := randomColumns(t, 9, 16, 1024)
	ans, _, err := recursiveOne(cols, 1024, recursiveBatch(t, k, "alloc-rdec", 16, 1)[0], Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() {
		if _, err := k.DecodeRecursive(ans, 1024); err != nil {
			t.Fatal(err)
		}
	}); n > 32 {
		t.Fatalf("DecodeRecursive allocates %v times, want <= 32", n)
	}
}
