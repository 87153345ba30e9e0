package pir

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"embellish/internal/scanclock"
)

// This file is the flat executor: the one serving path for
// Kushilevitz-Ostrovsky answers. ProcessColumnsCtx remains the sequential
// oracle — one modular multiplication per database bit, the paper's
// Section 5.2 cost model — and nothing serves through it. The executor
// answers a batch of k >= 1 queries in ONE scan of the column store (a
// single query is a batch of one) and computes the exact same gammas
// with constant-factor reductions that exploit the algebra, not the
// security assumptions:
//
//   - complement tables: a row's gamma Π_j (bit j set ? v_j : v_j²) is
//     C · Π_{j: bit j clear} v_j with C = Π_j v_j. Columns are grouped w
//     at a time and the 2^w products of each group's values at the clear
//     bits of a pattern are precomputed per query, one multiplication an
//     entry. Every row then multiplies one table entry per group —
//     ~cols/w multiplications per row instead of cols — and C once, on
//     its way out of the form;
//   - shared transposition: a column group's bytes are bit-transposed
//     into one pattern per row (groupPatterns16, table-driven, 2 bytes
//     per row) that feeds all k row scans from cache. The patterns do
//     not depend on the queries, so a Transposition handed in through
//     Exec keeps them for every later scan of the same immutable store:
//     the first complete scan transposes, the rest only fold;
//   - the Montgomery REDC kernel (montgomery.go): query values and
//     tables are converted into Montgomery form once per batch, the row
//     loops multiply word slices with no per-operation quotient or
//     allocation, and the k·rows gammas leave the form in their product
//     with C, straight into each answer's packed image
//     (montKernel.export);
//   - column partitioning: groups are split across a worker pool, each
//     worker computing per-row partial products over its own column
//     range and the product of its values; after the scan each worker
//     recombines its own share of the rows (workers-1 multiplications
//     per row) and exports it.
//
// Every transformation only reassociates the per-row product
// Π_j v_ij mod n; multiplication modulo n is commutative and
// associative, every operand is a canonical residue, and the Montgomery
// form is an exact bijection entered and left by exact multiplications.
// No inverse is taken, so zero and non-unit operands stay exact, and
// the answers are byte-for-byte the oracle's. The privacy argument is
// untouched: the server still evaluates the same function of the same
// uninterpretable query values, and its work is a function of the
// shape alone. A client-chosen modulus the REDC
// kernel rejects (even, tiny, or beyond the wire width ceiling) is
// refused before any of it.

// Exec tunes the executors. The zero value selects a single worker and
// an automatic window.
type Exec struct {
	// Workers is the column-partition worker count; values below 2
	// compute on a single goroutine. Workers beyond the number of
	// column groups are not spawned.
	Workers int
	// Window is the column-group width for the precomputed
	// subset-product tables: 0 picks a width from the batch shape,
	// 1 disables grouping (the per-column multiplication pattern of the
	// oracle), 2..MaxBatchWindow pin the width and a wider pin is clamped
	// to MaxBatchWindow. Level 1 of the recursive executor has ONE rule of
	// its own: a pin in 2..16 is honoured, anything else — 0, 1, wider —
	// means the shape-only recursiveWindow.
	Window int
	// Patterns, when non-nil, is the transposition cache of the column
	// store the flat executor scans; nil transposes every group on every
	// call. The recursive executor ignores it.
	Patterns *Transposition
}

// Transposition caches the row patterns of one immutable column store:
// the groupPatterns16 output of every window-aligned group of a prefix
// of its columns. It is filled lazily by the scan that misses it — each
// worker writes its groups into a fresh slab as it transposes them — and
// published by compare-and-swap once that scan has completed, so a
// cancelled scan publishes nothing and concurrent cold scans never wait
// on each other. A later scan reads a group from it only when the
// published slab holds that group whole, at the scan's window, with the
// same bounds; every other group is transposed per call. A scan that
// covers more columns than the published slab, or the same columns at a
// wider window, replaces it. The zero value is empty; it is safe for
// concurrent use, and must only ever serve one store, whose bytes and
// column height never change. It costs 2 bytes per row per group.
type Transposition struct {
	slab atomic.Pointer[patternSlab]
}

// patternSlab is one transposition: the patterns of groups [0, width)
// of window columns each (the last one ragged), rows patterns a group.
type patternSlab struct {
	width, window, rows int
	pats                []uint16
}

// plan returns the published slab a scan of the first width columns at
// window may read, or — when that scan covers more than the published
// one — a new slab for it to fill. Neither means per-call transposition.
func (t *Transposition) plan(width, window, rows int) (read, fill *patternSlab) {
	if t == nil {
		return nil, nil
	}
	cur := t.slab.Load()
	if cur.below(width, window) {
		groups := (width + window - 1) / window
		return nil, &patternSlab{width: width, window: window, rows: rows, pats: make([]uint16, groups*rows)}
	}
	if cur.window == window && cur.rows == rows {
		return cur, nil
	}
	return nil, nil
}

// below reports whether a scan of width columns at window covers more
// than s: more columns, or the same ones at a wider window. A nil slab
// covers nothing.
func (s *patternSlab) below(width, window int) bool {
	return s == nil || s.width < width || s.width == width && s.window < window
}

// publish installs a slab its scan has filled completely, unless a
// concurrent scan has published one that covers at least as much.
func (t *Transposition) publish(s *patternSlab) {
	for {
		cur := t.slab.Load()
		if !cur.below(s.width, s.window) || t.slab.CompareAndSwap(cur, s) {
			return
		}
	}
}

// holds reports whether s transposed the group [start, end) whole, with
// these bounds; start is a multiple of s's window.
func (s *patternSlab) holds(start, end int) bool {
	return s != nil && start < s.width && end == min(start+s.window, s.width)
}

// group returns the patterns of the group starting at column start.
func (s *patternSlab) group(start int) []uint16 {
	g := start / s.window
	return s.pats[g*s.rows : (g+1)*s.rows : (g+1)*s.rows]
}

// MaxBatchWindow caps the window width: a table holds 2^w entries. The
// per-query optimum (rows + 2^w)/w is 10 at block-sized stores
// (rows = 8192) and reaches the cap at 24,576 rows, a 3 KiB view.
const MaxBatchWindow = 12

// MaxMulti caps the batch width one scan accepts, mirroring the wire
// protocol's batch-frame cap.
const MaxMulti = 64

// Validation errors of the column serving paths.
var (
	errQueryWidth   = errors.New("pir: query width does not match column count")
	errColumnSize   = errors.New("pir: nonpositive column size")
	errEmptyBatch   = errors.New("pir: empty query batch")
	errBatchSize    = errors.New("pir: query batch exceeds MaxMulti")
	errBatchModulus = errors.New("pir: batch queries disagree on modulus")
	errBatchWidth   = errors.New("pir: batch queries disagree on width")
)

// validateColumns is the shared precondition check of the oracle and
// the executor.
func validateColumns(cols [][]byte, colBytes int, q *Query) error {
	if len(q.Values) != len(cols) {
		return errQueryWidth
	}
	if colBytes <= 0 {
		return errColumnSize
	}
	for j, col := range cols {
		if len(col) < colBytes {
			return shortColumnError(j, len(col), colBytes)
		}
	}
	return nil
}

// autoWindowMulti picks the window width from the column height. Per
// column and query a scan at window w folds rows/w products and builds
// (2^w − 2)/w table entries, so it minimises (rows + 2^w)/w: 8 at 1,024
// rows, 10 at 8,192 and the cap at 24,576. Nothing in a batch is
// discounted — every query builds its own table — and the transposition
// the queries share is no product, so the batch width and the worker
// count do not enter (TestAutoWindowMinimizesCountedProducts holds the
// choice to the counted Stats.ModMuls). Memory bounds nothing: each
// worker holds one table, which every query reuses, and at the cap it
// is at most 4 MiB (2^12 entries of mont.MaxWords words).
func autoWindowMulti(rows int) int {
	best, bestCost := 1, int(^uint(0)>>1)
	for w := 1; w <= MaxBatchWindow; w++ {
		if cost := (rows + 1<<w) / w; cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// cancelCheckRows is how many row accumulations a scan performs
// between cancellation polls — small enough that cancellation lands
// within microseconds at realistic moduli, large enough that the atomic
// load in ctx.Done() stays invisible next to the modular multiplies.
const cancelCheckRows = 512

// scanPoll is the cancellation poll every scan loop shares. The Done
// channel alone is not enough: under GOMAXPROCS=1 a busy scan can
// starve the runtime timer that would close it, so the deadline is also
// polled against the scan clock (the same fix the core plans received).
// Read-only after newScanPoll, so workers share one.
type scanPoll struct {
	ctx   context.Context
	done  <-chan struct{}
	dl    time.Time
	hasDL bool
}

func newScanPoll(ctx context.Context) *scanPoll {
	p := &scanPoll{ctx: ctx, done: ctx.Done()}
	p.dl, p.hasDL = ctx.Deadline()
	return p
}

func (p *scanPoll) stopped() bool {
	if p.done != nil {
		select {
		case <-p.done:
			return true
		default:
		}
	}
	return p.hasDL && !scanclock.Now().Before(p.dl)
}

// err is the error a scan reports when its poll fires. The clock check
// can observe an expired deadline before the context's own timer
// goroutine has run, in which case ctx.Err() is still nil — report
// DeadlineExceeded directly rather than a nil error.
func (p *scanPoll) err() error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// canonical returns vs with every operand outside [0, n) reduced — the
// oracle's Mod tolerates such operands, so identity demands the
// executors do too, once, ahead of every kernel. Honest traffic is
// already canonical and comes back uncopied.
func canonical(vs []*big.Int, n *big.Int) []*big.Int {
	copied := false
	for j, v := range vs {
		if v.Sign() >= 0 && v.Cmp(n) < 0 {
			continue
		}
		if !copied {
			vs, copied = append([]*big.Int(nil), vs...), true
		}
		vs[j] = new(big.Int).Mod(v, n)
	}
	return vs
}

// ProcessColumnsMultiExecCtx is the flat executor: it answers every
// query of the batch over the same column store in one database scan,
// returning per-query answers and per-query Stats in batch order. All
// queries must share one modulus and one width; answers are
// byte-identical to len(qs) independent ProcessColumnsCtx runs, while
// Stats.ModMuls counts the multiplications actually performed.
//
// Cancellation is all-or-nothing for the batch: workers poll the
// context (Done channel plus scan-clock deadline) at group boundaries
// and every cancelCheckRows row accumulations, and on cancellation no
// answers are returned — but the per-query Stats still count the
// multiplications actually performed, so abandoned batches are charged
// for the cycles they burned.
func ProcessColumnsMultiExecCtx(ctx context.Context, cols [][]byte, colBytes int, qs []*Query, ex Exec) ([]*Answer, []Stats, error) {
	if len(qs) == 0 {
		return nil, nil, errEmptyBatch
	}
	if len(qs) > MaxMulti {
		return nil, nil, errBatchSize
	}
	n := qs[0].N
	for _, q := range qs[1:] {
		if q.N.Cmp(n) != 0 {
			return nil, nil, errBatchModulus
		}
		if len(q.Values) != len(qs[0].Values) {
			return nil, nil, errBatchWidth
		}
	}
	if err := validateColumns(cols, colBytes, qs[0]); err != nil {
		return nil, nil, err
	}
	// One Montgomery context per batch (read-only, shared by all
	// workers); a modulus without one is refused before any work.
	mont, err := NewMont(n)
	if err != nil {
		return nil, nil, err
	}
	k, rows := len(qs), colBytes*8
	poll := newScanPoll(ctx)
	answers := make([]*Answer, k)
	if len(cols) == 0 {
		// Width zero: every gamma is the empty product and no
		// multiplication runs.
		if poll.stopped() {
			return nil, make([]Stats, k), poll.err()
		}
		for i := range answers {
			a := newAnswer(n, rows)
			for r := range rows {
				a.gamma(r)[a.Width-1] = 1
			}
			answers[i] = a
		}
		return answers, make([]Stats, k), nil
	}
	vals := make([][]*big.Int, k)
	for i, q := range qs {
		vals[i] = canonical(q.Values, n)
	}

	window := ex.Window
	if window <= 0 {
		window = autoWindowMulti(rows)
	}
	window = min(window, MaxBatchWindow, len(cols))
	groups := (len(cols) + window - 1) / window
	workers := min(max(ex.Workers, 1), groups)

	// Partition GROUPS (not raw columns) across workers so every
	// worker's column range is a whole number of windows, and every
	// group's bounds are the same at any worker count.
	read, fill := ex.Patterns.plan(len(cols), window, rows)
	parts := make([]scanPart, workers)
	var wg sync.WaitGroup
	for w := range parts {
		lo := w * groups / workers * window
		hi := min((w+1)*groups/workers*window, len(cols))
		wg.Add(1)
		go func(p *scanPart) {
			defer wg.Done()
			p.kern = newScanKernel(mont, k, hi-lo, rows, window)
			p.scan(poll, cols, vals, colBytes, window, lo, hi, read, fill)
		}(&parts[w])
	}
	wg.Wait()

	// A cancelled worker leaves its multiplication counts but no usable
	// partials, so sum the work first and report the first worker's own
	// error if any stopped.
	if stats, err := tally(parts, k); err != nil {
		return nil, stats, err
	}

	// C per query, from the workers' range products: workers-1
	// multiplications together and one out of the form, so with the
	// loads' 2·width − workers every query pays 2·width for its values
	// at any worker count.
	kw := mont.Words()
	scale := make([]big.Word, k*kw)
	for i := range k {
		c := scale[i*kw : (i+1)*kw]
		copy(c, parts[0].kern.prod[i*kw:(i+1)*kw])
		for _, p := range parts[1:] {
			mont.Mul(c, c, p.kern.prod[i*kw:(i+1)*kw])
		}
		mont.Mul(c, c, mont.one)
	}

	// Every worker recombines and exports its own share of the rows of
	// every answer, under the same cancellation contract as the scan.
	for i := range answers {
		answers[i] = newAnswer(n, rows)
	}
	for w := range parts {
		wg.Add(1)
		go func(p *scanPart) {
			defer wg.Done()
			p.finish(poll, parts, answers, scale, w*rows/workers, (w+1)*rows/workers)
		}(&parts[w])
	}
	wg.Wait()
	stats, err := tally(parts, k)
	for i := range stats {
		stats[i].ModMuls += workers
		stats[i].TableMuls += workers
	}
	if err != nil {
		return nil, stats, err
	}
	if fill != nil {
		ex.Patterns.publish(fill)
	}
	return answers, stats, nil
}

// tally sums the workers' per-query multiplication counts and returns
// the first error a worker stopped on.
func tally(parts []scanPart, k int) ([]Stats, error) {
	stats := make([]Stats, k)
	var err error
	for _, p := range parts {
		for i := range stats {
			stats[i].ModMuls += p.muls[i]
			stats[i].TableMuls += p.tableMuls[i]
		}
		if err == nil {
			err = p.err
		}
	}
	return stats, err
}

// processOne runs the flat executor on a batch of one, for the
// recursive path's level-1 reference and level 2. Their columns are not
// the store's, so no transposition cache applies.
func processOne(ctx context.Context, cols [][]byte, colBytes int, q *Query, ex Exec) (*Answer, Stats, error) {
	ex.Patterns = nil
	answers, stats, err := ProcessColumnsMultiExecCtx(ctx, cols, colBytes, []*Query{q}, ex)
	var st Stats
	if len(stats) > 0 {
		st = stats[0]
	}
	if err != nil {
		return nil, st, err
	}
	return answers[0], st, nil
}

// scanPart is one worker's share of a flat scan: the kernel holding its
// per-query, per-row partial products over its column range, and the
// per-query multiplication counts. A non-nil err means the worker
// stopped on cancellation; the partials are then incomplete and must
// not be recombined, but the counts still record the work performed.
type scanPart struct {
	kern      *montKernel
	muls      []int
	tableMuls []int
	err       error
}

// scan is the group-major one-pass scan over columns [lo, hi), the one
// skeleton the kernel runs under. Per group: take the group's row
// patterns (the per-byte work the batch shares), then for each query
// build its 2^g complement table and fold table[pats[r]] into its
// row accumulators. The patterns come from read when it holds the group,
// are transposed into fill's slot when this scan fills a cache, and are
// transposed into a per-worker buffer otherwise. The multiplication
// order per row is the oracle's column order up to reassociation.
func (p *scanPart) scan(poll *scanPoll, cols [][]byte, vals [][]*big.Int, colBytes, window, lo, hi int, read, fill *patternSlab) {
	k, rows := len(vals), colBytes*8
	p.muls, p.tableMuls = make([]int, k), make([]int, k)
	setup := func(i, muls int) {
		p.muls[i] += muls
		p.tableMuls[i] += muls
	}
	for i, v := range vals {
		for j0 := lo; j0 < hi; j0 += cancelCheckRows {
			if poll.stopped() {
				p.err = poll.err()
				return
			}
			j1 := min(j0+cancelCheckRows, hi)
			p.kern.load(i, j0-lo, v[j0:j1])
			// Into the form, and into the range product past its first
			// value.
			muls := 2 * (j1 - j0)
			if j0 == lo {
				muls--
			}
			setup(i, muls)
		}
	}
	var buf []uint16
	for start := lo; start < hi; start += window {
		if poll.stopped() {
			p.err = poll.err()
			return
		}
		end := min(start+window, hi)
		var pats []uint16
		switch {
		case fill != nil:
			pats = fill.group(start)
			groupPatterns16(cols, start, end, colBytes, pats)
		case read.holds(start, end):
			pats = read.group(start)
		default:
			if buf == nil {
				buf = make([]uint16, rows)
			}
			pats = buf
			groupPatterns16(cols, start, end, colBytes, pats)
		}
		// In a worker's first group the accumulator IS the table entry
		// (the oracle's 1·v first step): no multiplication, no poll.
		first := start == lo
		for i := 0; i < k; i++ {
			// Doubling adds one column per pass: 2^g − 2
			// multiplications for a g-column group.
			p.kern.build(i, start-lo, end-lo)
			setup(i, 1<<(end-start)-2)
			for r0 := 0; r0 < rows; r0 += cancelCheckRows {
				if !first && poll.stopped() {
					p.err = poll.err()
					return
				}
				r1 := min(r0+cancelCheckRows, rows)
				p.kern.fold(i, r0, pats[r0:r1], first)
				if !first {
					p.muls[i] += r1 - r0
				}
			}
		}
	}
}

// finish recombines and exports rows [r0, r1) of every answer: the
// other workers' partials multiplied into this worker's, then each row's
// product with its query's C out of the form into the answer's image —
// scale holds C per query, plain, kw words each. Like the scan it polls
// every cancelCheckRows rows and counts what it performed.
func (p *scanPart) finish(poll *scanPoll, parts []scanPart, answers []*Answer, scale []big.Word, r0, r1 int) {
	kw := p.kern.kw
	for i, ans := range answers {
		for a := r0; a < r1; a += cancelCheckRows {
			if poll.stopped() {
				p.err = poll.err()
				return
			}
			b := min(a+cancelCheckRows, r1)
			for w := range parts {
				if o := &parts[w]; o != p {
					p.kern.merge(o.kern, i, a, b)
					p.muls[i] += b - a
				}
			}
			p.kern.export(i, a, scale[i*kw:(i+1)*kw], ans.Image[a*ans.Width:b*ans.Width], ans.Width)
			p.muls[i] += b - a
			p.tableMuls[i] += b - a
		}
	}
}

// groupPatterns16 transposes columns [start, end) — at most 16 of them —
// into one pattern per row: bit k of pats[r] is column start+k's bit at
// row r. It walks the group byte position by byte position: each column's
// byte is spread through bitSpread into the eight rows it covers, shifted
// to the column's bit and OR-ed into one word per half of the group, and
// the two words unpack into the eight patterns. No branch depends on the
// stored bytes, so text, padding and the recursive level-2 image (random
// bytes) all transpose at the same speed.
func groupPatterns16(cols [][]byte, start, end, colBytes int, pats []uint16) {
	var group [16][]byte
	g := copy(group[:], cols[start:end])
	for k := range group[:g] {
		group[k] = group[k][:colBytes]
	}
	low := min(g, 8)
	pats = pats[:colBytes*8]
	for i := 0; i < colBytes; i++ {
		// The &7 and &15 only show the compiler that shift and index
		// are in range.
		var lo, hi uint64
		for k := 0; k < low; k++ {
			lo |= bitSpread[group[k][i]] << (k & 7)
		}
		for k := 8; k < g; k++ {
			hi |= bitSpread[group[k&15][i]] << (k & 7)
		}
		p := pats[i*8 : i*8+8 : i*8+8]
		p[0] = uint16(lo&0xff) | uint16(hi&0xff)<<8
		p[1] = uint16(lo>>8&0xff) | uint16(hi>>8&0xff)<<8
		p[2] = uint16(lo>>16&0xff) | uint16(hi>>16&0xff)<<8
		p[3] = uint16(lo>>24&0xff) | uint16(hi>>24&0xff)<<8
		p[4] = uint16(lo>>32&0xff) | uint16(hi>>32&0xff)<<8
		p[5] = uint16(lo>>40&0xff) | uint16(hi>>40&0xff)<<8
		p[6] = uint16(lo>>48&0xff) | uint16(hi>>48&0xff)<<8
		p[7] = uint16(lo>>56) | uint16(hi>>56)<<8
	}
}

// bitSpread[b] holds bit 7-j of b in the lowest bit of its byte j: a
// stored byte laid out as the eight rows it covers, most significant bit
// first (the column layout of ProcessColumnsCtx), one byte lane per row.
var bitSpread = func() (t [256]uint64) {
	for b := range t {
		for j := 0; j < 8; j++ {
			t[b] |= uint64(b>>(7-j)&1) << (8 * j)
		}
	}
	return t
}()
