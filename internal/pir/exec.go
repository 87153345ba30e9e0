package pir

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"time"

	"embellish/internal/scanclock"
)

// This file is the flat executor: the one serving path for
// Kushilevitz-Ostrovsky answers. Matrix.Process and ProcessColumnsCtx
// remain the sequential oracle — one modular multiplication per database
// bit, the paper's Section 5.2 cost model — and nothing serves through
// them. The executor answers a batch of k >= 1 queries in ONE scan of
// the column store (a single query is a batch of one) and computes the
// exact same gammas with constant-factor reductions that exploit the
// algebra, not the security assumptions:
//
//   - windowed subset products: columns are grouped w at a time and the
//     2^w possible products of each group (query value at 1-bits,
//     squared value at 0-bits) are precomputed per query. Every row then
//     multiplies one table entry per group — ~cols/w multiplications
//     per row instead of cols;
//   - shared transposition: the database bytes are read and
//     bit-transposed into row patterns once per column group, not once
//     per query (groupPatterns16, table-driven). The pattern buffer
//     (2 bytes/row) then feeds all k row scans from cache;
//   - the Montgomery REDC kernel (montgomery.go): query values and
//     tables are converted into Montgomery form once per batch, the row
//     loops multiply word slices with no per-operation quotient or
//     allocation, and the k·rows gammas convert back out at the end;
//   - column partitioning: groups are split across a worker pool, each
//     worker computing per-row partial products over its own column
//     range, recombined with workers-1 multiplications per row.
//
// Every transformation only reassociates the per-row product
// Π_j v_ij mod n; multiplication modulo n is commutative and
// associative, every operand is a canonical residue, and the Montgomery
// form is an exact bijection entered and left by exact multiplications,
// so the gammas are bit-for-bit the oracle's. The privacy argument is
// untouched: the server still evaluates the same function of the same
// uninterpretable query values. A client-chosen modulus the REDC
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
}

// MaxBatchWindow caps the window width: tables hold 2^w entries per
// group per query. The per-query optimum (rows + 2^(w+1))/w sits at
// w = 9..10 for block-sized stores (rows = 8192).
const MaxBatchWindow = 10

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

// autoWindowMulti picks the window width for a k-query batch. The
// per-column, per-query cost is rows/w row multiplications plus
// 2^(w+1)/w table build, and the build term is charged at 1/k so batches
// push the optimum wider. Nothing a batch shares earns that discount —
// the shared transposition is ~10% of a six-query scan and every query
// builds its own table — but MaxBatchWindow makes it harmless: at 8,192
// rows the model picks 9 for a batch of one and the cap of 10 from k = 2
// up, and undiscounted the two cost the same 1,024 multiplications per
// column. Changing it moves every served window and multiplication
// count, so it waits for a measured re-fit. Also bounded by a ceiling on
// the k simultaneously-live group tables.
func autoWindowMulti(rows, cols, modBytes, k int) int {
	best, bestCost := 1, int(^uint(0)>>1)
	for w := 1; w <= MaxBatchWindow; w++ {
		cost := (rows + (2<<w)/k) / w
		if cost < bestCost {
			best, bestCost = w, cost
		}
	}
	// One group's tables for all k queries are live at a time; keep
	// them comfortably in memory even for wide moduli.
	for best > 1 {
		if int64(k)<<best*int64(modBytes+32) <= 256<<20 {
			break
		}
		best--
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
	stats := make([]Stats, k)
	if len(cols) == 0 {
		// Width zero: every gamma is the empty product and no
		// multiplication runs.
		if poll.stopped() {
			return nil, stats, poll.err()
		}
		for i := range answers {
			gammas := make([]*big.Int, rows)
			for r := range gammas {
				gammas[r] = big.NewInt(1)
			}
			answers[i] = &Answer{Gammas: gammas}
		}
		return answers, stats, nil
	}
	vals := make([][]*big.Int, k)
	for i, q := range qs {
		vals[i] = canonical(q.Values, n)
	}

	window := ex.Window
	if window <= 0 {
		window = autoWindowMulti(rows, len(cols), (n.BitLen()+7)/8, k)
	}
	window = min(window, MaxBatchWindow, len(cols))
	groups := (len(cols) + window - 1) / window
	workers := min(max(ex.Workers, 1), groups)

	// Partition GROUPS (not raw columns) across workers so every
	// worker's column range is a whole number of windows.
	parts := make([]scanPart, workers)
	var wg sync.WaitGroup
	for w := range parts {
		lo := w * groups / workers * window
		hi := min((w+1)*groups/workers*window, len(cols))
		wg.Add(1)
		go func(p *scanPart) {
			defer wg.Done()
			p.kern = newScanKernel(mont, k, hi-lo, rows, window)
			p.scan(poll, cols, vals, colBytes, window, lo, hi)
		}(&parts[w])
	}
	wg.Wait()

	// A cancelled worker leaves its multiplication counts but no usable
	// partials, so sum the work first and report the first worker's own
	// error if any stopped.
	var cancelErr error
	for w := range parts {
		for i := range stats {
			stats[i].ModMuls += parts[w].muls[i]
			stats[i].TableMuls += parts[w].tableMuls[i]
		}
		if parts[w].err != nil && cancelErr == nil {
			cancelErr = parts[w].err
		}
	}
	if cancelErr != nil {
		return nil, stats, cancelErr
	}

	// Recombine the per-partition partials row-wise (workers-1
	// multiplications per row per query, still in kernel form) and
	// export the gammas, under the same cancellation contract as the
	// scan.
	kern := parts[0].kern
	_, exportMuls := kern.costs()
	for i := range answers {
		gammas := make([]*big.Int, rows)
		for r0 := 0; r0 < rows; r0 += cancelCheckRows {
			if poll.stopped() {
				return nil, stats, poll.err()
			}
			r1 := min(r0+cancelCheckRows, rows)
			for _, p := range parts[1:] {
				kern.merge(p.kern, i, r0, r1)
				stats[i].ModMuls += r1 - r0
			}
			kern.export(i, r0, gammas[r0:r1])
			stats[i].ModMuls += exportMuls * (r1 - r0)
			stats[i].TableMuls += exportMuls * (r1 - r0)
		}
		answers[i] = &Answer{Gammas: gammas}
	}
	return answers, stats, nil
}

// processOne runs the flat executor on a batch of one, for the
// recursive path's level-1 reference and level 2.
func processOne(ctx context.Context, cols [][]byte, colBytes int, q *Query, ex Exec) (*Answer, Stats, error) {
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
// skeleton the kernel runs under. Per group: transpose the group's
// database bytes into one pattern per row ONCE (the per-byte work the
// batch shares), then for each query build its 2^g subset-product table
// and fold table[pats[r]] into its row accumulators. The multiplication
// order per row is the oracle's column order up to reassociation.
func (p *scanPart) scan(poll *scanPoll, cols [][]byte, vals [][]*big.Int, colBytes, window, lo, hi int) {
	k, rows := len(vals), colBytes*8
	p.muls, p.tableMuls = make([]int, k), make([]int, k)
	setup := func(i, muls int) {
		p.muls[i] += muls
		p.tableMuls[i] += muls
	}
	loadMuls, _ := p.kern.costs()
	for i, v := range vals {
		for j0 := lo; j0 < hi; j0 += cancelCheckRows {
			if poll.stopped() {
				p.err = poll.err()
				return
			}
			j1 := min(j0+cancelCheckRows, hi)
			p.kern.load(i, j0-lo, v[j0:j1])
			setup(i, loadMuls*(j1-j0))
		}
	}
	pats := make([]uint16, rows)
	for start := lo; start < hi; start += window {
		if poll.stopped() {
			p.err = poll.err()
			return
		}
		end := min(start+window, hi)
		groupPatterns16(cols, start, end, colBytes, pats)
		// In a worker's first group the accumulator IS the table entry
		// (the oracle's 1·v first step): no multiplication, no poll.
		first := start == lo
		for i := 0; i < k; i++ {
			// Doubling adds one column per pass: 2·(2^g − 2)
			// multiplications for a g-column group.
			p.kern.build(i, start-lo, end-lo)
			setup(i, 2*(1<<(end-start)-2))
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
// first (Matrix.SetColumn's layout), one byte lane per row.
var bitSpread = func() (t [256]uint64) {
	for b := range t {
		for j := 0; j < 8; j++ {
			t[b] |= uint64(b>>(7-j)&1) << (8 * j)
		}
	}
	return t
}()
