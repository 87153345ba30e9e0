package pir

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"
)

// This file is the recursive √n serving path: the standard
// Kushilevitz-Ostrovsky recursion applied once, cutting per-query
// upload from n group elements to ~2√n and the per-query scan from
// one table fold per column to one per √n-sized grid column.
//
// The column store is viewed as a gridRows×gridCols grid of blocks,
// block b living at (b/gridCols, b%gridCols). The client sends TWO
// selection vectors instead of one:
//
//   - Rows (length gridRows) selects the target's grid row. The
//     server answers it per grid column: for grid column gc, the
//     sub-database of blocks {g·gridCols+gc} is a flat KO instance of
//     gridRows columns, yielding rows gammas. Level 1 thus produces a
//     gridCols×rows gamma matrix — the flat answers the client WOULD
//     need, one per grid column, but it only wants one of them.
//   - Cols (length gridCols) selects the grid column — privately —
//     over that matrix: each matrix column is serialized to
//     rows·modBytes bytes (fixed-width big-endian gammas), and Cols
//     holds byte-symbol encryptions — 256-th powers x^256 everywhere,
//     y·x^256 at the target (the 2^8-th power residue symbol
//     cryptosystem; ClientKey.y). Per image byte position b the server
//     answers c_b = Π_gc Cols[gc]^(byte b of column gc): every factor
//     off the target is a 256-th power, the target contributes
//     y^(its byte). The answer is rows·modBytes ciphertexts — one per
//     image BYTE, not per bit: the encryption of the encryption of the
//     target block.
//
// The client peels both layers: one exponentiation and a table look-up
// per level-2 ciphertext yield the byte image of the target grid
// column; it is cut into rows fixed-width level-1 gammas, and those are
// Euler-tested into the block's bits. Both levels multiply only
// uninterpretable group elements: level 1's privacy argument is the
// flat one, level 2's the same argument under 2^8-th residuosity
// (docs/THREAT_MODEL.md).
//
// Answers must decode to byte-identical blocks to the flat path on
// the same snapshot — that, not gamma equality (the protocols differ),
// is the correctness spine the conformance battery checks.
//
// Partition mode: a query whose Cols vector is empty asks for level 1
// only — the router in internal/cluster scatters such queries to the
// partitions (each with its own Offset/Span window into the global
// grid), multiplies the partial matrices element-wise, and runs
// RecursiveLevel2 locally. Grid cells OUTSIDE a partition's window
// contribute the multiplicative identity — skipped, not squared — so
// the element-wise product across partitions is exactly the
// single-process matrix, value for value.

// maxRecursiveCells bounds both the level-1 gamma matrix
// (gridCols·rows cells) and the level-2 answer (rows·modBytes
// ciphertexts), matching the wire decoder's 8·MaxBlockSize answer ceiling:
// a hostile shape may not make the server allocate more than the flat
// path ever could.
const maxRecursiveCells = 8 << 20

// Validation errors of the recursive serving path.
var (
	errRecursiveWidth  = errors.New("pir: recursive width must be positive")
	errRecursiveGrid   = errors.New("pir: grid columns outside [1, min(width, 2·ceil(sqrt(width)))]")
	errRecursiveRows   = errors.New("pir: row selection vector does not match the grid")
	errRecursiveCols   = errors.New("pir: column selection vector does not match the grid")
	errRecursiveOffset = errors.New("pir: recursive offset outside the database width")
	errRecursiveSpan   = errors.New("pir: recursive span exceeds the database width")
	errRecursiveShape  = errors.New("pir: batch queries disagree on recursive shape")
	errRecursiveMatrix = errors.New("pir: level-1 matrix does not match the grid")
	errRecursiveCells  = errors.New("pir: recursive grid exceeds the cell ceiling")
)

// recursiveSpanError is the refusal a partition returns when a query's
// Span claims more blocks than the partition holds — the symptom of a
// router scattering against a re-partitioned cluster with a stale map.
func recursiveSpanError(span, stored int) error {
	return fmt.Errorf("pir: recursive span %d exceeds the %d stored blocks (was the cluster re-partitioned?)", span, stored)
}

// RecursiveQuery is the client→server message of the recursive path.
type RecursiveQuery struct {
	N *big.Int
	// Width is the GLOBAL database width in blocks the grid covers;
	// the grid has gridRows(Width, GridCols)×GridCols cells, the last
	// partial grid row padded with absent cells.
	Width    int
	GridCols int
	// Offset and Span window the grid onto this server's column store:
	// the store's block j is grid cell Offset+j, and Span (0 = auto:
	// everything the store holds within Width) is the exact number of
	// blocks to serve. Single-process serving uses the zero values;
	// the cluster router sets both from its partition map, and a
	// partition holding fewer than Span blocks refuses rather than
	// silently serving cells that belong to its neighbour.
	Offset int
	Span   int
	// Rows selects the target grid row (length gridRows). Cols selects
	// the target grid column (length GridCols) — or is empty for
	// level-1-only partition mode, answered with the raw gamma matrix
	// in grid-column-major order.
	Rows []*big.Int
	Cols []*big.Int
}

// ceilSqrt returns ⌈√n⌉ exactly (the float sqrt is only a seed; the
// integer fixups make word-boundary squares come out right).
func ceilSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	s := int(math.Sqrt(float64(n)))
	for s*s < n {
		s++
	}
	for s > 1 && (s-1)*(s-1) >= n {
		s--
	}
	return s
}

// gridRows returns the grid-row count of a width-block database under
// gridCols grid columns.
func gridRows(width, gridCols int) int {
	return (width + gridCols - 1) / gridCols
}

// RecursiveGrid returns the default grid shape for a width-block
// database: gridCols ≈ √width/2 and gridRows ≈ 2√width. The asymmetry
// is deliberate: level 2 re-serves gridCols columns of rows·modBytes
// bytes each, so its scan cost grows with gridCols while level 1's
// table-build cost grows with gridRows — and level-1 work is amortized
// across the whole batch by the shared transposition, making grid rows
// the cheaper dimension. Upload stays gridRows+gridCols ≤ 2.5·⌈√width⌉
// group elements, within the 3√n budget.
func RecursiveGrid(width int) (rows, cols int) {
	if width <= 0 {
		return 0, 0
	}
	cols = (ceilSqrt(width) + 1) / 2
	if cols < 1 {
		cols = 1
	}
	return gridRows(width, cols), cols
}

// maxRecursiveWindow caps the level-1 window at the widest group the
// shared transposition takes (groupPatterns16).
const maxRecursiveWindow = 16

// recursiveWindow sizes level 1's grid-row window from the shape alone:
// the w <= 16 minimising the products one query costs,
//
//	⌈R/w⌉ · (workers·2^(w+1) + C·rows)
//
// — per group, every worker builds its own 2^w-entry subset table (two
// products an entry) and every cell of the C×rows matrix takes one fold.
// The flat scan's optimum does not carry over: there a group's table
// serves one fold per row, here it serves C of them, so the build
// amortises over C·rows products and the window goes wider (13 at the
// repository benchmark's 155×39 grid of 8,192-row blocks, where the flat
// scan caps at 10). No statistics, no option: decided by shape.
func recursiveWindow(R, C, rows, workers int) int {
	best, bestCost := 1, int64(math.MaxInt64)
	for w := 1; w <= min(maxRecursiveWindow, R); w++ {
		groups := int64((R + w - 1) / w)
		cost := groups * (int64(workers)<<(w+1) + int64(C)*int64(rows))
		if cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// NewRecursiveQuery builds a query retrieving block target out of
// width blocks, under the RecursiveGrid shape. Rows is a KO bit vector:
// QR everywhere except a Jacobi-(+1) QNR at the target's grid row. Cols
// is a byte-symbol vector: 256-th powers everywhere except y times one
// at the target's grid column.
func (k *ClientKey) NewRecursiveQuery(randSrc io.Reader, width, target int) (*RecursiveQuery, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if width < 1 {
		return nil, errRecursiveWidth
	}
	if target < 0 || target >= width {
		return nil, errors.New("pir: target block out of range")
	}
	gr, gc := RecursiveGrid(width)
	rows, err := k.selection(randSrc, gr, target/gc)
	if err != nil {
		return nil, err
	}
	cols, err := k.symbolSelection(randSrc, gc, target%gc)
	if err != nil {
		return nil, err
	}
	return &RecursiveQuery{N: k.N, Width: width, GridCols: gc, Rows: rows, Cols: cols}, nil
}

// validateRecursiveShape checks one query's internal consistency —
// the hostile-shape guards every serving entry point runs before
// allocating anything proportional to the claimed dimensions.
func validateRecursiveShape(q *RecursiveQuery) error {
	if q.Width < 1 {
		return errRecursiveWidth
	}
	if q.GridCols < 1 || q.GridCols > q.Width || q.GridCols > 2*ceilSqrt(q.Width) {
		return errRecursiveGrid
	}
	if len(q.Rows) != gridRows(q.Width, q.GridCols) {
		return errRecursiveRows
	}
	if len(q.Cols) != 0 && len(q.Cols) != q.GridCols {
		return errRecursiveCols
	}
	if q.Offset < 0 || q.Offset >= q.Width {
		return errRecursiveOffset
	}
	if q.Span < 0 || q.Offset+q.Span > q.Width {
		return errRecursiveSpan
	}
	return nil
}

// presentRange returns the grid rows in [g0, g1) whose cell at grid
// column gc falls inside the served window [off, off+w): cell (g, gc)
// is global block g·C+gc. Present cells are always one contiguous run
// per (group, grid column) — the window is an interval and g·C+gc is
// monotone in g — so the scan folds a subset table over exactly the run
// and absent cells contribute the multiplicative identity (NOT a square:
// identity is what makes partition partials combine to the
// single-process matrix). Both ends of the run are non-increasing in gc,
// so one group sees at most three distinct runs across the grid columns.
func presentRange(g0, g1, gc, C, off, w int) (int, int) {
	if w <= 0 {
		return 0, 0
	}
	lo := g0
	if off > gc {
		if m := (off - gc + C - 1) / C; m > lo {
			lo = m
		}
	}
	last := off + w - 1 - gc
	if last < 0 {
		return 0, 0
	}
	hi := last/C + 1
	if hi > g1 {
		hi = g1
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}

// recShape is the resolved geometry one batch serves under: the grid,
// the window of the store actually served, and the block row count.
type recShape struct {
	gridRows, gridCols int
	offset, window     int // local window: cols[:window] are the served blocks
	rows               int // bit rows per block, colBytes·8
}

// ProcessColumnsRecursiveMultiExecCtx is the recursive executor: it
// answers every recursive query of the batch (k >= 1) in one pass per
// level, sharing the level-1 transposition across the batch exactly as
// the flat executor shares the flat one. All queries must agree on
// modulus and shape, and a modulus without a Montgomery form is refused
// before any work, as the flat executor refuses it. Single-word moduli
// run on the montMulWord kernel; wider ones on the reference (level 1
// as one batch-of-one flat scan per grid column, level 2 in big.Int),
// so every modulus the flat executor serves, this serves too.
//
// The store may hold FEWER blocks than Width−Offset: missing cells are
// absent (identity), which is how a partition serves its slice of the
// global grid. It may also hold MORE: with Span set, exactly Span
// blocks are served and a Span beyond the store is refused (the stale
// cluster-map symptom); with Span zero the store is clamped to the
// grid.
//
// Cancellation is all-or-nothing per batch with partial Stats, the
// contract of the flat executor.
func ProcessColumnsRecursiveMultiExecCtx(ctx context.Context, cols [][]byte, colBytes int, qs []*RecursiveQuery, ex Exec) ([]*Answer, []Stats, error) {
	if len(qs) == 0 {
		return nil, nil, errEmptyBatch
	}
	if len(qs) > MaxMulti {
		return nil, nil, errBatchSize
	}
	q0 := qs[0]
	if err := validateRecursiveShape(q0); err != nil {
		return nil, nil, err
	}
	for _, q := range qs[1:] {
		if q.N.Cmp(q0.N) != 0 {
			return nil, nil, errBatchModulus
		}
		if q.Width != q0.Width || q.GridCols != q0.GridCols ||
			q.Offset != q0.Offset || q.Span != q0.Span ||
			len(q.Rows) != len(q0.Rows) || len(q.Cols) != len(q0.Cols) {
			return nil, nil, errRecursiveShape
		}
	}
	mont, err := NewMont(q0.N)
	if err != nil {
		return nil, nil, err
	}
	if colBytes <= 0 {
		return nil, nil, errColumnSize
	}
	rows := colBytes * 8
	C := q0.GridCols
	R := len(q0.Rows)
	modBytes := (q0.N.BitLen() + 7) / 8
	if int64(C)*int64(rows) > maxRecursiveCells {
		return nil, nil, errRecursiveCells
	}
	if len(q0.Cols) != 0 && int64(rows)*int64(modBytes) > maxRecursiveCells {
		return nil, nil, errRecursiveCells
	}
	w := q0.Span
	if w > 0 {
		if w > len(cols) {
			return nil, nil, recursiveSpanError(w, len(cols))
		}
	} else {
		w = q0.Width - q0.Offset
		if w > len(cols) {
			w = len(cols)
		}
	}
	for j := 0; j < w; j++ {
		if len(cols[j]) < colBytes {
			return nil, nil, shortColumnError(j, len(cols[j]), colBytes)
		}
	}
	sh := recShape{gridRows: R, gridCols: C, offset: q0.Offset, window: w, rows: rows}

	k := len(qs)
	answers := make([]*Answer, k)
	stats := make([]Stats, k)

	if mont.Words() == 1 {
		// Chunk the batch so at most ~128 MiB of gamma matrices (one
		// word per cell) are live at once; within a chunk level 1 runs
		// all queries in one pass.
		perQuery := int64(C) * int64(rows) * 8
		live := int((128 << 20) / (perQuery + 1))
		if live < 1 {
			live = 1
		}
		if live > 8 {
			live = 8
		}
		for base := 0; base < k; base += live {
			end := base + live
			if end > k {
				end = k
			}
			if err := recursiveChunkWord(ctx, cols, colBytes, qs[base:end], ex, sh, mont,
				answers[base:end], stats[base:end]); err != nil {
				return nil, stats, err
			}
		}
		return answers, stats, nil
	}

	// Reference path: slower, but it is the one path for a multi-word
	// modulus (an honest key wider than a word), and its answers define
	// what the fast path must equal.
	for i, q := range qs {
		ans, st, err := recursiveRefOne(ctx, cols, colBytes, q, ex, sh)
		stats[i] = st
		if err != nil {
			return nil, stats, err
		}
		answers[i] = ans
	}
	return answers, stats, nil
}

// recursivePartial carries one level-1 worker's per-query work counts;
// the gamma cells themselves land directly in the chunk's shared
// matrices (workers own disjoint grid-column ranges, so no recombine
// multiplication is ever needed — the partition dividend of slicing by
// grid column instead of by group).
type recursivePartial struct {
	muls      []int
	tableMuls []int
	err       error
}

// recursiveChunkWord runs level 1 for one chunk of the batch on the
// one-word Montgomery kernel and finishes each query with level 2 (or
// the raw matrix in partition mode).
func recursiveChunkWord(ctx context.Context, cols [][]byte, colBytes int, qs []*RecursiveQuery, ex Exec, sh recShape, mont *Mont, outAns []*Answer, outSt []Stats) error {
	k := len(qs)
	R, C, rows := sh.gridRows, sh.gridCols, sh.rows
	nW := uint(mont.n[0])
	ninv := uint(mont.n0inv)
	oneM := big.Word(montMulWord(1, uint(mont.rr[0]), nW, ninv))

	poll := newScanPoll(ctx)

	// Row-vector values into Montgomery form, squared there — 2
	// multiplications per grid row per query, the recursive dividend:
	// the flat path pays this per COLUMN (n of them), level 1 per grid
	// row (√n-ish).
	mv1 := make([][]big.Word, k)
	msq1 := make([][]big.Word, k)
	for i := 0; i < k; i++ {
		mv1[i] = make([]big.Word, R)
		msq1[i] = make([]big.Word, R)
		for g, v := range canonical(qs[i].Rows, mont.nInt) {
			if g&(cancelCheckRows-1) == 0 && poll.stopped() {
				return poll.err()
			}
			mw, _ := mont.ToMont(v)
			mv1[i][g] = mw[0]
			msq1[i][g] = big.Word(montMulWord(uint(mw[0]), uint(mw[0]), nW, ninv))
			outSt[i].ModMuls += 2
			outSt[i].TableMuls += 2
		}
	}

	workers := min(max(ex.Workers, 1), C)
	win := ex.Window
	if win < 2 || win > maxRecursiveWindow {
		win = recursiveWindow(R, C, rows, workers)
	}
	win = min(win, R)

	// One gamma matrix per query in one slab, grid-column-major: query
	// i's cell (gc, r) is mat[(i·C+gc)·rows+r]. Level 1 leaves it in
	// Montgomery form and each worker then takes its own grid columns out
	// of form in place — the canonical cells ARE the level-2 image (read
	// a byte at a time, most significant first), so no serialized copy is
	// ever made.
	mat := make([]big.Word, k*C*rows)
	parts := make([]recursivePartial, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		c0 := wk * C / workers
		c1 := (wk + 1) * C / workers
		wg.Add(1)
		go func(part *recursivePartial, c0, c1 int) {
			defer wg.Done()
			*part = recursiveLevel1Word(poll, cols, colBytes, sh, win, nW, ninv, oneM, mv1, msq1, mat, c0, c1)
			if part.err == nil {
				canonicalColumns(poll, mat, C, c0, c1, rows, nW, ninv, part)
			}
		}(&parts[wk], c0, c1)
	}
	wg.Wait()

	var cancelErr error
	for wkr := range parts {
		for i := 0; i < k; i++ {
			outSt[i].ModMuls += parts[wkr].muls[i]
			outSt[i].TableMuls += parts[wkr].tableMuls[i]
		}
		if parts[wkr].err != nil && cancelErr == nil {
			cancelErr = parts[wkr].err
		}
	}
	if cancelErr != nil {
		return cancelErr
	}

	modBytes := (qs[0].N.BitLen() + 7) / 8
	for i, q := range qs {
		cells := mat[i*C*rows : (i+1)*C*rows]
		if len(q.Cols) == 0 {
			// Partition mode: the canonical matrix itself is the answer,
			// its words the gammas' own.
			outAns[i] = &Answer{Gammas: wordGammas(cells)}
			continue
		}
		ans2, st2, err := level2Word(poll, mont, q.Cols, cells, rows, modBytes, ex)
		outSt[i].ModMuls += st2.ModMuls
		outSt[i].TableMuls += st2.TableMuls
		if err != nil {
			return err
		}
		outAns[i] = ans2
	}
	return nil
}

// wordGammas hands a slab of canonical one-word residues out as gammas:
// one big.Int header slab over the words themselves, no copy.
func wordGammas(words []big.Word) []*big.Int {
	ints := make([]big.Int, len(words))
	gammas := make([]*big.Int, len(words))
	for i := range words {
		gammas[i] = ints[i].SetBits(words[i : i+1 : i+1])
	}
	return gammas
}

// canonicalColumns takes grid columns [c0, c1) of every query's gamma
// matrix out of Montgomery form in place, one multiplication per cell,
// polled between runs of cancelCheckRows cells like the fold.
func canonicalColumns(poll *scanPoll, mat []big.Word, C, c0, c1, rows int, nW, ninv uint, p *recursivePartial) {
	for i := range p.muls {
		cells := mat[(i*C+c0)*rows : (i*C+c1)*rows]
		for r0 := 0; r0 < len(cells); r0 += cancelCheckRows {
			if poll.stopped() {
				p.err = poll.err()
				return
			}
			run := cells[r0:min(r0+cancelCheckRows, len(cells))]
			for r, cell := range run {
				run[r] = big.Word(montMulWordSel(uint(cell), 1, nW, ninv))
			}
			p.muls[i] += len(run)
			p.tableMuls[i] += len(run)
		}
	}
}

// recursiveLevel1Word is one worker's level-1 scan over grid columns
// [c0, c1): group-major over grid-row windows of win rows. Per (group,
// grid column) the present grid rows are one run [lo, hi) (presentRange):
// the whole group everywhere but at the edges of the served window. The
// worker keeps the subset tables of ONE run per query — built when the
// run changes, which both ends being monotone in gc bounds at three
// builds per group, one in the interior — and every grid column folds
// them through its transposed pattern buffer. A window edge is therefore
// a smaller table, not a different loop: absent cells contribute the
// identity by being left out of the table, and no product, load or
// branch of the scan depends on a stored bit. Grid columns no present
// cell ever touches come out as identity.
func recursiveLevel1Word(poll *scanPoll, cols [][]byte, colBytes int, sh recShape, win int, nW, ninv uint, oneM big.Word, mv1, msq1 [][]big.Word, mat []big.Word, c0, c1 int) recursivePartial {
	k := len(mv1)
	R, C, rows := sh.gridRows, sh.gridCols, sh.rows
	off, w := sh.offset, sh.window
	p := recursivePartial{muls: make([]int, k), tableMuls: make([]int, k)}
	stop := func() bool {
		if poll.stopped() {
			p.err = poll.err()
			return true
		}
		return false
	}

	pats := make([]uint16, rows)
	sub := make([][]byte, win)
	tbl := make([]big.Word, k<<win)
	inited := make([]bool, c1-c0)
	for g0 := 0; g0 < R; g0 += win {
		if stop() {
			return p
		}
		g1 := min(g0+win, R)
		tblLo, tblHi := 0, 0 // the run the tables hold; none yet
		for gc := c0; gc < c1; gc++ {
			lo, hi := presentRange(g0, g1, gc, C, off, w)
			if lo >= hi {
				continue
			}
			if lo != tblLo || hi != tblHi {
				// The flat scan's table build, over the run. Each worker
				// builds its own copy — table multiplications are counted
				// where they are performed, so the counts are a function
				// of shape, window and worker count only.
				for i := 0; i < k; i++ {
					wordTable(tbl[i<<win:], mv1[i][lo:hi], msq1[i][lo:hi], nW, ninv)
					p.muls[i] += 2 * (1<<(hi-lo) - 2)
					p.tableMuls[i] += 2 * (1<<(hi-lo) - 2)
				}
				tblLo, tblHi = lo, hi
			}
			for t := range sub[:hi-lo] {
				sub[t] = cols[(lo+t)*C+gc-off]
			}
			groupPatterns16(sub, 0, hi-lo, colBytes, pats)
			// First touch: the accumulator IS the table entry (the
			// 1·v first step), no multiplication.
			first := !inited[gc-c0]
			for i := 0; i < k; i++ {
				a := mat[(i*C+gc)*rows : (i*C+gc+1)*rows]
				for r0 := 0; r0 < rows; r0 += cancelCheckRows {
					if !first && stop() {
						return p
					}
					r1 := min(r0+cancelCheckRows, rows)
					wordFold(a[r0:r1], tbl[i<<win:], pats[r0:r1], first, nW, ninv)
					if !first {
						p.muls[i] += r1 - r0
					}
				}
			}
			inited[gc-c0] = true
		}
	}
	// Grid columns with no present cell at all (partition slices, or a
	// store shorter than the grid): identity, in form.
	for gc := c0; gc < c1; gc++ {
		if inited[gc-c0] {
			continue
		}
		for i := 0; i < k; i++ {
			a := mat[(i*C+gc)*rows : (i*C+gc+1)*rows]
			for r := range a {
				a[r] = oneM
			}
		}
	}
	return p
}

// recursiveRefOne is the reference recursive answer for one query:
// level 1 as gridCols batch-of-one flat scans over the strided
// sub-databases, level 2 through level2Ref. Used for every multi-word
// modulus, and by the tests as the oracle the fast path
// must match ciphertext for ciphertext.
func recursiveRefOne(ctx context.Context, cols [][]byte, colBytes int, q *RecursiveQuery, ex Exec, sh recShape) (*Answer, Stats, error) {
	R, C, rows := sh.gridRows, sh.gridCols, sh.rows
	var st Stats
	matrix := make([]*big.Int, C*rows)
	for gc := 0; gc < C; gc++ {
		lo, hi := presentRange(0, R, gc, C, sh.offset, sh.window)
		sub := make([][]byte, hi-lo)
		for t := range sub {
			sub[t] = cols[(lo+t)*C+gc-sh.offset]
		}
		// An empty sub-database (fully absent grid column) is the flat
		// executor's width-zero case: all-ones gammas, the identity cells.
		ans1, st1, err := processOne(ctx, sub, colBytes, &Query{N: q.N, Values: q.Rows[lo:hi]}, ex)
		st.ModMuls += st1.ModMuls
		st.TableMuls += st1.TableMuls
		if err != nil {
			return nil, st, err
		}
		copy(matrix[gc*rows:(gc+1)*rows], ans1.Gammas)
	}
	if len(q.Cols) == 0 {
		return &Answer{Gammas: matrix}, st, nil
	}
	modBytes := (q.N.BitLen() + 7) / 8
	ans2, st2, err := level2Ref(newScanPoll(ctx), q.N, q.Cols, matrixImage(matrix, q.N, C, rows, modBytes), rows*modBytes)
	st.ModMuls += st2.ModMuls
	st.TableMuls += st2.TableMuls
	if err != nil {
		return nil, st, err
	}
	return ans2, st, nil
}

// imageCell returns the value a matrix cell contributes to the level-2
// image: the cell itself, or — defensively, matching the flat paths'
// tolerance — its residue when it is negative or would not fit its
// modBytes-wide slot.
func imageCell(g, n *big.Int, modBytes int) *big.Int {
	if g.Sign() < 0 || g.BitLen() > 8*modBytes {
		return new(big.Int).Mod(g, n)
	}
	return g
}

// matrixImage lays a level-1 gamma matrix (grid-column-major) out as
// the level-2 image the reference serves from: per grid column, its rows
// gammas as fixed-width big-endian bytes.
func matrixImage(matrix []*big.Int, n *big.Int, C, rows, modBytes int) [][]byte {
	image := make([][]byte, C)
	for gc := range image {
		buf := make([]byte, rows*modBytes)
		for r := 0; r < rows; r++ {
			imageCell(matrix[gc*rows+r], n, modBytes).FillBytes(buf[r*modBytes : (r+1)*modBytes])
		}
		image[gc] = buf
	}
	return image
}

// RecursiveLevel2 serves the second level of the recursion over an
// already-computed level-1 gamma matrix (grid-column-major,
// gridCols·colBytes·8 cells): the matrix is laid out as the byte image
// and re-encrypted a byte per ciphertext against q.Cols. The cluster
// router calls this after combining partition partials; the in-process
// paths run the same two kernels behind their own level 1. Matrix cells
// must be canonical residues. A modulus without a Montgomery form is
// refused before any work.
func RecursiveLevel2(ctx context.Context, q *RecursiveQuery, matrix []*big.Int, colBytes int, ex Exec) (*Answer, Stats, error) {
	if len(q.Cols) != q.GridCols {
		return nil, Stats{}, errRecursiveCols
	}
	if colBytes <= 0 {
		return nil, Stats{}, errColumnSize
	}
	rows := colBytes * 8
	C := q.GridCols
	if len(matrix) != C*rows {
		return nil, Stats{}, errRecursiveMatrix
	}
	modBytes := (q.N.BitLen() + 7) / 8
	if int64(rows)*int64(modBytes) > maxRecursiveCells {
		return nil, Stats{}, errRecursiveCells
	}
	mont, err := NewMont(q.N)
	if err != nil {
		return nil, Stats{}, err
	}
	poll := newScanPoll(ctx)
	if mont.Words() == 1 {
		cells := make([]big.Word, len(matrix))
		for i, g := range matrix {
			if w := imageCell(g, q.N, modBytes).Bits(); len(w) == 1 {
				cells[i] = w[0]
			}
		}
		return level2Word(poll, mont, q.Cols, cells, rows, modBytes, ex)
	}
	return level2Ref(poll, q.N, q.Cols, matrixImage(matrix, q.N, C, rows, modBytes), rows*modBytes)
}

// level2TileBytes is how many image bytes one level-2 tile covers: a
// tile's accumulators (one word per byte, 16 KiB) stay in L1 while every
// image column is folded into them.
const level2TileBytes = 2048

// level2Word is the packed level 2 on the one-word kernel. cells is the
// canonical gamma matrix, C grid columns of rows one-word cells; the
// image it stands for — each cell's modBytes big-endian bytes — is never
// laid out whole: a worker serializes one tile's stretch of a column
// (putCells) as it folds it. The answer is rows·modBytes ciphertexts,
// c_b = Π_gc sel[gc]^(byte b of column gc). Per column the 256 powers
// sel[gc]^v are tabulated once, and every (byte, column) pair is then one
// table look-up and one product — C per ciphertext with the conversion
// out, no bit transposition and no exponent loop.
//
// The image is cut into tiles of about level2TileBytes (whole cells) and
// the TILES are split across ex.Workers, each ciphertext computed whole
// by one worker — no per-row merge; a tile takes its image columns two
// per pass, halving the accumulator loads and stores of the same C−1
// products. The tables are indexed by database bytes only and every
// look-up multiplies (the power 0 is the identity, multiplied like any
// other), so the multiplication count is a function of the shape alone.
func level2Word(poll *scanPoll, mont *Mont, sel []*big.Int, cells []big.Word, rows, modBytes int, ex Exec) (*Answer, Stats, error) {
	nW, ninv := uint(mont.n[0]), uint(mont.n0inv)
	C := len(sel)
	imgBytes := rows * modBytes
	var st Stats

	// pow[gc][v] = sel[gc]^v, in Montgomery form: one conversion in and
	// 254 products per column.
	pow := make([][1 << packBits]big.Word, C)
	oneM := big.Word(montMulWord(1, uint(mont.rr[0]), nW, ninv))
	for gc, v := range canonical(sel, mont.nInt) {
		mw, _ := mont.ToMont(v)
		t := &pow[gc]
		t[0], t[1] = oneM, mw[0]
		for m := 2; m < len(t); m++ {
			t[m] = big.Word(montMulWord(uint(t[m-1]), uint(mw[0]), nW, ninv))
		}
	}
	setup := C * (1<<packBits - 1)
	st.ModMuls, st.TableMuls = setup, setup
	if poll.stopped() {
		return nil, st, poll.err()
	}

	out := make([]big.Word, imgBytes)
	tileCells := max(level2TileBytes/modBytes, 1)
	tiles := (rows + tileCells - 1) / tileCells
	workers := min(max(ex.Workers, 1), tiles)
	muls := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			// The tile's stretch of two image columns, serialized as it
			// is needed: the only form the image ever takes.
			var img, img2 [level2TileBytes]byte
			for tile := wk * tiles / workers; tile < (wk+1)*tiles/workers; tile++ {
				r0 := tile * tileCells
				r1 := min(r0+tileCells, rows)
				// The tile's slice of the answer slab is its accumulator.
				// The first column's power IS the accumulator: no
				// multiplication.
				acc := out[r0*modBytes : r1*modBytes]
				col := putCells(img[:], cells[r0:r1], modBytes)
				for b := range acc {
					acc[b] = pow[0][col[b]]
				}
				for gc := 1; gc < C; gc += 2 {
					if poll.stopped() {
						muls[wk] += len(acc) * (gc - 1)
						errs[wk] = poll.err()
						return
					}
					col, t := putCells(img[:], cells[gc*rows+r0:gc*rows+r1], modBytes), &pow[gc]
					if gc+1 == C {
						// An even C leaves one column for a pass of its own.
						for b := range acc {
							acc[b] = big.Word(montMulWordSel(uint(acc[b]), uint(t[col[b]]), nW, ninv))
						}
						break
					}
					col2, t2 := putCells(img2[:], cells[(gc+1)*rows+r0:(gc+1)*rows+r1], modBytes), &pow[gc+1]
					for b := range acc {
						x := montMulWordSel(uint(acc[b]), uint(t[col[b]]), nW, ninv)
						acc[b] = big.Word(montMulWordSel(x, uint(t2[col2[b]]), nW, ninv))
					}
				}
				for b, a := range acc {
					acc[b] = big.Word(montMulWordSel(uint(a), 1, nW, ninv))
				}
				muls[wk] += len(acc) * C
			}
		}(wk)
	}
	wg.Wait()
	var cancelErr error
	for wk := range muls {
		st.ModMuls += muls[wk]
		if errs[wk] != nil && cancelErr == nil {
			cancelErr = errs[wk]
		}
	}
	if cancelErr != nil {
		return nil, st, cancelErr
	}
	st.TableMuls += imgBytes // the conversions out
	return &Answer{Gammas: wordGammas(out)}, st, nil
}

// putCells serializes canonical one-word cells into consecutive
// modBytes-wide big-endian slots of buf and returns the bytes written. A
// word-wide modulus — every 64-bit key — stores whole words.
func putCells(buf []byte, cells []big.Word, modBytes int) []byte {
	buf = buf[:len(cells)*modBytes]
	if modBytes == 8 {
		for r, cell := range cells {
			binary.BigEndian.PutUint64(buf[r*8:r*8+8], uint64(cell))
		}
		return buf
	}
	for r, cell := range cells {
		slot := buf[r*modBytes : (r+1)*modBytes]
		for b := modBytes - 1; b >= 0; b-- {
			slot[b] = byte(cell)
			cell >>= 8
		}
	}
	return buf
}

// level2Ref is the packed level 2 in big.Int, for every multi-word
// modulus — and the oracle level2Word must equal ciphertext
// for ciphertext: the same power tables and the same one multiplication
// per (byte, column), sequential and out of Montgomery form throughout.
func level2Ref(poll *scanPoll, n *big.Int, sel []*big.Int, image [][]byte, imgBytes int) (*Answer, Stats, error) {
	// mulMod sets dst = a·b mod n through reused scratch; dst may alias
	// a or b. Operands are canonical, so QuoRem's remainder is the
	// canonical residue.
	var prod, quo big.Int
	mulMod := func(dst, a, b *big.Int) {
		prod.Mul(a, b)
		quo.QuoRem(&prod, n, dst)
	}
	var st Stats
	pow := make([][1 << packBits]big.Int, len(image))
	for gc, v := range canonical(sel, n) {
		if poll.stopped() {
			return nil, st, poll.err()
		}
		pow[gc][0].Mod(one, n)
		pow[gc][1].Set(v)
		for m := 2; m < 1<<packBits; m++ {
			mulMod(&pow[gc][m], &pow[gc][m-1], v)
		}
		st.ModMuls += 1<<packBits - 2
		st.TableMuls += 1<<packBits - 2
	}
	cts := make([]big.Int, imgBytes)
	gammas := make([]*big.Int, imgBytes)
	for b := range cts {
		if b&63 == 0 && poll.stopped() {
			return nil, st, poll.err()
		}
		c := &cts[b]
		c.Set(&pow[0][image[0][b]])
		for gc := 1; gc < len(image); gc++ {
			mulMod(c, c, &pow[gc][image[gc][b]])
		}
		st.ModMuls += len(image) - 1
		gammas[b] = c
	}
	return &Answer{Gammas: gammas}, st, nil
}
