package pir

import (
	"context"
	"crypto/rand"
	"errors"
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

// maxRecursiveCells bounds both the level-1 gamma matrix
// (gridCols·rows cells) and the level-2 answer (rows·modBytes
// ciphertexts), matching the wire decoder's 8·MaxBlockSize answer ceiling:
// a hostile shape may not make the server allocate more than the flat
// path ever could.
const maxRecursiveCells = 8 << 20

// Validation errors of the recursive serving path.
var (
	errRecursiveWidth = errors.New("pir: recursive width must be positive")
	errRecursiveGrid  = errors.New("pir: grid columns outside [1, min(width, 2·ceil(sqrt(width)))]")
	errRecursiveRows  = errors.New("pir: row selection vector does not match the grid")
	errRecursiveCols  = errors.New("pir: column selection vector does not match the grid")
	errRecursiveShape = errors.New("pir: batch queries disagree on recursive shape")
	errRecursiveCells = errors.New("pir: recursive grid exceeds the cell ceiling")
)

// RecursiveQuery is the client→server message of the recursive path.
type RecursiveQuery struct {
	N *big.Int
	// Width is the database width in blocks the grid covers; the grid
	// has gridRows(Width, GridCols)×GridCols cells, the last partial
	// grid row padded with absent cells.
	Width    int
	GridCols int
	// Rows selects the target grid row (length gridRows), Cols the
	// target grid column (length GridCols).
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
// scan takes 10). No statistics, no option: decided by shape.
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
	if len(q.Cols) != q.GridCols {
		return errRecursiveCols
	}
	return nil
}

// presentRange returns the grid rows in [g0, g1) whose cell at grid
// column gc falls inside the served window [0, w): cell (g, gc) is block
// g·C+gc. Present cells are always one run from g0 per (group, grid
// column) — g·C+gc is monotone in g — so the scan folds a subset table
// over exactly the run and absent cells contribute the multiplicative
// identity, which decodes as a zero block. The run's end is
// non-increasing in gc and takes at most two values, so one group sees
// at most two distinct runs across the grid columns.
func presentRange(g0, g1, gc, C, w int) (int, int) {
	last := w - 1 - gc
	if last < 0 {
		return 0, 0
	}
	hi := min(last/C+1, g1)
	if hi <= g0 {
		return 0, 0
	}
	return g0, hi
}

// recShape is the resolved geometry one batch serves under: the grid,
// the window of the store actually served, and the block row count.
type recShape struct {
	gridRows, gridCols int
	window             int // cols[:window] are the served blocks
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
// The store may hold FEWER blocks than Width: missing cells are absent
// (identity), the prefix addressing of the flat scan. It may also hold
// MORE: the store is clamped to the grid.
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
	if int64(C)*int64(rows) > maxRecursiveCells || int64(rows)*int64(modBytes) > maxRecursiveCells {
		return nil, nil, errRecursiveCells
	}
	w := min(q0.Width, len(cols))
	for j := 0; j < w; j++ {
		if len(cols[j]) < colBytes {
			return nil, nil, shortColumnError(j, len(cols[j]), colBytes)
		}
	}
	sh := recShape{gridRows: R, gridCols: C, window: w, rows: rows}

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
// one-word Montgomery kernel and finishes each query with level 2.
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
		ans2, st2, err := level2Word(poll, mont, q.Cols, mat[i*C*rows:(i+1)*C*rows], rows, modBytes, ex)
		outSt[i].ModMuls += st2.ModMuls
		outSt[i].TableMuls += st2.TableMuls
		if err != nil {
			return err
		}
		outAns[i] = ans2
	}
	return nil
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
// the whole group everywhere but at the end of the served window. The
// worker keeps the subset tables of ONE run per query — built when the
// run changes, which its end taking at most two values bounds at two
// builds per group — and every grid column folds
// them through its transposed pattern buffer. The window's end is therefore
// a smaller table, not a different loop: absent cells contribute the
// identity by being left out of the table, and no product, load or
// branch of the scan depends on a stored bit. Grid columns no present
// cell ever touches come out as identity.
func recursiveLevel1Word(poll *scanPoll, cols [][]byte, colBytes int, sh recShape, win int, nW, ninv uint, oneM big.Word, mv1, msq1 [][]big.Word, mat []big.Word, c0, c1 int) recursivePartial {
	k := len(mv1)
	R, C, rows := sh.gridRows, sh.gridCols, sh.rows
	w := sh.window
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
			lo, hi := presentRange(g0, g1, gc, C, w)
			if lo >= hi {
				continue
			}
			if lo != tblLo || hi != tblHi {
				// The run's subset-product table (level1Table). Each worker
				// builds its own copy — table multiplications are counted
				// where they are performed, so the counts are a function
				// of shape, window and worker count only.
				for i := 0; i < k; i++ {
					level1Table(tbl[i<<win:], mv1[i][lo:hi], msq1[i][lo:hi], nW, ninv)
					p.muls[i] += 2 * (1<<(hi-lo) - 2)
					p.tableMuls[i] += 2 * (1<<(hi-lo) - 2)
				}
				tblLo, tblHi = lo, hi
			}
			for t := range sub[:hi-lo] {
				sub[t] = cols[(lo+t)*C+gc]
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
	// Grid columns with no present cell at all (a store shorter than the
	// grid): identity, in form.
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

// level1Table builds, by doubling, the 2^len(mv) subset-product table
// of one-word Montgomery values mv and their squares msq: entry pat
// multiplies the value of every row whose bit is set in pat and the
// square of every other, 2·(2^g − 2) multiplications for g rows.
func level1Table(tbl, mv, msq []big.Word, n, ninv uint) {
	tbl[0], tbl[1] = msq[0], mv[0]
	size := 2
	for j := 1; j < len(mv); j++ {
		vw, sw := uint(mv[j]), uint(msq[j])
		for pat := 0; pat < size; pat++ {
			s := uint(tbl[pat])
			tbl[pat|size] = big.Word(montMulWordSel(s, vw, n, ninv))
			tbl[pat] = big.Word(montMulWordSel(s, sw, n, ninv))
		}
		size *= 2
	}
}

// recursiveRefOne is the reference recursive answer for one query:
// level 1 as gridCols batch-of-one flat scans over the strided
// sub-databases, level 2 through level2Ref. Used for every multi-word
// modulus, and by the tests as the oracle the fast path
// must match ciphertext for ciphertext.
func recursiveRefOne(ctx context.Context, cols [][]byte, colBytes int, q *RecursiveQuery, ex Exec, sh recShape) (*Answer, Stats, error) {
	R, C, rows := sh.gridRows, sh.gridCols, sh.rows
	var st Stats
	// Level 1's answers, one per grid column, ARE the level-2 image: rows
	// gammas of modBytes big-endian bytes each.
	image := make([][]byte, C)
	for gc := 0; gc < C; gc++ {
		lo, hi := presentRange(0, R, gc, C, sh.window)
		sub := make([][]byte, hi-lo)
		for t := range sub {
			sub[t] = cols[(lo+t)*C+gc]
		}
		// An empty sub-database (fully absent grid column) is the flat
		// executor's width-zero case: all-ones gammas, the identity cells.
		ans1, st1, err := processOne(ctx, sub, colBytes, &Query{N: q.N, Values: q.Rows[lo:hi]}, ex)
		st.ModMuls += st1.ModMuls
		st.TableMuls += st1.TableMuls
		if err != nil {
			return nil, st, err
		}
		image[gc] = ans1.Image
	}
	ans2, st2, err := level2Ref(newScanPoll(ctx), q.N, q.Cols, image, rows*((q.N.BitLen()+7)/8))
	st.ModMuls += st2.ModMuls
	st.TableMuls += st2.TableMuls
	if err != nil {
		return nil, st, err
	}
	return ans2, st, nil
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
// c_b = Π_gc sel[gc]^(byte b of column gc), each stored in the answer's
// image as its tile completes. Per column the 256 powers
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

	ans := newAnswer(mont.nInt, imgBytes)
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
			tileAcc := make([]big.Word, tileCells*modBytes)
			for tile := wk * tiles / workers; tile < (wk+1)*tiles/workers; tile++ {
				r0 := tile * tileCells
				r1 := min(r0+tileCells, rows)
				// The first column's power IS the accumulator: no
				// multiplication.
				acc := tileAcc[:(r1-r0)*modBytes]
				col := putCells(img[:], cells[r0:r1], 1, modBytes)
				for b := range acc {
					acc[b] = pow[0][col[b]]
				}
				for gc := 1; gc < C; gc += 2 {
					if poll.stopped() {
						muls[wk] += len(acc) * (gc - 1)
						errs[wk] = poll.err()
						return
					}
					col, t := putCells(img[:], cells[gc*rows+r0:gc*rows+r1], 1, modBytes), &pow[gc]
					if gc+1 == C {
						// An even C leaves one column for a pass of its own.
						for b := range acc {
							acc[b] = big.Word(montMulWordSel(uint(acc[b]), uint(t[col[b]]), nW, ninv))
						}
						break
					}
					col2, t2 := putCells(img2[:], cells[(gc+1)*rows+r0:(gc+1)*rows+r1], 1, modBytes), &pow[gc+1]
					for b := range acc {
						x := montMulWordSel(uint(acc[b]), uint(t[col[b]]), nW, ninv)
						acc[b] = big.Word(montMulWordSel(x, uint(t2[col2[b]]), nW, ninv))
					}
				}
				for b, a := range acc {
					acc[b] = big.Word(montMulWordSel(uint(a), 1, nW, ninv))
				}
				putCells(ans.Image[r0*modBytes*modBytes:], acc, 1, modBytes)
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
	return ans, st, nil
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
	ans := newAnswer(n, imgBytes)
	var c big.Int
	for b := range imgBytes {
		if b&63 == 0 && poll.stopped() {
			return nil, st, poll.err()
		}
		c.Set(&pow[0][image[0][b]])
		for gc := 1; gc < len(image); gc++ {
			mulMod(&c, &c, &pow[gc][image[gc][b]])
		}
		st.ModMuls += len(image) - 1
		c.FillBytes(ans.gamma(b))
	}
	return ans, st, nil
}
