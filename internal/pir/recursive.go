package pir

import (
	"context"
	"crypto/rand"
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
//     rows·modBytes bytes (fixed-width big-endian gammas) and the
//     whole matrix is served as a second flat KO instance with
//     gridCols columns. The answer is 8·rows·modBytes gammas: the
//     encryption of the encryption of the target block.
//
// The client peels both layers: Euler-test the level-2 gammas into
// the byte image of the target grid column, cut it into rows
// fixed-width level-1 gammas, and Euler-test those into the block's
// bits. Both levels multiply only uninterpretable group elements, so
// the privacy argument is the flat one applied twice.
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
// (gridCols·rows cells) and the level-2 answer (8·rows·modBytes
// gammas), matching the wire decoder's 8·MaxBlockSize answer ceiling:
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

// NewRecursiveQuery builds a query retrieving block target out of
// width blocks, under the RecursiveGrid shape: QR everywhere except a
// Jacobi-(+1) QNR at the target's grid row (in Rows) and grid column
// (in Cols).
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
	cols, err := k.selection(randSrc, gc, target%gc)
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
// monotone in g — which is what lets the scan use the fast whole-group
// path when the run covers the group and skip absent cells entirely
// (contributing the multiplicative identity, NOT a square: identity is
// what makes partition partials combine to the single-process matrix).
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
// modulus and shape. Single-word moduli run on the montMulWord kernel;
// everything else falls back to a reference composition of the flat
// executor (one batch-of-one scan per grid column, then level 2 over
// the serialized matrix), so every modulus the flat executor serves,
// this serves too.
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
	if len(q0.Cols) != 0 && int64(8)*int64(rows)*int64(modBytes) > maxRecursiveCells {
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

	mont, _ := NewMont(q0.N)
	if mont != nil && mont.Words() == 1 {
		// Chunk the batch so at most ~128 MiB of gamma matrices (one
		// word per cell, plus the serialized level-2 image) are live at
		// once; within a chunk level 1 runs all queries in one pass.
		perQuery := int64(C) * int64(rows) * 16
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

	// Reference path: compose the flat serving paths. Slower, but it
	// covers every modulus they do (multi-word, even, hostile), and
	// its answers define what the fast path must equal.
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

	// One gamma matrix per query, grid-column-major: cell gc·rows+r.
	mat := make([][]big.Word, k)
	for i := range mat {
		mat[i] = make([]big.Word, C*rows)
	}

	win := ex.Window
	if win <= 0 || win > MaxBatchWindow {
		// Unlike the flat batch there is no window trade-off to model:
		// one group's tables serve ALL gridCols folds, so the widest
		// window always wins.
		win = MaxBatchWindow
	}
	if win > R {
		win = R
	}
	groups := (R + win - 1) / win
	workers := ex.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > C {
		workers = C
	}

	parts := make([]recursivePartial, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		c0 := wk * C / workers
		c1 := (wk + 1) * C / workers
		wg.Add(1)
		go func(part *recursivePartial, c0, c1 int) {
			defer wg.Done()
			*part = recursiveLevel1Word(poll, cols, colBytes, sh, win, groups, nW, ninv, oneM, mv1, msq1, mat, c0, c1)
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
		if len(q.Cols) == 0 {
			// Partition mode: the canonical matrix itself is the
			// answer, one FromMont multiplication per cell.
			gammas := make([]*big.Int, C*rows)
			for idx := range gammas {
				if idx&(cancelCheckRows-1) == 0 && poll.stopped() {
					return poll.err()
				}
				gammas[idx] = new(big.Int).SetUint64(uint64(montMulWord(uint(mat[i][idx]), 1, nW, ninv)))
			}
			outSt[i].ModMuls += C * rows
			outSt[i].TableMuls += C * rows
			outAns[i] = &Answer{Gammas: gammas}
			continue
		}
		// Level 2: convert each cell out of Montgomery form straight
		// into its fixed-width big-endian slot and re-serve the image
		// through the flat executor.
		cols2 := make([][]byte, C)
		for gc := 0; gc < C; gc++ {
			buf := make([]byte, rows*modBytes)
			base := gc * rows
			for r := 0; r < rows; r++ {
				if r&(cancelCheckRows-1) == 0 && poll.stopped() {
					return poll.err()
				}
				v := montMulWord(uint(mat[i][base+r]), 1, nW, ninv)
				pos := r * modBytes
				for b := modBytes - 1; b >= 0; b-- {
					buf[pos+b] = byte(v)
					v >>= 8
				}
			}
			cols2[gc] = buf
		}
		outSt[i].ModMuls += C * rows
		outSt[i].TableMuls += C * rows
		ans2, st2, err := recursiveLevel2Cols(ctx, q, cols2, rows, ex)
		outSt[i].ModMuls += st2.ModMuls
		outSt[i].TableMuls += st2.TableMuls
		if err != nil {
			return err
		}
		outAns[i] = ans2
	}
	return nil
}

// recursiveLevel1Word is one worker's level-1 scan over grid columns
// [c0, c1): group-major over grid-row windows, with the group's subset
// tables (built once per group per query, shared by every grid column
// in the range) folded through one transposed pattern buffer per grid
// column. Absent cells — outside the served window — are skipped;
// grid columns no present cell ever touches come out as identity.
func recursiveLevel1Word(poll *scanPoll, cols [][]byte, colBytes int, sh recShape, win, groups int, nW, ninv uint, oneM big.Word, mv1, msq1 [][]big.Word, mat [][]big.Word, c0, c1 int) recursivePartial {
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
	for gi := 0; gi < groups; gi++ {
		if stop() {
			return p
		}
		g0 := gi * win
		g1 := g0 + win
		if g1 > R {
			g1 = R
		}
		gw := g1 - g0
		tblBuilt := false
		for gc := c0; gc < c1; gc++ {
			lo, hi := presentRange(g0, g1, gc, C, off, w)
			if lo >= hi {
				continue
			}
			gcl := gc - c0
			if lo == g0 && hi == g1 {
				// Whole group present: the fast transposed-fold path.
				if !tblBuilt {
					// The flat scan's table build. Each worker builds
					// its own copy — duplicated table multiplications
					// are counted where they are performed, and at
					// ≤ 2^win entries they vanish next to the
					// rows·gridCols folds they serve.
					for i := 0; i < k; i++ {
						wordTable(tbl[i<<win:], mv1[i][g0:g1], msq1[i][g0:g1], nW, ninv)
						p.muls[i] += 2 * (1<<gw - 2)
						p.tableMuls[i] += 2 * (1<<gw - 2)
					}
					tblBuilt = true
				}
				for t := 0; t < gw; t++ {
					sub[t] = cols[(g0+t)*C+gc-off]
				}
				groupPatterns16(sub[:gw], 0, gw, colBytes, pats)
				// First touch: the accumulator IS the table entry (the
				// 1·v first step), no multiplication.
				first := !inited[gcl]
				for i := 0; i < k; i++ {
					a := mat[i][gc*rows : (gc+1)*rows]
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
				inited[gcl] = true
				continue
			}
			// Partial run (window edge): per-cell multiplication over
			// just the present grid rows. Rare — at most two groups per
			// grid column — so the table detour is not worth taking.
			if !inited[gcl] {
				for i := 0; i < k; i++ {
					a := mat[i][gc*rows : (gc+1)*rows]
					for r := range a {
						a[r] = oneM
					}
				}
				inited[gcl] = true
			}
			for g := lo; g < hi; g++ {
				if stop() {
					return p
				}
				col := cols[g*C+gc-off]
				for i := 0; i < k; i++ {
					a := mat[i][gc*rows : (gc+1)*rows]
					vw, sw := uint(mv1[i][g]), uint(msq1[i][g])
					for r := 0; r < rows; r++ {
						if r&(cancelCheckRows-1) == 0 && stop() {
							p.muls[i] += r
							return p
						}
						if col[r>>3]&(1<<(7-uint(r)&7)) != 0 {
							a[r] = big.Word(montMulWordSel(uint(a[r]), vw, nW, ninv))
						} else {
							a[r] = big.Word(montMulWordSel(uint(a[r]), sw, nW, ninv))
						}
					}
					p.muls[i] += rows
				}
			}
		}
	}
	// Grid columns with no present cell at all (partition slices, or a
	// store shorter than the grid): identity, in form.
	for gc := c0; gc < c1; gc++ {
		if inited[gc-c0] {
			continue
		}
		for i := 0; i < k; i++ {
			a := mat[i][gc*rows : (gc+1)*rows]
			for r := range a {
				a[r] = oneM
			}
		}
	}
	return p
}

// recursiveRefOne is the reference recursive answer for one query:
// level 1 as gridCols batch-of-one flat scans over the strided
// sub-databases, level 2 through RecursiveLevel2. Used for every
// modulus the word kernel rejects, and by the tests as the oracle the
// fast path must match.
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
	ans2, st2, err := RecursiveLevel2(ctx, q, matrix, colBytes, ex)
	st.ModMuls += st2.ModMuls
	st.TableMuls += st2.TableMuls
	if err != nil {
		return nil, st, err
	}
	return ans2, st, nil
}

// RecursiveLevel2 serves the second level of the recursion over an
// already-computed level-1 gamma matrix (grid-column-major,
// gridCols·colBytes·8 cells): each grid column's gammas are laid out
// as fixed-width big-endian bytes and the image is served as a flat
// instance against q.Cols. The cluster router calls this after
// combining partition partials; the in-process paths compose it with
// their own level 1. Matrix cells must be canonical residues
// (out-of-range cells are reduced defensively, matching the flat
// paths' tolerance).
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
	if int64(8)*int64(rows)*int64(modBytes) > maxRecursiveCells {
		return nil, Stats{}, errRecursiveCells
	}
	cols2 := make([][]byte, C)
	for gc := 0; gc < C; gc++ {
		buf := make([]byte, rows*modBytes)
		for r := 0; r < rows; r++ {
			g := matrix[gc*rows+r]
			if g.Sign() < 0 || g.BitLen() > 8*modBytes {
				g = new(big.Int).Mod(g, q.N)
			}
			g.FillBytes(buf[r*modBytes : (r+1)*modBytes])
		}
		cols2[gc] = buf
	}
	return recursiveLevel2Cols(ctx, q, cols2, rows, ex)
}

// recursiveLevel2Cols serves the serialized level-1 image through the
// flat executor as a batch of one.
func recursiveLevel2Cols(ctx context.Context, q *RecursiveQuery, cols2 [][]byte, rows int, ex Exec) (*Answer, Stats, error) {
	modBytes := (q.N.BitLen() + 7) / 8
	return processOne(ctx, cols2, rows*modBytes, &Query{N: q.N, Values: q.Cols}, ex)
}
