package pir

import "math/big"

// newScanKernel builds the Montgomery kernel of one worker's flat scan
// for a batch of k queries over width columns and rows rows.
func newScanKernel(mont *Mont, k, width, rows, window int) *montKernel {
	kw := mont.Words()
	mk := &montKernel{
		m: mont, kw: kw, n0: uint(mont.n[0]), ninv: uint(mont.n0inv),
		mv: make([][]big.Word, k), msq: make([][]big.Word, k), acc: make([][]big.Word, k),
		tbl: make([]big.Word, kw<<window),
	}
	for i := range mk.acc {
		mk.mv[i] = make([]big.Word, width*kw)
		mk.msq[i] = make([]big.Word, width*kw)
		mk.acc[i] = make([]big.Word, rows*kw)
	}
	return mk
}

// montKernel is the multiply backend of one worker's flat scan: it owns
// the worker's values, squares, group table and row accumulators for
// all k queries over a column range, and the executor's skeleton
// (scanPart.scan) drives it in coarse per-(group, query) steps — never
// per product, so each step's inner loop stays monomorphic. Column
// indices are local to the worker's range.
//
// The scan runs in Montgomery form. Each query's values,
// squares and accumulators are contiguous []big.Word slabs indexed by
// column (or row) times the modulus word width — no per-row big.Int
// headers, no allocation inside the group loop. One-word moduli — the
// shape every demo-sized key takes — build and fold through wordTable
// and wordFold, where the slabs flatten to one word per value and every
// multiplication is the inlined montMulWordSel on register-resident
// constants.
type montKernel struct {
	m        *Mont
	kw       int
	n0, ninv uint // the one-word modulus and its folding constant
	mv, msq  [][]big.Word
	acc      [][]big.Word
	tbl      []big.Word
}

// costs reports the multiplications load spends per column and export
// spends per row, for the skeleton's accounting: two per column in
// (ToMont, square), one per row out (FromMont).
func (mk *montKernel) costs() (int, int) { return 2, 1 }

// load takes query i's canonical values for columns j0.. into
// Montgomery form and squares them.
func (mk *montKernel) load(i, j0 int, vals []*big.Int) {
	kw := mk.kw
	for j, v := range vals {
		at := (j0 + j) * kw
		// The plain words go straight into the value's slab slot and are
		// converted in place (the executor reduced v: it fits kw words).
		x := mk.mv[i][at : at+kw]
		clear(x)
		copy(x, v.Bits())
		mk.m.Mul(x, x, mk.m.rr)
		mk.m.Mul(mk.msq[i][at:at+kw], x, x)
	}
}

// build fills the table with the 2^(j1-j0) subset products of query i
// over columns [j0, j1) by doubling: entry pat multiplies the value of
// every column whose bit is set in pat and the square of every other.
func (mk *montKernel) build(i, j0, j1 int) {
	kw, tbl := mk.kw, mk.tbl
	mv, msq := mk.mv[i][j0*kw:j1*kw], mk.msq[i][j0*kw:j1*kw]
	if kw == 1 {
		wordTable(tbl, mv, msq, mk.n0, mk.ninv)
		return
	}
	copy(tbl[:kw], msq[:kw])
	copy(tbl[kw:2*kw], mv[:kw])
	size := 2
	for j := kw; j < len(mv); j += kw {
		for pat := 0; pat < size; pat++ {
			src := tbl[pat*kw : (pat+1)*kw]
			d := (pat | size) * kw
			mk.m.Mul(tbl[d:d+kw], src, mv[j:j+kw])
			mk.m.Mul(src, src, msq[j:j+kw])
		}
		size *= 2
	}
}

// fold multiplies table[pats[r]] into query i's accumulator of row r0+r
// for every r; with first set the accumulators are still empty and take
// the table entry itself.
func (mk *montKernel) fold(i, r0 int, pats []uint16, first bool) {
	kw := mk.kw
	acc := mk.acc[i][r0*kw : (r0+len(pats))*kw]
	if kw == 1 {
		wordFold(acc, mk.tbl, pats, first, mk.n0, mk.ninv)
		return
	}
	for r, pt := range pats {
		a, t := acc[r*kw:(r+1)*kw], mk.tbl[int(pt)*kw:(int(pt)+1)*kw]
		if first {
			copy(a, t)
		} else {
			mk.m.Mul(a, a, t)
		}
	}
}

// merge multiplies another worker's accumulators for query i, rows
// [r0, r1), into this one's.
func (mk *montKernel) merge(from *montKernel, i, r0, r1 int) {
	kw := mk.kw
	acc, other := mk.acc[i], from.acc[i]
	for at := r0 * kw; at < r1*kw; at += kw {
		mk.m.Mul(acc[at:at+kw], acc[at:at+kw], other[at:at+kw])
	}
}

// export writes query i's gammas for rows r0.. as canonical residues.
// It is the last use of those rows' accumulators: it converts them out
// of Montgomery form in place and hands them out as the gammas' own
// words, one big.Int header slab per call, no copy.
func (mk *montKernel) export(i, r0 int, out []*big.Int) {
	kw := mk.kw
	ints := make([]big.Int, len(out))
	for r := range out {
		at := (r0 + r) * kw
		a := mk.acc[i][at : at+kw : at+kw]
		mk.m.Mul(a, a, mk.m.one)
		out[r] = ints[r].SetBits(a)
	}
}

// wordTable builds, by doubling, the 2^len(mv) subset-product table of
// one-word Montgomery values mv and their squares msq.
func wordTable(tbl, mv, msq []big.Word, n, ninv uint) {
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

// wordFold folds tbl[pats[r]] into acc[r] for one-word moduli; with
// first set the accumulator takes the table entry itself.
func wordFold(acc, tbl []big.Word, pats []uint16, first bool, n, ninv uint) {
	acc = acc[:len(pats)]
	if first {
		for r, pt := range pats {
			acc[r] = tbl[pt]
		}
		return
	}
	for r, pt := range pats {
		acc[r] = big.Word(montMulWordSel(uint(acc[r]), uint(tbl[pt]), n, ninv))
	}
}
