package pir

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// newScanKernel builds the Montgomery kernel of one worker's flat scan
// for a batch of k queries over width columns and rows rows.
func newScanKernel(mont *Mont, k, width, rows, window int) *montKernel {
	kw := mont.Words()
	mk := &montKernel{
		m: mont, kw: kw, n0: uint(mont.n[0]), ninv: uint(mont.n0inv),
		mv: make([][]big.Word, k), prod: make([]big.Word, k*kw), acc: make([][]big.Word, k),
		tbl: make([]big.Word, kw<<window),
	}
	for i := range mk.acc {
		mk.mv[i] = make([]big.Word, width*kw)
		mk.acc[i] = make([]big.Word, rows*kw)
	}
	return mk
}

// montKernel is the multiply backend of one worker's flat scan: it owns
// the worker's values, their product, group table and row accumulators
// for all k queries over a column range, and the executor's skeleton
// (scanPart.scan) drives it in coarse per-(group, query) steps — never
// per product, so each step's inner loop stays monomorphic. Column
// indices are local to the worker's range.
//
// The scan runs in Montgomery form over complement tables. The oracle's
// gamma of a row is Π_j (bit j set ? v_j : v_j²), which is C · Π over
// the clear bits of v_j with C = Π_j v_j; so a group's table entry pat
// multiplies the values whose bit is clear in pat, the accumulators
// collect those, and export multiplies each row by C. Each query's
// values and accumulators are contiguous []big.Word slabs indexed by
// column (or row) times the modulus word width — no per-row big.Int
// headers, no allocation inside the group loop. One-word moduli — the
// shape every demo-sized key takes — build, fold, merge and export
// through loops where the slabs flatten to one word per value and every
// multiplication is the inlined montMulWordSel on register-resident
// constants.
type montKernel struct {
	m        *Mont
	kw       int
	n0, ninv uint // the one-word modulus and its folding constant
	mv       [][]big.Word
	prod     []big.Word // query i's product of the range's values, in form, at i·kw
	acc      [][]big.Word
	tbl      []big.Word
}

// load takes query i's canonical values for columns j0.. into
// Montgomery form and multiplies them into the query's range product,
// which the range's first value starts: one multiplication per value
// in, one per value past the first into the product.
func (mk *montKernel) load(i, j0 int, vals []*big.Int) {
	kw := mk.kw
	prod := mk.prod[i*kw : (i+1)*kw]
	for j, v := range vals {
		at := (j0 + j) * kw
		// The plain words go straight into the value's slab slot and are
		// converted in place (the executor reduced v: it fits kw words).
		x := mk.mv[i][at : at+kw]
		clear(x)
		copy(x, v.Bits())
		mk.m.Mul(x, x, mk.m.rr)
		if at == 0 {
			copy(prod, x)
		} else {
			mk.m.Mul(prod, prod, x)
		}
	}
}

// build fills the table with the 2^(j1-j0) complement products of query
// i over columns [j0, j1) by doubling: entry pat multiplies the value of
// every column whose bit is clear in pat, so the all-set entry is one,
// in form. Each pass adds a column: the entries so far are copied to
// their set-bit twins and multiplied by its value, 2^g − 2
// multiplications for a g-column group.
func (mk *montKernel) build(i, j0, j1 int) {
	kw, tbl := mk.kw, mk.tbl
	mv := mk.mv[i][j0*kw : j1*kw]
	if kw == 1 {
		wordTable(tbl, mv, mk.m.R()[0], mk.n0, mk.ninv)
		return
	}
	copy(tbl[:kw], mv[:kw])
	copy(tbl[kw:2*kw], mk.m.R())
	size := 2
	for j := kw; j < len(mv); j += kw {
		copy(tbl[size*kw:2*size*kw], tbl[:size*kw])
		for at := 0; at < size*kw; at += kw {
			mk.m.Mul(tbl[at:at+kw], tbl[at:at+kw], mv[j:j+kw])
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
	acc, other := mk.acc[i][r0*kw:r1*kw], from.acc[i][r0*kw:r1*kw]
	if kw == 1 {
		other = other[:len(acc)]
		for r, a := range acc {
			acc[r] = big.Word(montMulWordSel(uint(a), uint(other[r]), mk.n0, mk.ninv))
		}
		return
	}
	for at := 0; at < len(acc); at += kw {
		mk.m.Mul(acc[at:at+kw], acc[at:at+kw], other[at:at+kw])
	}
}

// export writes query i's gammas for rows r0.. into image, width bytes
// each: the answer's packed image, written where it is computed. It is
// the last use of those rows' accumulators: the product with c — the
// query's C = Π_j v_j in plain form — completes each row's gamma and
// takes it out of Montgomery form in place, and putCells stores its
// words big-endian in the row's slot.
func (mk *montKernel) export(i, r0 int, c []big.Word, image []byte, width int) {
	kw := mk.kw
	acc := mk.acc[i][r0*kw : (r0+len(image)/width)*kw]
	if kw == 1 {
		cw := uint(c[0])
		for r, a := range acc {
			acc[r] = big.Word(montMulWordSel(uint(a), cw, mk.n0, mk.ninv))
		}
	} else {
		for at := 0; at < len(acc); at += kw {
			mk.m.Mul(acc[at:at+kw], acc[at:at+kw], c)
		}
	}
	putCells(image, acc, kw, width)
}

// putCells stores canonical cells of kw words each, little-endian as the
// slabs hold them, into consecutive width-byte big-endian slots of buf —
// width is the modulus's byte length, so every cell fits its slot — and
// returns the bytes written. A one-word cell in a word-wide slot (every
// 64-bit key) is one store.
func putCells(buf []byte, cells []big.Word, kw, width int) []byte {
	buf = buf[:len(cells)/kw*width]
	if kw == 1 && width == 8 {
		for r, cell := range cells {
			binary.BigEndian.PutUint64(buf[r*8:r*8+8], uint64(cell))
		}
		return buf
	}
	const wordBytes = bits.UintSize / 8
	for at := 0; at < len(buf); at += width {
		slot, cell := buf[at:at+width], cells[at/width*kw:]
		for b := range slot { // b bytes up from the least significant
			slot[width-1-b] = byte(cell[b/wordBytes] >> (8 * (b % wordBytes)))
		}
	}
	return buf
}

// wordTable builds, by doubling, the 2^len(mv) complement-product table
// of one-word Montgomery values mv: entry pat multiplies the values
// whose bit is clear in pat, and the all-set entry is one, the form's
// R mod n.
func wordTable(tbl, mv []big.Word, one big.Word, n, ninv uint) {
	tbl[0], tbl[1] = mv[0], one
	size := 2
	for j := 1; j < len(mv); j++ {
		vw := uint(mv[j])
		lo := tbl[:size]
		copy(tbl[size:2*size], lo)
		for pat, s := range lo {
			lo[pat] = big.Word(montMulWordSel(uint(s), vw, n, ninv))
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
