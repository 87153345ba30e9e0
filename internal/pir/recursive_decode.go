package pir

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Client-side decoding: the residue-test kernel both answer shapes share,
// and the two-layer peel of recursive answers. A flat answer holds rows
// gammas; a recursive one holds rows·modBytes ciphertexts — one per BYTE
// of the serialized target grid column, modBytes times as many. Three
// things keep either affordable:
//
//   - a single-prime residue test. Every value an honest client puts
//     in a query has equal quadratic character modulo p1 and p2 (QRs
//     are +1/+1, the QNRs are drawn with Jacobi symbol +1 and hence
//     −1/−1), and products preserve that equality — so for honest
//     transcripts, testing modulo p1 alone decides QNR-ness exactly,
//     at half the exponentiation work of isQR. A forged gamma can
//     decode to a wrong bit — garbage bytes, which the fetch path's
//     per-document CRC rejects;
//   - a one-word Montgomery exponentiation kernel. Demo-sized keys
//     have single-word prime factors, so the Euler test collapses to
//     a montMulWord square-and-multiply chain with the prime and its
//     folding constant in registers, fed by a bits.Div word-fold
//     reduction of the gamma. The chain's length is the exponent's, not
//     the gamma's: a 0-bit and a 1-bit cost the same — and four chains
//     run in lock step (powWords), because one chain is dependent
//     products end to end and leaves the multiplier idle between them;
//   - byte symbols at level 2. A level-2 ciphertext is y^m·x^256 for a
//     byte m (ClientKey.y); raising it to (p1−1)/256 modulo p1 kills
//     x^256 (Fermat) and leaves D^m, D = y^((p1−1)/256) of order
//     exactly 256 because y is a non-residue mod p1. One exponentiation
//     — the same kernel, eight bits shorter — and a look-up in the table
//     of D's powers read a whole byte where the Euler test reads a bit.
//
// Keys whose p1 does not fit one word fall back to big.Int: the full
// isQR — exact for any transcript, honest or not — and big.Int.Exp for
// the symbols.

// qrDecoder is the per-key residue-test kernel of Decode and
// DecodeRecursive, built once per key on first use and cached (read-only
// thereafter, safe for the parallel decode workers).
type qrDecoder struct {
	word bool // single-word p1: the fast kernel applies
	p    uint // p1
	pinv uint // -p1^{-1} mod 2^W
	prr  uint // R² mod p1
	pone uint // 1 in Montgomery form (R mod p1)
	e    uint // (p1-1)/2, the Euler exponent

	// The level-2 symbol table, present when the key has a packing
	// element: D^m → m for the 256 powers of D, keyed by the power in
	// Montgomery form (word kernel, exponent e8 = (p1−1)/256: an
	// open-addressed table, two slots per power) or by its big-endian
	// bytes (wide keys, exponent e8Big).
	e8     uint
	sym    [2 << packBits]symSlot
	e8Big  *big.Int
	symBig map[string]uint8
}

// symSlot is one slot of the word decoder's symbol table: a power of D
// in Montgomery form and the byte it stands for, plus one — zero marks
// the slot empty.
type symSlot struct {
	pow uint
	m1  uint16
}

// symHome is the slot a power's probe sequence starts at: the top bits of
// a Fibonacci hash.
func symHome(pow uint) uint {
	return uint(uint64(pow) * 0x9e3779b97f4a7c15 >> (64 - packBits - 1))
}

// decoder returns the key's cached residue-test kernel, building it on
// first use: the word Euler kernel of p1 (wordEuler), or the isQR
// fallback when p1 is wider than a word, plus the level-2 symbol table.
func (k *ClientKey) decoder() *qrDecoder {
	if d := k.dec.Load(); d != nil {
		return d
	}
	d := wordEuler(k.p1, k.e1)
	if d == nil {
		d = &qrDecoder{}
	}
	if k.y != nil {
		if d.word {
			d.e8 = d.e >> (packBits - 1)
			dm := d.powWord(uint(new(big.Int).Mod(k.y, k.p1).Uint64()), d.e8)
			for m, pw := 0, d.pone; m < 1<<packBits; m++ {
				at := symHome(pw)
				for d.sym[at].m1 != 0 {
					at = (at + 1) % uint(len(d.sym))
				}
				d.sym[at] = symSlot{pow: pw, m1: uint16(m) + 1}
				pw = montMulWord(pw, dm, d.p, d.pinv)
			}
		} else {
			d.e8Big = new(big.Int).Rsh(k.e1, packBits-1)
			d.symBig = make(map[string]uint8, 1<<packBits)
			dm := new(big.Int).Exp(k.y, d.e8Big, k.p1)
			for m, pw := 0, big.NewInt(1); m < 1<<packBits; m++ {
				d.symBig[string(pw.Bytes())] = uint8(m)
				pw = new(big.Int).Mul(pw, dm)
				pw.Mod(pw, k.p1)
			}
		}
	}
	k.dec.Store(d)
	return d
}

// modP returns g mod p1 by folding the words most-significant first;
// each step's remainder is < p, the precondition bits.Div requires. g
// must be non-negative.
func (d *qrDecoder) modP(g *big.Int) uint {
	w := g.Bits()
	var r uint
	for i := len(w) - 1; i >= 0; i-- {
		_, r = bits.Div(r, uint(w[i]), d.p)
	}
	return r
}

// modPBytes is modP of a big-endian magnitude — a fixed-width gamma of
// a packed answer or of the level-1 image, read without a big.Int in
// between.
func (d *qrDecoder) modPBytes(b []byte) uint {
	const wordBytes = bits.UintSize / 8
	var r uint
	if n := len(b) % wordBytes; n != 0 { // the short word, if any, leads
		var w uint
		for _, c := range b[:n] {
			w = w<<8 | uint(c)
		}
		_, r = bits.Div(r, w, d.p)
		b = b[n:]
	}
	for ; len(b) > 0; b = b[wordBytes:] {
		var w uint
		if wordBytes == 8 {
			w = uint(binary.BigEndian.Uint64(b))
		} else {
			w = uint(binary.BigEndian.Uint32(b))
		}
		_, r = bits.Div(r, w, d.p)
	}
	return r
}

// powWord returns r^e mod p1 in Montgomery form for a canonical r: one
// square-and-multiply chain whose length is the exponent's.
func (d *qrDecoder) powWord(r, e uint) uint {
	x := montMulWord(r, d.prr, d.p, d.pinv)
	res := d.pone
	for i := bits.Len(e) - 1; i >= 0; i-- {
		res = montMulWord(res, res, d.p, d.pinv)
		if e&(1<<uint(i)) != 0 {
			res = montMulWord(res, x, d.p, d.pinv)
		}
	}
	return res
}

// powLanes is how many residues powWords raises in lock step.
const powLanes = 4

// powWords replaces every canonical residue of rs by its e-th power in
// Montgomery form — powWord, four residues at a time through ONE
// square-and-multiply loop. One chain is a string of dependent products,
// each waiting out the multiplier's latency; four independent chains
// overlap in it. The loop's only branch is on the bits of e, which is the
// key's (the Euler exponent, or (p1−1)/256) and the same for every lane:
// nothing branches on a residue, so a chain still costs what the exponent
// costs. A tail shorter than four goes through powWord.
func (d *qrDecoder) powWords(rs []uint, e uint) {
	p, pinv := d.p, d.pinv
	top := bits.Len(e) - 1
	for ; len(rs) >= powLanes; rs = rs[powLanes:] {
		x0 := montMulWord(rs[0], d.prr, p, pinv)
		x1 := montMulWord(rs[1], d.prr, p, pinv)
		x2 := montMulWord(rs[2], d.prr, p, pinv)
		x3 := montMulWord(rs[3], d.prr, p, pinv)
		a0, a1, a2, a3 := d.pone, d.pone, d.pone, d.pone
		for i := top; i >= 0; i-- {
			a0 = montMulWord(a0, a0, p, pinv)
			a1 = montMulWord(a1, a1, p, pinv)
			a2 = montMulWord(a2, a2, p, pinv)
			a3 = montMulWord(a3, a3, p, pinv)
			if e&(1<<uint(i)) != 0 {
				a0 = montMulWord(a0, x0, p, pinv)
				a1 = montMulWord(a1, x1, p, pinv)
				a2 = montMulWord(a2, x2, p, pinv)
				a3 = montMulWord(a3, x3, p, pinv)
			}
		}
		rs[0], rs[1], rs[2], rs[3] = a0, a1, a2, a3
	}
	for i, r := range rs {
		rs[i] = d.powWord(r, e)
	}
}

// powChunks is the decoders' common loop over the lanes: a stack buffer
// at a time, fill(lo, rs) stages the residues of items lo … lo+len(rs)−1,
// powWords raises them to e, and use(lo, rs) takes the powers. It returns
// −1, or the first item use refused — the index it returned plus lo —
// where it stops.
func (d *qrDecoder) powChunks(n int, e uint, fill func(lo int, rs []uint), use func(lo int, pows []uint) int) int {
	var rs [256]uint
	for lo := 0; lo < n; lo += len(rs) {
		chunk := rs[:min(len(rs), n-lo)]
		fill(lo, chunk)
		d.powWords(chunk, e)
		if at := use(lo, chunk); at >= 0 {
			return lo + at
		}
	}
	return -1
}

// residues fills rs with gammas lo … lo+len(rs)−1 of a mod p1, the word
// kernel's input, read from the image where it lies.
func (a *Answer) residues(d *qrDecoder, lo int, rs []uint) {
	for j := range rs {
		rs[j] = d.modPBytes(a.gamma(lo + j))
	}
}

// decodeRowsMin is the fewest rows a decode worker takes: below it a
// goroutine costs more than the Euler tests it would run.
const decodeRowsMin = 512

// decodeColumn is the one Euler test of the flat decodes: it writes the
// bits of the first rows gammas of src — a served answer, a packed frame,
// or the level-1 image of a recursive answer — into column, MSB-first,
// (rows+7)/8 bytes: bit i is 1 exactly when gamma i is a quadratic
// non-residue. The bytes are split across parallelRanges, so the workers'
// rows start on whole bytes and no two workers share one.
func (k *ClientKey) decodeColumn(src *Answer, rows int, column []byte) {
	d := k.decoder()
	parallelRanges(len(column), decodeRowsMin/8, func(lo, hi int) {
		d.qnrBytes(k, src, 8*lo, min(8*hi, rows), column[lo:hi])
	})
}

// qnrBytes tests rows lo … hi−1 of src into out, eight rows a byte. With
// the word kernel it tests modulo p1 through the lanes: r^e is ±1 for a
// unit and 0 for a multiple of p1 (not 1, as isQR's Exp(g, e1, p1) = 0 is
// not), compared in form against pone. Wider keys run isQR.
func (d *qrDecoder) qnrBytes(k *ClientKey, src *Answer, lo, hi int, out []byte) {
	clear(out)
	if !d.word {
		g := new(big.Int)
		for i := lo; i < hi; i++ {
			if !k.isQR(g.SetBytes(src.gamma(i))) {
				out[(i-lo)>>3] |= 0x80 >> ((i - lo) & 7)
			}
		}
		return
	}
	d.powChunks(hi-lo, d.e,
		func(at int, rs []uint) { src.residues(d, lo+at, rs) },
		func(at int, pows []uint) int {
			for j, pow := range pows {
				var bit byte
				if pow != d.pone {
					bit = 0x80 // a conditional move, not a branch on the bit
				}
				out[(at+j)>>3] |= bit >> ((at + j) & 7)
			}
			return -1
		})
}

// symbolOf looks a Montgomery-form power up in the word decoder's table.
// The table is half empty, so a probe for a value that is no power of D
// ends at an empty slot.
func (d *qrDecoder) symbolOf(pow uint) (m uint8, ok bool) {
	for at := symHome(pow); ; at = (at + 1) % uint(len(d.sym)) {
		switch s := d.sym[at]; {
		case s.m1 == 0:
			return 0, false
		case s.pow == pow:
			return uint8(s.m1 - 1), true
		}
	}
}

// symbol reads the byte a level-2 ciphertext carries. The exponent
// sends every unit of Z_p1 into the order-256 subgroup, so ok is false
// exactly for the non-units (multiples of p1) and a forged unit reads as
// SOME byte — garbage the fetch path's per-document CRC rejects, like a
// forged gamma. c must be non-negative.
func (d *qrDecoder) symbol(k *ClientKey, c *big.Int) (m uint8, ok bool) {
	if !d.word {
		m, ok = d.symBig[string(new(big.Int).Exp(c, d.e8Big, k.p1).Bytes())]
		return m, ok
	}
	return d.symbolOf(d.powWord(d.modP(c), d.e8))
}

// symbols is symbol over the run of len(raw) ciphertexts of cts from
// first, read where they lie and through the lanes when the kernel
// applies: it fills raw and returns −1, or returns the position in the run
// of the FIRST ciphertext outside the symbol subgroup (raw is then
// unspecified).
func (d *qrDecoder) symbols(k *ClientKey, cts *Answer, first int, raw []byte) int {
	if !d.word {
		c := new(big.Int)
		for i := range raw {
			m, ok := d.symbol(k, c.SetBytes(cts.gamma(first+i)))
			if !ok {
				return i
			}
			raw[i] = m
		}
		return -1
	}
	return d.powChunks(len(raw), d.e8,
		func(lo int, rs []uint) { cts.residues(d, first+lo, rs) },
		func(lo int, pows []uint) int {
			for j, pow := range pows {
				m, ok := d.symbolOf(pow)
				if !ok {
					return j
				}
				raw[lo+j] = m
			}
			return -1
		})
}

// AnswerLengthError is DecodeRecursive's refusal of an answer that does
// not hold one ciphertext per byte of the level-1 image.
type AnswerLengthError struct{ Got, Want int }

func (e *AnswerLengthError) Error() string {
	return fmt.Sprintf("pir: recursive answer holds %d ciphertexts, want %d", e.Got, e.Want)
}

// SymbolError is DecodeRecursive's refusal of a level-2 ciphertext that
// does not decrypt into the order-256 subgroup (a non-unit modulo p1,
// which no honest answer holds): the byte at Pos of the level-1 image
// cannot be read, and is never guessed.
type SymbolError struct{ Pos int }

func (e *SymbolError) Error() string {
	return fmt.Sprintf("pir: recursive answer ciphertext %d is outside the symbol subgroup", e.Pos)
}

// DecodeRecursive peels both layers of a recursive answer: read one
// byte out of every level-2 ciphertext into the byte image of the
// target grid column, cut the image into colBytes·8 fixed-width level-1
// gammas, and Euler-test those into the target block's bits (MSB-first,
// the column layout of ProcessColumnsCtx — feed the result to
// ColumnBytes for the block's bytes). A wrong-length answer is an
// *AnswerLengthError, an undecryptable ciphertext a *SymbolError naming
// the first one.
func (k *ClientKey) DecodeRecursive(ans *Answer, colBytes int) ([]bool, error) {
	if colBytes <= 0 {
		return nil, errColumnSize
	}
	if k.y == nil {
		return nil, errNoPackingElement
	}
	rows := colBytes * 8
	modBytes := (k.N.BitLen() + 7) / 8
	if ans.Width <= 0 || len(ans.Image) != rows*modBytes*ans.Width {
		return nil, &AnswerLengthError{Got: ans.Count(), Want: rows * modBytes}
	}
	d := k.decoder()
	raw := make([]byte, rows*modBytes) // the grid column's gamma image
	var mu sync.Mutex
	bad := len(raw) // the first undecryptable ciphertext, across workers
	parallelRanges(len(raw), 4096, func(lo, hi int) {
		if at := d.symbols(k, ans, lo, raw[lo:hi]); at >= 0 {
			mu.Lock()
			bad = min(bad, lo+at)
			mu.Unlock()
		}
	})
	if bad < len(raw) {
		return nil, &SymbolError{Pos: bad}
	}
	column := make([]byte, colBytes)
	k.decodeColumn(&Answer{Width: modBytes, Image: raw}, rows, column)
	return columnBits(column, rows), nil
}

// parallelRanges splits [0, n) across up to 8 goroutines (never fewer
// than minPer items each) and runs fn on each range. Writes within fn
// must stay inside its range.
func parallelRanges(n, minPer int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	if minPer > 0 {
		if maxW := n / minPer; workers > maxW {
			workers = maxW
		}
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// RecursiveQueryBytes returns the wire size of one recursive query's
// selection vectors under this key: gridRows+gridCols group elements,
// against the flat path's width elements.
func (k *ClientKey) RecursiveQueryBytes(width int) int {
	r, c := RecursiveGrid(width)
	return (r + c) * ((k.N.BitLen() + 7) / 8)
}

// RecursiveAnswerBytes returns the wire size of one recursive answer
// for colBytes-byte blocks: 8·colBytes·modBytes ciphertexts — one per
// byte of the level-1 image — of modBytes bytes each. The recursion
// trades the flat path's upload for a wider answer, modBytes-fold the
// flat one.
func (k *ClientKey) RecursiveAnswerBytes(colBytes int) int {
	modBytes := (k.N.BitLen() + 7) / 8
	return 8 * colBytes * modBytes * modBytes
}

// dec is ClientKey's cached decoder; declared here next to its kernel.
// (The field lives on ClientKey via the embedded holder below so the
// caching concern stays out of pir.go.)
type decoderCache struct {
	dec atomic.Pointer[qrDecoder]
}
