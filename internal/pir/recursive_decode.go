package pir

import (
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
//     the gamma's: a 0-bit and a 1-bit cost the same;
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
	// Montgomery form (word kernel, exponent e8 = (p1−1)/256) or by its
	// big-endian bytes (wide keys, exponent e8Big).
	e8     uint
	sym    map[uint]uint8
	e8Big  *big.Int
	symBig map[string]uint8
}

// decoder returns the key's cached residue-test kernel, building it on
// first use.
func (k *ClientKey) decoder() *qrDecoder {
	if d := k.dec.Load(); d != nil {
		return d
	}
	d := &qrDecoder{}
	if m, err := NewMont(k.p1); err == nil && m.Words() == 1 && len(k.e1.Bits()) == 1 {
		d.word = true
		d.p = uint(m.n[0])
		d.pinv = uint(m.n0inv)
		d.prr = uint(m.rr[0])
		d.pone = montMulWord(1, d.prr, d.p, d.pinv)
		d.e = uint(k.e1.Bits()[0])
	}
	if k.y != nil {
		if d.word {
			d.e8 = d.e >> (packBits - 1)
			d.sym = make(map[uint]uint8, 1<<packBits)
			dm := d.powWord(uint(new(big.Int).Mod(k.y, k.p1).Uint64()), d.e8)
			for m, pw := 0, d.pone; m < 1<<packBits; m++ {
				d.sym[pw] = uint8(m)
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

// qnr reports whether g is a quadratic non-residue — the bit value —
// using the single-prime shortcut when the kernel applies. g must be
// non-negative.
func (d *qrDecoder) qnr(k *ClientKey, g *big.Int) bool {
	if !d.word {
		return !k.isQR(g)
	}
	r := d.modP(g)
	if r == 0 {
		// Not a unit mod p1: Exp(g, e1, p1) = 0 ≠ 1, so isQR is false.
		return true
	}
	// r^e = ±1 for units (Euler), and comparing in form against pone
	// avoids converting out.
	return d.powWord(r, d.e) != d.pone
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
	m, ok = d.sym[d.powWord(d.modP(c), d.e8)]
	return m, ok
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
// the Matrix.SetColumn layout — feed the result to ColumnBytes for the
// block's bytes). A wrong-length answer is an *AnswerLengthError, an
// undecryptable ciphertext a *SymbolError naming the first one.
func (k *ClientKey) DecodeRecursive(ans *Answer, colBytes int) ([]bool, error) {
	if colBytes <= 0 {
		return nil, errColumnSize
	}
	if k.y == nil {
		return nil, errNoPackingElement
	}
	rows := colBytes * 8
	modBytes := (k.N.BitLen() + 7) / 8
	if len(ans.Gammas) != rows*modBytes {
		return nil, &AnswerLengthError{Got: len(ans.Gammas), Want: rows * modBytes}
	}
	d := k.decoder()
	raw := make([]byte, len(ans.Gammas)) // the grid column's gamma image
	var mu sync.Mutex
	bad := len(raw) // the first undecryptable ciphertext, across workers
	parallelRanges(len(raw), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m, ok := d.symbol(k, ans.Gammas[i])
			if !ok {
				mu.Lock()
				bad = min(bad, i)
				mu.Unlock()
				return
			}
			raw[i] = m
		}
	})
	if bad < len(raw) {
		return nil, &SymbolError{Pos: bad}
	}
	out := make([]bool, rows)
	parallelRanges(rows, 512, func(lo, hi int) {
		g := new(big.Int)
		for r := lo; r < hi; r++ {
			g.SetBytes(raw[r*modBytes : (r+1)*modBytes])
			out[r] = d.qnr(k, g)
		}
	})
	return out, nil
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
