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
// gammas; a recursive one holds 8·rows·modBytes — one per BIT of the
// serialized target grid column, 64·modBytes times as many. Two things
// keep either affordable:
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
//     the gamma's: a 0-bit and a 1-bit cost the same.
//
// Keys whose p1 does not fit one word fall back to the full isQR —
// exact for any transcript, honest or not.

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
	k.dec.Store(d)
	return d
}

// qnr reports whether g is a quadratic non-residue — the bit value —
// using the single-prime shortcut when the kernel applies. g must be
// non-negative.
func (d *qrDecoder) qnr(k *ClientKey, g *big.Int) bool {
	if !d.word {
		return !k.isQR(g)
	}
	// g mod p by folding the words most-significant first; each step's
	// remainder is < p, the precondition bits.Div requires.
	w := g.Bits()
	var r uint
	for i := len(w) - 1; i >= 0; i-- {
		_, r = bits.Div(r, uint(w[i]), d.p)
	}
	if r == 0 {
		// Not a unit mod p1: Exp(g, e1, p1) = 0 ≠ 1, so isQR is false.
		return true
	}
	// r^e mod p, Montgomery square-and-multiply; r^e = ±1 for units
	// (Euler), and comparing in form against pone avoids converting out.
	x := montMulWord(r, d.prr, d.p, d.pinv)
	res := d.pone
	for i := bits.Len(d.e) - 1; i >= 0; i-- {
		res = montMulWord(res, res, d.p, d.pinv)
		if d.e&(1<<uint(i)) != 0 {
			res = montMulWord(res, x, d.p, d.pinv)
		}
	}
	return res != d.pone
}

// DecodeRecursive peels both layers of a recursive answer: Euler-test
// the level-2 gammas into the byte image of the target grid column,
// cut the image into colBytes·8 fixed-width level-1 gammas, and
// Euler-test those into the target block's bits (MSB-first, the
// Matrix.SetColumn layout — feed the result to ColumnBytes for the
// block's bytes).
func (k *ClientKey) DecodeRecursive(ans *Answer, colBytes int) ([]bool, error) {
	if colBytes <= 0 {
		return nil, errColumnSize
	}
	rows := colBytes * 8
	modBytes := (k.N.BitLen() + 7) / 8
	if len(ans.Gammas) != 8*rows*modBytes {
		return nil, fmt.Errorf("pir: recursive answer holds %d gammas, want %d", len(ans.Gammas), 8*rows*modBytes)
	}
	d := k.decoder()
	bits2 := make([]bool, len(ans.Gammas))
	parallelRanges(len(bits2), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bits2[i] = d.qnr(k, ans.Gammas[i])
		}
	})
	raw := ColumnBytes(bits2) // rows·modBytes bytes: the grid column's gamma image
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
// for colBytes-byte blocks: 64·colBytes·modBytes gammas of modBytes
// bytes each. The recursion trades the flat path's upload for a wider
// answer — the download is modBytes·8-fold the flat one, which is why
// the win is measured in uploaded bytes and total time, not downloads.
func (k *ClientKey) RecursiveAnswerBytes(colBytes int) int {
	modBytes := (k.N.BitLen() + 7) / 8
	return 64 * colBytes * modBytes * modBytes
}

// dec is ClientKey's cached decoder; declared here next to its kernel.
// (The field lives on ClientKey via the embedded holder below so the
// caching concern stays out of pir.go.)
type decoderCache struct {
	dec atomic.Pointer[qrDecoder]
}
