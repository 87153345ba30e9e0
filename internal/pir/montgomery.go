package pir

import (
	"math/big"
	"math/bits"

	"embellish/internal/mont"
)

// Montgomery-form modular multiplication under the executors. The
// multi-word kernel — the CIOS loop, the REDC constants, the refusal of
// even, degenerate and over-wide client moduli (callers then fall back
// to the big.Int path) — is internal/mont's, shared with the ranking
// fold. This file keeps what is pir's own: the one-word REDC forms the
// scan inlines into its loops, and the Mont view that hands their
// callers the constants as plain fields.

// Mont is one odd modulus in Montgomery form: mont.Modulus with the
// constants laid out as fields for the one-word loops (kernel.go,
// recursive.go), and a Mul that takes the inlined one-word REDC when the
// modulus fits a word. Read-only after NewMont, so one Mont is shared by
// concurrent workers.
type Mont struct {
	*mont.Modulus
	n     []big.Word // the modulus, little-endian words, top word nonzero
	nInt  *big.Int   // the same modulus as a big.Int
	n0inv big.Word   // -n^{-1} mod 2^W, the REDC folding constant
	rr    []big.Word // R² mod n: the multiplier into the form
	one   []big.Word // the plain value 1: the multiplier out of the form
}

// NewMont precomputes the REDC constants for one modulus, refusing what
// mont.New refuses: even, below 3, or beyond the wire protocol's modulus
// ceiling.
func NewMont(n *big.Int) (*Mont, error) {
	m, err := mont.New(n)
	if err != nil {
		return nil, err
	}
	return &Mont{Modulus: m, n: m.N(), nInt: new(big.Int).Set(n), n0inv: m.N0Inv(), rr: m.RR(), one: m.One()}, nil
}

// Mul computes dst = a·b·R^{-1} mod n, the canonical representative of
// the Montgomery product; dst may alias a or b. One-word moduli take
// montMulWord, everything wider mont.Modulus.Mul. (ToMont and FromMont
// are the embedded Modulus's: conversions are off the scan's hot loops,
// which convert in place through this Mul.)
func (m *Mont) Mul(dst, a, b []big.Word) {
	if len(m.n) == 1 {
		dst[0] = big.Word(montMulWord(uint(a[0]), uint(b[0]), uint(m.n[0]), uint(m.n0inv)))
		return
	}
	m.Modulus.Mul(dst, a, b)
}

// montMulWord is REDC for one-word moduli, where the whole CIOS loop
// collapses to two wide multiplications, one fold and a conditional
// subtract. It is a free function of plain uints (not a method slicing
// []big.Word) so the compiler inlines it into its callers' loops with
// the modulus and folding constant held in registers — at this width the
// generic Mul's per-call scratch zeroing costs several times the
// reduction itself. The result is the canonical representative, same
// as Mul: a·b + q·n < 2n·2^W, so one subtract suffices.
//
// The subtract is a branch, the form for dependent chains (Mont.Mul, the
// lanes of qrDecoder.powWords): prediction lets the next product start
// before the comparison resolves, and under the residue test's half-width
// prime the branch is never taken — the select of montMulWordSel made the
// scalar Euler test 1.3 -> 1.85 ms per 8,192 gammas.
func montMulWord(a, b, n, n0inv uint) uint {
	hi, lo := bits.Mul(a, b)
	q := lo * n0inv
	nhi, nlo := bits.Mul(q, n)
	// lo + nlo ≡ 0 (mod 2^W) by the choice of q; only its carry
	// survives the shift.
	_, c := bits.Add(lo, nlo, 0)
	u, o := bits.Add(hi, nhi, c)
	if o != 0 || u >= n {
		u -= n
	}
	return u
}

// montMulWordSel is montMulWord with the subtract as a single-comparison
// select, which compiles to a conditional move — the form for loops of
// independent products over random residues (the scan's fold, table and
// row loops), where the branch mispredicts about every second product
// and costs more than the three multiplications: 3.5 -> 1.85 ns per
// product in wordFold.
func montMulWordSel(a, b, n, n0inv uint) uint {
	hi, lo := bits.Mul(a, b)
	nhi, nlo := bits.Mul(lo*n0inv, n)
	_, c := bits.Add(lo, nlo, 0)
	u, o := bits.Add(hi, nhi, c)
	// The sum reaches n — and the difference d is the result — either
	// with a carry out (then u < n, so the subtract borrows: o = borrow =
	// 1) or with u >= n (o = borrow = 0); o = 0 with a borrow is the one
	// case that keeps u.
	d, borrow := bits.Sub(u, n, 0)
	if borrow == o {
		u = d
	}
	return u
}
