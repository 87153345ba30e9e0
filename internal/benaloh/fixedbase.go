package benaloh

import (
	"math/big"

	"embellish/internal/mont"
)

// FixedBase is a fixed-base windowed-exponentiation table for one
// ciphertext. The server's Algorithm 4 inner loop raises the same flag
// ciphertext E(u) to a small public exponent p (the quantized impact)
// once per posting; a full square-and-multiply Exp costs ~1.5 modular
// multiplications per exponent bit on every posting, whereas a fixed-base
// table pays that cost once per query term and then answers each E(u)^p
// with at most digits-1 multiplications — table lookups plus a few
// products.
//
// The table uses radix 2^w: entry (i, d) = base^(d·2^{w·i}) mod n for
// d ∈ [0, 2^w) and i over the ⌈maxBits/w⌉ windows needed to cover the
// largest expected exponent. A power multiplies one entry per nonzero
// base-2^w digit of e. The entries live in one slab of machine words
// (internal/mont), built and read without a big.Int: row 0 in Montgomery
// form, every higher row as plain residues. A Montgomery product of a
// form entry and a plain one is plain, so a power with a row-0 digit and
// a higher digit comes out of the form with no product of its own. PowR
// is the serving fold's entry point and reports each power's scale; Pow
// takes it out of the form for everyone else.
type FixedBase struct {
	m      *mont.Modulus
	window uint
	mask   int64
	// table holds entry (i, d) at word offset ((i<<window)+d)·Words():
	// row 0 in Montgomery form, the rows above it plain.
	table []big.Word
	// setupMuls is the number of modular multiplications spent building
	// the table, so callers can account precomputation in their CPU cost
	// models.
	setupMuls int
	// base and n serve Pow when there is no Montgomery form to work in —
	// n is not odd (no generated key's is) or base is outside [0, n):
	// plain exponentiation, the same accounting.
	base, n *big.Int
}

// DefaultWindow is the table radix exponent used when callers pass 0:
// 4-bit windows cover the conventional 255-level impact quantization
// with two windows, so each E(u)^p costs at most one multiplication.
const DefaultWindow = 4

// NewFixedBase builds the windowed table for base^e with e ∈ [0, maxExp].
// window is the radix exponent w (0 selects DefaultWindow). The table
// costs about ⌈bits(maxExp)/w⌉·(2^w-2)+(⌈bits(maxExp)/w⌉-1)·w modular
// multiplications to build; it pays for itself when the base is reused
// across more than a handful of exponentiations.
func (pk *PublicKey) NewFixedBase(base *big.Int, maxExp int64, window uint) *FixedBase {
	if window == 0 {
		window = DefaultWindow
	}
	var b []big.Word
	m, err := mont.New(pk.N)
	if err == nil {
		b, err = m.ToMont(base)
	}
	if err != nil {
		return &FixedBase{window: window, mask: 1<<window - 1, base: base, n: pk.N}
	}
	return NewFixedBaseMont(m, b, maxExp, window)
}

// NewFixedBaseMont is NewFixedBase for a caller already working in
// Montgomery form: base is a Words()-long value in the form of m, which
// the serving fold builds once per query and shares across its entries.
func NewFixedBaseMont(m *mont.Modulus, base []big.Word, maxExp int64, window uint) *FixedBase {
	if window == 0 {
		window = DefaultWindow
	}
	maxExp = max(maxExp, 1)
	bits := 0
	for v := maxExp; v > 0; v >>= 1 {
		bits++
	}
	numWindows := (bits + int(window) - 1) / int(window)
	k := m.Words()
	size := 1 << window
	fb := &FixedBase{
		m:      m,
		window: window,
		mask:   int64(size) - 1,
	}
	// windowBase = base^(2^{w·i}) in the form, advanced by repeated
	// squaring in sq between windows; each table row is windowBase^d for
	// d = 0..2^w-1. Row 0 is windowBase's own powers; a higher row starts
	// from windowBase taken out of the form — the one product per row
	// that is not counted, as conversions are not — and each product with
	// windowBase keeps it plain.
	slab := make([]big.Word, (numWindows*size+1)*k)
	sq := slab[numWindows*size*k:]
	fb.table = slab[:numWindows*size*k]
	windowBase := base
	for i := 0; i < numWindows; i++ {
		row := fb.table[i*size*k : (i+1)*size*k]
		if i == 0 {
			copy(row[:k], m.R())
			copy(row[k:2*k], windowBase)
		} else {
			copy(row[:k], m.One())
			m.Mul(row[k:2*k], windowBase, m.One())
		}
		for d := 2; d < size; d++ {
			m.Mul(row[d*k:(d+1)*k], row[(d-1)*k:d*k], windowBase)
			fb.setupMuls++
		}
		if i+1 < numWindows {
			copy(sq, windowBase)
			for s := uint(0); s < window; s++ {
				m.Mul(sq, sq, sq)
				fb.setupMuls++
			}
			windowBase = sq
		}
	}
	return fb
}

// SetupMuls reports the modular multiplications spent building the table.
func (fb *FixedBase) SetupMuls() int { return fb.setupMuls }

// PowR returns base^e·R^s mod n for e from 0 to the maxExp the table was
// built for, and the scale s: 1 (the Montgomery form) when e's only
// nonzero digit is in row 0, and one less than the sum of the factors'
// scales per product otherwise — 0, plain, for a row-0 digit beside one
// higher digit, or for one higher digit alone (e = 0 too). It spends one
// modular multiplication per nonzero base-2^w digit of e beyond the
// first; muls reports how many. The result is a table entry or the
// modulus's One when e has at most one nonzero digit (the caller must not
// write it) and scratch, a Words()-long buffer of the caller's, otherwise.
// It allocates nothing; mont.Exit takes any s out of the form.
func (fb *FixedBase) PowR(scratch []big.Word, e int64) (c []big.Word, s, muls int) {
	k := fb.m.Words()
	for at := 0; e > 0 && at < len(fb.table); at += k << fb.window {
		d := int(e & fb.mask)
		e >>= fb.window
		if d == 0 {
			continue
		}
		entry, es := fb.table[at+d*k:at+(d+1)*k], 0
		if at == 0 {
			es = 1
		}
		if c == nil {
			c, s = entry, es
			continue
		}
		fb.m.Mul(scratch, c, entry)
		c, s = scratch, s+es-1
		muls++
	}
	if c == nil {
		return fb.m.One(), 0, 0
	}
	return c, s, muls
}

// Pow is PowR taken out of the form: a fresh big.Int the caller may
// mutate.
func (fb *FixedBase) Pow(e int64) (c *big.Int, muls int) {
	if fb.m == nil {
		for v := e; v > 0; v >>= fb.window {
			if v&fb.mask != 0 {
				muls++
			}
		}
		return new(big.Int).Exp(fb.base, big.NewInt(e), fb.n), max(muls-1, 0)
	}
	out := make([]big.Word, fb.m.Words())
	w, s, muls := fb.PowR(out, e)
	fb.m.NewExit().Leave(out, w, s)
	return new(big.Int).SetBits(out), muls
}
