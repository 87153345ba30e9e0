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
// base-2^w digit of e. The entries live in Montgomery form in one slab
// of machine words (internal/mont), built and read without a big.Int:
// PowWords is the serving fold's entry point, Pow converts out for
// everyone else.
type FixedBase struct {
	m      *mont.Modulus
	window uint
	mask   int64
	// table holds entry (i, d) at word offset ((i<<window)+d)·Words().
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
		table:  make([]big.Word, numWindows*size*k),
	}
	// windowBase = base^(2^{w·i}), advanced by repeated squaring between
	// windows; each table row is windowBase^d for d = 0..2^w-1. The
	// squarings run in the next row's entry 1, where the result belongs.
	windowBase := base
	for i := 0; i < numWindows; i++ {
		row := fb.table[i*size*k : (i+1)*size*k]
		copy(row[:k], m.R())
		copy(row[k:2*k], windowBase)
		windowBase = row[k : 2*k]
		for d := 2; d < size; d++ {
			m.Mul(row[d*k:(d+1)*k], row[(d-1)*k:d*k], windowBase)
			fb.setupMuls++
		}
		if i+1 < numWindows {
			next := fb.table[((i+1)*size+1)*k : ((i+1)*size+2)*k]
			copy(next, windowBase)
			for s := uint(0); s < window; s++ {
				m.Mul(next, next, next)
				fb.setupMuls++
			}
			windowBase = next
		}
	}
	return fb
}

// SetupMuls reports the modular multiplications spent building the table.
func (fb *FixedBase) SetupMuls() int { return fb.setupMuls }

// PowWords returns base^e mod n in Montgomery form for e from 0 to the
// maxExp the table was built for, spending one modular multiplication
// per nonzero base-2^w digit of e beyond the first; muls reports how
// many. The result is a table entry when e has a single nonzero digit
// (the caller must not write it) and scratch, a Words()-long buffer of
// the caller's, otherwise. It allocates nothing.
func (fb *FixedBase) PowWords(scratch []big.Word, e int64) (c []big.Word, muls int) {
	k := fb.m.Words()
	for at := 0; e > 0 && at < len(fb.table); at += k << fb.window {
		d := int(e & fb.mask)
		e >>= fb.window
		if d == 0 {
			continue
		}
		entry := fb.table[at+d*k : at+(d+1)*k]
		if c == nil {
			c = entry
			continue
		}
		fb.m.Mul(scratch, c, entry)
		c = scratch
		muls++
	}
	if c == nil {
		c = fb.m.R()
	}
	return c, muls
}

// Pow is PowWords converted out of the form: a fresh big.Int the caller
// may mutate.
func (fb *FixedBase) Pow(e int64) (c *big.Int, muls int) {
	if fb.m == nil {
		for v := e; v > 0; v >>= fb.window {
			if v&fb.mask != 0 {
				muls++
			}
		}
		return new(big.Int).Exp(fb.base, big.NewInt(e), fb.n), max(muls-1, 0)
	}
	w, muls := fb.PowWords(make([]big.Word, fb.m.Words()), e)
	return fb.m.FromMont(w), muls
}
