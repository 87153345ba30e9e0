// Package mont is Montgomery-form modular multiplication on machine-word
// slabs: the one multi-word kernel under the ranking fold
// (internal/core, internal/benaloh) and under internal/pir's multi-word
// moduli.
//
// The big.Int way to multiply modulo n is Mul then Mod: a long division
// per product, and in the general API an allocation. Montgomery's trick
// replaces the division with shifts. Values are carried as x·R mod n
// (R = 2^(W·k) for a k-word n); the REDC reduction interleaves the
// multiply with additions of multiples of n chosen so the low words
// cancel — word operations only, no quotient, no allocation.
//
// The form is a bijection of Z_n, entered by one product with R² and
// left by one product with 1, and Mul always returns the canonical
// representative. So converting operands in, working in form and
// converting results out yields exactly the residues Mul + Mod compute,
// bit for bit: callers hold their word paths to a big.Int oracle
// ciphertext for ciphertext.
//
// The kernel is one loop, generic in width. A two-word modulus — the
// prime Benaloh decryption works modulo at 130- to 257-bit keys — takes
// the same reduction unrolled onto registers (mulWord2); Mul, Exp and
// ExpPair pick it by the modulus's width and by nothing else. A four-word
// modulus — n itself at 193- to 256-bit keys, which every ranking fold
// multiplies modulo — takes the loop's CIOS rows with the accumulator,
// the operand and the modulus in locals (mulWord4), picked by Mul alone
// and reached by Exp through it. Both keep the generic loop's operand
// contract, product count and canonical results, and the generic loop is
// the reference the tests hold them to word for word. ExpPair walks one
// exponent over two bases, so that at two words the two chains' products
// overlap in one core.
//
// A caller may also carry values at other scales than the form: x·R^s
// with s tracked beside the value, a product of scales s and t landing at
// s+t-1 (plain operands are s = 0). Exit takes any s <= 1 out by one
// product with R^(1-s), and a plain value with none — the ranking fold's
// fixed-base tables keep their higher rows plain so that most candidates
// leave with no product at all.
//
// REDC needs gcd(n, R) = 1, an odd modulus. Honest moduli are products
// of odd primes, but the serving paths take client-chosen moduli off the
// wire, so New refuses even (and degenerate) moduli with an error and
// callers fall back to big.Int arithmetic.
package mont

import (
	"errors"
	"math/big"
	"math/bits"
)

// MaxWords bounds the modulus width, matching the wire decoder's
// 8192-bit ceiling: Mul's accumulator is a stack buffer that must cover
// any modulus that can reach a serving path.
const MaxWords = 8192 / bits.UintSize

// smallWords is the width up to which Mul runs on the small stack
// accumulator. Served keys are 128-512 bits (2-9 words); clearing the
// MaxWords buffer for them cost more than the product.
const smallWords = 16

var (
	errEven  = errors.New("mont: Montgomery form requires an odd modulus")
	errSmall = errors.New("mont: modulus too small for Montgomery form")
	errWide  = errors.New("mont: modulus too wide for Montgomery form")
	errRange = errors.New("mont: value outside the canonical range [0, n)")
)

// Modulus holds the REDC constants of one odd modulus. It is read-only
// after New, so one Modulus is shared by concurrent workers; Mul's
// scratch lives on each caller's stack.
type Modulus struct {
	n     []big.Word // the modulus, little-endian, top word nonzero
	nInt  *big.Int   // the same modulus, for range checks
	n0inv big.Word   // -n^{-1} mod 2^W, the REDC folding constant
	rr    []big.Word // R² mod n: the multiplier into the form
	r     []big.Word // R mod n: the form of 1
	one   []big.Word // the plain value 1: the multiplier out of the form
}

// New precomputes the REDC constants of n, which must be odd, at least 3
// and at most MaxWords wide.
func New(n *big.Int) (*Modulus, error) {
	if n.Sign() <= 0 || n.BitLen() < 2 {
		return nil, errSmall
	}
	if n.Bit(0) == 0 {
		return nil, errEven
	}
	k := len(n.Bits())
	if k > MaxWords {
		return nil, errWide
	}
	m := &Modulus{nInt: new(big.Int).Set(n)}
	m.n = m.nInt.Bits()
	// -n^{-1} mod 2^W by Newton iteration: for odd n, n·n ≡ 1 (mod 8),
	// and every step doubles the number of correct low bits.
	inv := m.n[0]
	for i := 0; i < 6; i++ {
		inv *= 2 - m.n[0]*inv
	}
	m.n0inv = -inv
	// R² mod n by one division; R mod n from it by one product.
	rr := new(big.Int).Lsh(big.NewInt(1), uint(2*k*bits.UintSize))
	m.rr = make([]big.Word, 3*k)
	m.r, m.one = m.rr[k:2*k:2*k], m.rr[2*k:]
	m.rr = m.rr[:k:k]
	copy(m.rr, rr.Mod(rr, n).Bits())
	m.one[0] = 1
	m.Mul(m.r, m.rr, m.one)
	return m, nil
}

// Words returns the modulus width in machine words; every operand slice
// the kernel touches has exactly this length.
func (m *Modulus) Words() int { return len(m.n) }

// N returns the modulus as little-endian words. Like the other
// constants below it is shared, not copied: callers must not write it.
func (m *Modulus) N() []big.Word { return m.n }

// N0Inv returns -n^{-1} mod 2^W, for callers running their own one-word
// REDC on the same modulus.
func (m *Modulus) N0Inv() big.Word { return m.n0inv }

// RR returns R² mod n: Mul(dst, x, RR) takes a canonical x into the form.
func (m *Modulus) RR() []big.Word { return m.rr }

// R returns R mod n, the Montgomery form of 1.
func (m *Modulus) R() []big.Word { return m.r }

// One returns the plain value 1: Mul(dst, a, One) takes a out of the form.
func (m *Modulus) One() []big.Word { return m.one }

// Put writes the Montgomery form x·R mod n of a canonical residue into
// dst. Non-canonical input — negative or >= n — is refused rather than
// silently reduced: serving paths hold canonical residues only, so an
// out-of-range value is a caller bug that must not become a wrong answer.
func (m *Modulus) Put(dst []big.Word, x *big.Int) error {
	if x.Sign() < 0 || x.Cmp(m.nInt) >= 0 {
		return errRange
	}
	clear(dst[copy(dst, x.Bits()):])
	m.Mul(dst, dst, m.rr)
	return nil
}

// ToMont is Put into a fresh slice.
func (m *Modulus) ToMont(x *big.Int) ([]big.Word, error) {
	dst := make([]big.Word, len(m.n))
	if err := m.Put(dst, x); err != nil {
		return nil, err
	}
	return dst, nil
}

// FromMont returns the canonical residue of a Montgomery-form value.
func (m *Modulus) FromMont(a []big.Word) *big.Int {
	dst := make([]big.Word, len(m.n))
	m.Mul(dst, a, m.one)
	return new(big.Int).SetBits(dst)
}

// Exit takes values out of the form at any scale: a value carried as
// x·R^s mod n, for an integer s <= 1, leaves by one product with R^(1-s),
// which cancels the scale — One for a value in the form (s = 1), R² for
// one at R^-1. A product of two values at scales s and t is at s+t-1, so
// a caller mixing form and plain operands tracks s beside each value and
// leaves once at the end. The powers past R² are built from R² by one
// product each on first use and kept; one Exit serves one goroutine.
type Exit struct {
	m    *Modulus
	high []big.Word // R^3, R^4, ... mod n, R^j at [(j-3)·k, (j-2)·k)
}

// NewExit returns an Exit for m holding no power past R² yet.
func (m *Modulus) NewExit() *Exit { return &Exit{m: m} }

// Leave sets dst = x, canonical, for a = x·R^s mod n with s <= 1: a copy
// at s = 0, one product otherwise. dst may alias a.
func (ex *Exit) Leave(dst, a []big.Word, s int) {
	m, k := ex.m, len(ex.m.n)
	var by []big.Word
	switch j := 1 - s; j {
	case 0:
		by = m.one
	case 1:
		copy(dst, a)
		return
	case 2:
		by = m.rr
	default:
		for have := len(ex.high)/k + 2; have < j; have++ {
			prev := m.rr
			if have > 2 {
				prev = ex.high[len(ex.high)-k:]
			}
			ex.high = append(ex.high, make([]big.Word, k)...)
			m.Mul(ex.high[len(ex.high)-k:], prev, m.rr)
		}
		by = ex.high[(j-3)*k : (j-2)*k]
	}
	m.Mul(dst, a, by)
}

// Mul sets dst = a·b·R^{-1} mod n, the Montgomery product, as its
// canonical representative. dst may alias a or b. Allocation-free.
func (m *Modulus) Mul(dst, a, b []big.Word) {
	if len(m.n) == 2 {
		d0, d1 := mulWord2(uint(a[0]), uint(a[1]), uint(b[0]), uint(b[1]), uint(m.n[0]), uint(m.n[1]), uint(m.n0inv))
		dst[1], dst[0] = big.Word(d1), big.Word(d0)
		return
	}
	if len(m.n) == 4 {
		mulWord4((*[4]big.Word)(dst), (*[4]big.Word)(a), (*[4]big.Word)(b), (*[4]big.Word)(m.n), uint(m.n0inv))
		return
	}
	if k := len(m.n); k <= smallWords {
		var t [smallWords]big.Word
		m.mul(t[:k], dst, a, b)
		return
	}
	m.mulWide(dst, a, b)
}

// Exp sets dst = base^e, both in Montgomery form, for the non-negative
// exponent e given as little-endian words (a big.Int's Bits), by
// left-to-right square-and-multiply, and reports the products it took:
// one per bit of e below the top one and one more per such bit that is
// set. dst must not alias base. It is variable-time in e.
func (m *Modulus) Exp(dst, base, e []big.Word) (muls int) {
	for len(e) > 0 && e[len(e)-1] == 0 {
		e = e[:len(e)-1]
	}
	if len(e) == 0 {
		copy(dst, m.r)
		return 0
	}
	if len(m.n) == 2 {
		return m.exp2(dst, base, e)
	}
	copy(dst, base)
	for bit := len(e)*bits.UintSize - bits.LeadingZeros(uint(e[len(e)-1])) - 2; bit >= 0; bit-- {
		m.Mul(dst, dst, dst)
		muls++
		if e[bit/bits.UintSize]>>(bit%bits.UintSize)&1 == 1 {
			m.Mul(dst, dst, base)
			muls++
		}
	}
	return muls
}

// ExpPair sets dst0 = base0^e and dst1 = base1^e: Exp's walk of one
// exponent over two bases, with Exp's canonical results and its product
// count, which it returns once — each lane takes that many. At two words
// both lanes ride one loop in registers, each step issuing the two lanes'
// independent products back to back, so the core runs one lane's
// multiplies while the other's wait out the multiplier's latency; at
// every other width it is two Exp chains. Neither dst may alias either
// base, nor the other dst. Allocation-free and variable-time in e.
func (m *Modulus) ExpPair(dst0, dst1, base0, base1, e []big.Word) (muls int) {
	for len(e) > 0 && e[len(e)-1] == 0 {
		e = e[:len(e)-1]
	}
	if len(m.n) != 2 || len(e) == 0 {
		m.Exp(dst0, base0, e)
		return m.Exp(dst1, base1, e)
	}
	n0, n1, n0inv := uint(m.n[0]), uint(m.n[1]), uint(m.n0inv)
	a0, a1 := uint(base0[0]), uint(base0[1])
	c0, c1 := uint(base1[0]), uint(base1[1])
	x0, x1, y0, y1 := a0, a1, c0, c1
	for bit := len(e)*bits.UintSize - bits.LeadingZeros(uint(e[len(e)-1])) - 2; bit >= 0; bit-- {
		x0, x1 = mulWord2(x0, x1, x0, x1, n0, n1, n0inv)
		y0, y1 = mulWord2(y0, y1, y0, y1, n0, n1, n0inv)
		muls++
		if e[bit/bits.UintSize]>>(bit%bits.UintSize)&1 == 1 {
			x0, x1 = mulWord2(x0, x1, a0, a1, n0, n1, n0inv)
			y0, y1 = mulWord2(y0, y1, c0, c1, n0, n1, n0inv)
			muls++
		}
	}
	dst0[1], dst0[0] = big.Word(x1), big.Word(x0)
	dst1[1], dst1[0] = big.Word(y1), big.Word(y0)
	return muls
}

// Reduce sets dst = x·R mod n, the Montgomery form of x mod n, for a
// non-negative x of any width given as little-endian words (a big.Int's
// Bits) — a reduction without a division. Cut into limbs of the modulus
// width, x is a number in base R, folded from the top by Horner's rule on
// the form: with v·R in dst, (v·R + limb)·R is the form of v·R + limb, and
// multiplying by R is a product with R². The sum is no residue, but Mul's
// bound asks for one canonical operand only and R² is; it need only fit
// the width, and taking n off a sum that carries out (n + R bounds it)
// brings it back under R. dst must not alias x.
func (m *Modulus) Reduce(dst, x []big.Word) {
	k := len(m.n)
	clear(dst)
	for hi := len(x); hi > 0; {
		lo := (hi - 1) / k * k
		limb := x[lo:hi] // the top limb may be short
		var carry uint
		for j := range dst {
			var w, s uint
			if j < len(limb) {
				w = uint(limb[j])
			}
			s, carry = bits.Add(uint(dst[j]), w, carry)
			dst[j] = big.Word(s)
		}
		if carry != 0 {
			var borrow uint
			for j := range dst {
				var d uint
				d, borrow = bits.Sub(uint(dst[j]), uint(m.n[j]), borrow)
				dst[j] = big.Word(d)
			}
		}
		m.Mul(dst, dst, m.rr)
		hi = lo
	}
}

// mulWide keeps the MaxWords accumulator out of Mul's frame.
func (m *Modulus) mulWide(dst, a, b []big.Word) {
	var t [MaxWords]big.Word
	m.mul(t[:len(m.n)], dst, a, b)
}

// mul is the kernel: CIOS (coarsely integrated operand scanning) with
// the two inner loops fused. Pass i adds a[i]·b and the multiple q·n
// that zeroes the low word in one sweep with two carry chains, storing
// word j at j-1 — the division by R happens a word per pass with no
// shifting copy. The running value stays below 2n: k words in t (zero on
// entry) and one bit in top. A final compare-and-subtract leaves the
// canonical representative, which is what keeps word paths byte-identical
// to big.Int.
func (m *Modulus) mul(t, dst, a, b []big.Word) {
	k := len(t)
	n := m.n[:k]
	a, b, dst = a[:k], b[:k], dst[:k]
	n0inv := uint(m.n0inv)
	var top uint
	for i := 0; i < k; i++ {
		ai := uint(a[i])
		c1, lo := bits.Mul(ai, uint(b[0]))
		lo, c := bits.Add(lo, uint(t[0]), 0)
		c1 += c
		q := lo * n0inv
		c2, lo2 := bits.Mul(q, uint(n[0]))
		_, c = bits.Add(lo2, lo, 0) // the low word cancels by the choice of q
		c2 += c
		for j := 1; j < k; j++ {
			// Neither high word can overflow: x·y + z + w <= 2^2W - 1.
			hi, lo := bits.Mul(ai, uint(b[j]))
			lo, c = bits.Add(lo, uint(t[j]), 0)
			hi += c
			lo, c = bits.Add(lo, c1, 0)
			c1 = hi + c
			hi, lo2 = bits.Mul(q, uint(n[j]))
			lo2, c = bits.Add(lo2, lo, 0)
			hi += c
			lo2, c = bits.Add(lo2, c2, 0)
			c2 = hi + c
			t[j-1] = big.Word(lo2)
		}
		s, c := bits.Add(c1, c2, 0)
		s, c2 = bits.Add(s, top, 0)
		t[k-1] = big.Word(s)
		top = c + c2
	}
	// dst = t - n; a borrow out of a value without the top bit means
	// t < n, and t itself is the result.
	var borrow uint
	for j := 0; j < k; j++ {
		var d uint
		d, borrow = bits.Sub(uint(t[j]), uint(n[j]), borrow)
		dst[j] = big.Word(d)
	}
	if borrow > top {
		copy(dst, t)
	}
}

// exp2 is Exp's chain for a two-word modulus and an exponent with a
// nonzero top word: the same squares and products in the same order, with
// base, accumulator and modulus held in locals from the first square to
// the one store at the end.
func (m *Modulus) exp2(dst, base, e []big.Word) (muls int) {
	n0, n1, n0inv := uint(m.n[0]), uint(m.n[1]), uint(m.n0inv)
	b0, b1 := uint(base[0]), uint(base[1])
	x0, x1 := b0, b1
	for bit := len(e)*bits.UintSize - bits.LeadingZeros(uint(e[len(e)-1])) - 2; bit >= 0; bit-- {
		x0, x1 = mulWord2(x0, x1, x0, x1, n0, n1, n0inv)
		muls++
		if e[bit/bits.UintSize]>>(bit%bits.UintSize)&1 == 1 {
			x0, x1 = mulWord2(x0, x1, b0, b1, n0, n1, n0inv)
			muls++
		}
	}
	dst[1], dst[0] = big.Word(x1), big.Word(x0)
	return muls
}

// mulWord2 is mul for a two-word modulus on values that never leave
// registers — no accumulator to clear, no slice to bound — in operand-
// scanning order rather than mul's interleaved one: the whole four-word
// product a·b first (four independent multiplies), then two REDC folds,
// each adding q·n a word up in one carry chain, then the final
// compare-and-subtract, chosen by a mask rather than a branch. Benaloh
// decryption works modulo p1, half the key's width, so at 256-bit keys
// every one of its ~185 products per candidate is this one, and with two
// lanes in flight (ExpPair) a mispredicted branch in either would flush
// both. Like mul it asks for b canonical and takes any two-word a, and it
// returns mul's canonical result word for word.
func mulWord2(a0, a1, b0, b1, n0, n1, n0inv uint) (uint, uint) {
	// p = a·b in four words: below R·n, so nothing carries out of p3.
	h00, p0 := bits.Mul(a0, b0)
	h01, l01 := bits.Mul(a0, b1)
	h10, l10 := bits.Mul(a1, b0)
	h11, l11 := bits.Mul(a1, b1)
	p1, c := bits.Add(h00, l01, 0)
	p2, c := bits.Add(h01, l11, c)
	p3, _ := bits.Add(h11, 0, c)
	p1, c = bits.Add(p1, l10, 0)
	p2, c = bits.Add(p2, h10, c)
	p3, _ = bits.Add(p3, 0, c)

	// Fold 0: p += q·n with q chosen so p0 cancels; p4 is the bit above p3.
	q := p0 * n0inv
	hq0, lq0 := bits.Mul(q, n0)
	hq1, lq1 := bits.Mul(q, n1)
	_, c = bits.Add(p0, lq0, 0)
	p1, c = bits.Add(p1, hq0, c)
	p2, c = bits.Add(p2, hq1, c)
	p3, p4 := bits.Add(p3, 0, c)
	p1, c = bits.Add(p1, lq1, 0)
	p2, c = bits.Add(p2, 0, c)
	p3, c = bits.Add(p3, 0, c)
	p4 += c

	// Fold 1 cancels p1: t = p / R = p4:p3:p2, below 2n.
	q = p1 * n0inv
	hq0, lq0 = bits.Mul(q, n0)
	hq1, lq1 = bits.Mul(q, n1)
	_, c = bits.Add(p1, lq0, 0)
	p2, c = bits.Add(p2, hq0, c)
	p3, c = bits.Add(p3, hq1, c)
	p4 += c
	p2, c = bits.Add(p2, lq1, 0)
	p3, c = bits.Add(p3, 0, c)
	p4 += c

	// t - n; a borrow out of a value without the top bit means t < n, and
	// t itself is the result: keep is all ones then, zero otherwise.
	d0, borrow := bits.Sub(p2, n0, 0)
	d1, borrow := bits.Sub(p3, n1, borrow)
	keep := -(borrow &^ p4)
	return d0 ^ (p2^d0)&keep, d1 ^ (p3^d1)&keep
}

// mulWord4 is mul for a four-word modulus — n at 193- to 256-bit keys, the
// modulus every ranking fold runs on at the served 256 — with the
// accumulator, b and n in locals: the same CIOS rows in the same order,
// each unrolled into four word steps, and the final compare-and-subtract
// chosen by a mask. dst is written once, after the last read of a and b,
// so it may alias either. Like mul it asks for b canonical and takes any
// four-word a, and it returns mul's canonical result word for word.
func mulWord4(dst, a, b, n *[4]big.Word, n0inv uint) {
	b0, b1, b2, b3 := uint(b[0]), uint(b[1]), uint(b[2]), uint(b[3])
	n0, n1, n2, n3 := uint(n[0]), uint(n[1]), uint(n[2]), uint(n[3])
	var t0, t1, t2, t3, top uint
	for _, ai := range a {
		ai := uint(ai)
		c1, lo := bits.Mul(ai, b0)
		lo, c := bits.Add(lo, t0, 0)
		c1 += c
		q := lo * n0inv
		c2, lo2 := bits.Mul(q, n0)
		_, c = bits.Add(lo2, lo, 0) // the low word cancels by the choice of q
		c2 += c
		t0, c1, c2 = ciosStep(ai, b1, t1, q, n1, c1, c2)
		t1, c1, c2 = ciosStep(ai, b2, t2, q, n2, c1, c2)
		t2, c1, c2 = ciosStep(ai, b3, t3, q, n3, c1, c2)
		t3, c = bits.Add(c1, c2, 0)
		t3, c2 = bits.Add(t3, top, 0)
		top = c + c2
	}
	// t - n; a borrow out of a value without the top bit means t < n, and
	// t itself is the result: keep is all ones then, zero otherwise.
	d0, borrow := bits.Sub(t0, n0, 0)
	d1, borrow := bits.Sub(t1, n1, borrow)
	d2, borrow := bits.Sub(t2, n2, borrow)
	d3, borrow := bits.Sub(t3, n3, borrow)
	keep := -(borrow &^ top)
	dst[0], dst[1] = big.Word(d0^(t0^d0)&keep), big.Word(d1^(t1^d1)&keep)
	dst[2], dst[3] = big.Word(d2^(t2^d2)&keep), big.Word(d3^(t3^d3)&keep)
}

// ciosStep is word j of a CIOS row, mul's inner loop body: it adds ai·bj
// and q·nj to tj under the row's two carries, returns the word that lands
// at j-1 and the carries out. Neither high word can overflow:
// x·y + z + w <= 2^2W - 1.
func ciosStep(ai, bj, tj, q, nj, c1, c2 uint) (t, c1out, c2out uint) {
	hi, lo := bits.Mul(ai, bj)
	lo, c := bits.Add(lo, tj, 0)
	hi += c
	lo, c = bits.Add(lo, c1, 0)
	c1out = hi + c
	hi, t = bits.Mul(q, nj)
	t, c = bits.Add(t, lo, 0)
	hi += c
	t, c = bits.Add(t, c2, 0)
	return t, c1out, hi + c
}
