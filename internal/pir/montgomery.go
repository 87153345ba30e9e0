package pir

import (
	"errors"
	"math/big"
	"math/bits"
)

// Montgomery-form modular multiplication: the word-level kernel under
// the executors. The oracle and the fallback kernel multiply through
// big.Int's Mul + Mod/QuoRem, which costs a quotient computation (and, in
// the general API, an allocation) per product; at the demo-sized
// moduli the benchmarks run, that bookkeeping dominates the actual
// multiply. Montgomery's trick replaces the division with shifts:
// values are carried as x·R mod n (R = 2^(W·k) for k-word n), and the
// REDC reduction interleaves the multiply with additions of multiples
// of n chosen so the low words cancel — word operations only, no
// quotient, no allocation.
//
// The form is a bijection of Z_n, entered and left by two more
// Montgomery multiplications (by R² and by 1), so converting a batch
// in, running the whole scan in-form, and converting the k gammas out
// preserves exact values: every output is the canonical residue the
// big.Int reference computes, bit for bit. This mirrors the fixed-base
// precompute idiom of internal/benaloh: pay a per-batch setup
// (here R², there the window tables) to make the per-operation cost a
// few word multiplies.
//
// REDC requires gcd(n, R) = 1, i.e. an odd modulus. Honest PIR moduli
// are products of two odd primes, but the serving path takes client-
// chosen moduli off the wire, so NewMont rejects even (and tiny)
// moduli with an error and callers fall back to the big.Int path.

// maxMontWords bounds the modulus width the kernel accepts, matching
// the wire decoder's 8192-bit modulus ceiling: the per-product scratch
// lives in a fixed stack buffer, which must cover any modulus that can
// reach the serving path.
const maxMontWords = 8192 / bits.UintSize

var (
	errMontEven  = errors.New("pir: Montgomery form requires an odd modulus")
	errMontSmall = errors.New("pir: modulus too small for Montgomery form")
	errMontWide  = errors.New("pir: modulus too wide for Montgomery form")
	errMontRange = errors.New("pir: value outside the canonical range [0, n)")
)

// Mont is a Montgomery multiplication context for one odd modulus.
// The precomputed constants are read-only after NewMont, so one Mont
// is safely shared by concurrent workers; the per-call scratch lives
// on each caller's stack.
type Mont struct {
	n     []big.Word // the modulus, little-endian words, top word nonzero
	nInt  *big.Int   // the same modulus as a big.Int, for range checks
	n0inv big.Word   // -n^{-1} mod 2^W, the REDC folding constant
	rr    []big.Word // R² mod n: ToMont's multiplier
	one   []big.Word // the plain value 1, FromMont's multiplier
	// setupMuls counts the modular multiplications the constant setup
	// cost (R² is computed by division, not multiplication, so this is
	// zero today; the field keeps the accounting idiom of
	// benaloh.FixedBase.SetupMuls explicit).
	setupMuls int
}

// NewMont precomputes the REDC constants for one modulus. The modulus
// must be odd (gcd(n, 2^W·k) = 1 is what makes the reduction exact),
// at least 3, and within the wire protocol's modulus ceiling.
func NewMont(n *big.Int) (*Mont, error) {
	if n.Sign() <= 0 || n.Cmp(one) == 0 {
		return nil, errMontSmall
	}
	if n.Bit(0) == 0 {
		return nil, errMontEven
	}
	words := n.Bits()
	if len(words) > maxMontWords {
		return nil, errMontWide
	}
	m := &Mont{
		n:    append([]big.Word(nil), words...),
		nInt: new(big.Int).Set(n),
	}
	k := len(m.n)
	// n0inv = -n^{-1} mod 2^W by Newton iteration: for odd n, n·n ≡ 1
	// (mod 8), and every step doubles the number of correct low bits.
	inv := m.n[0] // 3 bits correct
	for i := 0; i < 6; i++ {
		inv *= 2 - m.n[0]*inv
	}
	m.n0inv = -inv
	// R² mod n, computed once per modulus with one big division.
	rr := new(big.Int).Lsh(one, uint(2*k*bits.UintSize))
	rr.Mod(rr, n)
	m.rr = wordsOf(rr, k)
	m.one = make([]big.Word, k)
	m.one[0] = 1
	return m, nil
}

// Words returns the modulus width in machine words; every operand
// slice the kernel touches has exactly this length.
func (m *Mont) Words() int { return len(m.n) }

// SetupMuls reports the modular multiplications spent on the constant
// setup, for callers charging precomputation to their cost models.
func (m *Mont) SetupMuls() int { return m.setupMuls }

// wordsOf lays x out as exactly k little-endian words. x must be
// non-negative and fit.
func wordsOf(x *big.Int, k int) []big.Word {
	w := make([]big.Word, k)
	copy(w, x.Bits())
	return w
}

// bigOf converts a little-endian word slice back to a big.Int.
func bigOf(w []big.Word) *big.Int {
	return new(big.Int).SetBits(append([]big.Word(nil), w...))
}

// ToMont converts a canonical residue into Montgomery form (x·R mod n)
// with one REDC multiplication by R². Non-canonical inputs — negative
// or >= n — are rejected rather than silently reduced: the serving
// paths only ever hold canonical residues, so an out-of-range value
// here is a caller bug that must not become a wrong answer.
func (m *Mont) ToMont(x *big.Int) ([]big.Word, error) {
	if x.Sign() < 0 || x.Cmp(m.nInt) >= 0 {
		return nil, errMontRange
	}
	dst := make([]big.Word, len(m.n))
	m.Mul(dst, wordsOf(x, len(m.n)), m.rr)
	return dst, nil
}

// FromMont converts a Montgomery-form value back to its canonical
// residue with one REDC multiplication by 1.
func (m *Mont) FromMont(a []big.Word) *big.Int {
	dst := make([]big.Word, len(m.n))
	m.Mul(dst, a, m.one)
	return bigOf(dst)
}

// Mul computes dst = a·b·R^{-1} mod n — the Montgomery product — by
// CIOS (coarsely integrated operand scanning): each pass adds one
// word-by-vector product into the accumulator and folds the lowest
// accumulator word away with a multiple of n, so the running value
// stays k+1 words and the division by R happens one word shift at a
// time. The result is the canonical representative (a final compare-
// and-subtract brings the < 2n accumulator under n), which is what
// keeps the fast path byte-identical to the big.Int reference. dst
// may alias a or b. Allocation-free: the accumulator is a fixed
// stack buffer.
func (m *Mont) Mul(dst, a, b []big.Word) {
	k := len(m.n)
	if k == 1 {
		dst[0] = big.Word(montMulWord(uint(a[0]), uint(b[0]), uint(m.n[0]), uint(m.n0inv)))
		return
	}
	var tbuf [maxMontWords + 2]big.Word
	t := tbuf[:k+2]
	for i := range t {
		t[i] = 0
	}
	for i := 0; i < k; i++ {
		// t += a[i]·b, then t += ((t[0]·n0inv) mod 2^W)·n, then t >>= W.
		// The fold constant is chosen so t[0] becomes exactly zero, and
		// the invariant t < 2^W·2n keeps every carry in one word.
		var carry big.Word
		ai := a[i]
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul(uint(ai), uint(b[j]))
			s, c := bits.Add(lo, uint(carry), 0)
			hi += c
			s, c = bits.Add(s, uint(t[j]), 0)
			hi += c
			t[j] = big.Word(s)
			carry = big.Word(hi)
		}
		s, c := bits.Add(uint(t[k]), uint(carry), 0)
		t[k] = big.Word(s)
		t[k+1] += big.Word(c)

		m0 := t[0] * m.n0inv
		carry = 0
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul(uint(m0), uint(m.n[j]))
			s, c := bits.Add(lo, uint(carry), 0)
			hi += c
			s, c = bits.Add(s, uint(t[j]), 0)
			hi += c
			t[j] = big.Word(s)
			carry = big.Word(hi)
		}
		s, c = bits.Add(uint(t[k]), uint(carry), 0)
		t[k] = big.Word(s)
		t[k+1] += big.Word(c)

		copy(t, t[1:])
		t[k+1] = 0
	}
	// t[:k+1] < 2n: subtract n once if needed for the canonical result.
	if montGte(t[:k+1], m.n) {
		var borrow uint
		for j := 0; j < k; j++ {
			s, b := bits.Sub(uint(t[j]), uint(m.n[j]), borrow)
			t[j] = big.Word(s)
			borrow = b
		}
		// t[k] absorbs the final borrow (it is 0 or 1 and the result is
		// non-negative, so this always lands on zero).
		t[k] -= big.Word(borrow)
	}
	copy(dst, t[:k])
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

// montGte reports t >= n for a k+1-word accumulator against the k-word
// modulus.
func montGte(t, n []big.Word) bool {
	k := len(n)
	if t[k] != 0 {
		return true
	}
	for j := k - 1; j >= 0; j-- {
		if t[j] != n[j] {
			return t[j] > n[j]
		}
	}
	return true // equal
}
