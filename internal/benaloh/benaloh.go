// Package benaloh implements the Benaloh dense probabilistic cryptosystem
// (Benaloh, "Dense Probabilistic Encryption", SAC 1994), the additively
// homomorphic encryption used by the private retrieval scheme of Pang,
// Ding and Xiao (VLDB 2010, Section 4 and Appendix A.2). The paper picks
// Benaloh over Paillier because its ciphertexts are shorter, lowering
// communication costs.
//
// Messages live in Z_r. E(m) = g^m · µ^r mod n for random µ ∈ Z_n^*;
// multiplying ciphertexts adds plaintexts, and raising a ciphertext to a
// public integer scales the plaintext — exactly the operation the search
// engine needs to accumulate E(u_i)^{p_ij} into an encrypted relevance
// score without learning u_i.
//
// Key generation uses the corrected validity condition (Fousse, Lafourcade
// and Alnuaimi, 2011): for every prime p dividing r, g^{φ(n)/p} ≠ 1 mod n.
// The original 1994 condition (only g^{φ(n)/r} ≠ 1) admits keys for which
// decryption is ambiguous when r is composite — and the scheme is normally
// run with r = 3^k, which makes the discrete log of decryption smooth.
//
// The key holder encrypts and decrypts without arithmetic modulo n. It
// encrypts modulo p1 and p2 and recombines by the Chinese remainder
// theorem (PrivateKey.Encrypt), the ciphertext byte for byte the one
// PublicKey.Encrypt computes modulo n from the same random stream. It
// decrypts modulo p1 alone: p1 is chosen with r | p1-1 and
// gcd(r, p2-1) = 1, so c^((p1-1)/r) mod p1 = h^m for an h of exact order
// r in Z_p1^*, µ gone. That is one exponentiation over the half-width
// modulus; m then falls out of ⌈k/j⌉ look-ups in a 3^j-entry table,
// j = ⌈k/2⌉ capped at 8 (Pohlig-Hellman over chunks of j base-3 digits),
// or of baby-step giant-step when r is prime. GenerateKey builds the
// tables — two of 3^j residues of p1 each, 729 for the default 3^12, in
// Montgomery form — and a key is read-only afterwards.
package benaloh

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"embellish/internal/mont"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// PublicKey holds the public parameters (n, g) and the plaintext modulus r.
type PublicKey struct {
	N *big.Int // modulus p1·p2
	G *big.Int // generator with order divisible by r
	R *big.Int // plaintext space size
}

// PrivateKey holds the factorization and the decryption tables, all built
// by GenerateKey and read-only afterwards: one key decrypts from any number
// of goroutines.
type PrivateKey struct {
	PublicKey
	P1, P2   *big.Int
	m1, m2   *mont.Modulus // p1 and p2 in Montgomery form: the key holder's arithmetic
	g1, g2   []big.Word    // g mod p1 and mod p2, in the form
	p2Inv    []big.Word    // p2^-1 mod p1, canonical: Garner's coefficient
	cofactor *big.Int      // (p1-1)/r: raising to it maps Z_p1^* onto the order-r subgroup ⟨h⟩
	logTab   *formTable    // W^i -> i (r = 3^k, W = h^(3^(k-chunk))) or h^i -> i (prime r)
	// r = 3^k: base-3 digits are solved chunk at a time.
	k, chunk int
	pow3     []*big.Int // 3^i for i = 0..k
	peel     []big.Word // h^-i mod p1 for i < 3^chunk, in the form, one p1 width each
	// Prime r: baby-step giant-step.
	giant []big.Word // h^-s mod p1 in the form, s = logTab.size = ⌈√r⌉
}

// CiphertextBytes returns the byte length of one ciphertext.
func (pk *PublicKey) CiphertextBytes() int { return (pk.N.BitLen() + 7) / 8 }

// Pow3 returns 3^k, the conventional plaintext modulus: it makes the
// discrete log of decryption smooth, solved by table look-ups.
func Pow3(k int) *big.Int {
	return new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(k)), nil)
}

// GenerateKey creates a Benaloh key pair with modulus of approximately
// bits bits and plaintext modulus r. r must be odd and its prime
// factorization must be supplied implicitly: this implementation supports
// r = 3^k (any k ≥ 1) and prime r, which covers the paper's usage.
// randSrc is typically crypto/rand.Reader; pass a deterministic reader for
// reproducible tests.
func GenerateKey(randSrc io.Reader, bits int, r *big.Int) (*PrivateKey, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if bits < 32 {
		return nil, errors.New("benaloh: modulus too small")
	}
	if r.Sign() <= 0 || r.Bit(0) == 0 {
		return nil, errors.New("benaloh: r must be odd and positive")
	}
	k, isPow3 := pow3Exponent(r)
	var primeFactors []*big.Int
	if isPow3 {
		primeFactors = []*big.Int{big.NewInt(3)}
	} else if r.ProbablyPrime(32) {
		if r.BitLen() > maxPrimeBits {
			return nil, fmt.Errorf("benaloh: a prime r above %d bits needs a baby-step table too large to build", maxPrimeBits)
		}
		primeFactors = []*big.Int{new(big.Int).Set(r)}
	} else {
		return nil, errors.New("benaloh: r must be a power of 3 or prime")
	}

	halfBits := bits / 2
	if r.BitLen()+16 >= halfBits {
		return nil, fmt.Errorf("benaloh: r (%d bits) too large for %d-bit modulus", r.BitLen(), bits)
	}

	// p1 = a·r + 1 prime, with gcd(r, a) = 1 so gcd(r, (p1-1)/r) = 1.
	p1, err := primeWithOrder(randSrc, halfBits, r)
	if err != nil {
		return nil, err
	}
	// p2 prime with gcd(r, p2-1) = 1.
	p2, err := primeCoprimeOrder(randSrc, bits-halfBits, r, primeFactors)
	if err != nil {
		return nil, err
	}

	n := new(big.Int).Mul(p1, p2)
	phi := new(big.Int).Mul(new(big.Int).Sub(p1, one), new(big.Int).Sub(p2, one))

	// Select g such that for every prime p | r, g^{φ/p} ≠ 1 (mod n).
	g := new(big.Int)
	tmp := new(big.Int)
	for tries := 0; ; tries++ {
		if tries > 4096 {
			return nil, errors.New("benaloh: could not find a valid generator")
		}
		if err := randomUnit(randSrc, n, g); err != nil {
			return nil, err
		}
		ok := true
		for _, p := range primeFactors {
			tmp.Div(phi, p)
			tmp.Exp(g, tmp, n)
			if tmp.Cmp(one) == 0 {
				ok = false
				break
			}
		}
		if ok {
			break
		}
	}

	m1, err := mont.New(p1)
	if err != nil {
		return nil, err // unreachable: p1 is an odd prime
	}
	m2, err := mont.New(p2)
	if err != nil {
		return nil, err // unreachable: p2 is an odd prime
	}
	k1, k2 := m1.Words(), m2.Words()
	w := make([]big.Word, 2*k1+k2)
	priv := &PrivateKey{
		PublicKey: PublicKey{N: n, G: g, R: new(big.Int).Set(r)},
		P1:        p1,
		P2:        p2,
		m1:        m1,
		m2:        m2,
		g1:        w[:k1:k1],
		p2Inv:     w[k1 : 2*k1 : 2*k1],
		g2:        w[2*k1:],
		cofactor:  new(big.Int).Div(new(big.Int).Sub(p1, one), r),
		k:         k,
	}
	m1.Reduce(priv.g1, g.Bits())
	m2.Reduce(priv.g2, g.Bits())
	copy(priv.p2Inv, new(big.Int).ModInverse(new(big.Int).Mod(p2, p1), p1).Bits())
	h := new(big.Int).Exp(g, priv.cofactor, p1)
	hInv := new(big.Int).ModInverse(h, p1)
	if isPow3 {
		priv.chunk = min((k+1)/2, maxChunk)
		priv.pow3 = make([]*big.Int, k+1)
		for i := range priv.pow3 {
			priv.pow3[i] = Pow3(i)
		}
		size := int(priv.pow3[priv.chunk].Int64())
		priv.logTab = newFormTable(m1, h.Exp(h, priv.pow3[k-priv.chunk], p1), size)
		priv.peel = powerForms(m1, hInv, size)
	} else {
		size := int(new(big.Int).Sqrt(r).Int64()) + 1
		priv.logTab = newFormTable(m1, h, size)
		if priv.giant, err = m1.ToMont(hInv.Exp(hInv, big.NewInt(int64(size)), p1)); err != nil {
			return nil, err // unreachable: a residue modulo p1
		}
	}
	return priv, nil
}

// pow3Exponent reports whether r = 3^k and returns k.
func pow3Exponent(r *big.Int) (int, bool) {
	three := big.NewInt(3)
	v := new(big.Int).Set(r)
	k := 0
	mod := new(big.Int)
	for v.Cmp(one) > 0 {
		q, m := new(big.Int).QuoRem(v, three, mod)
		if m.Sign() != 0 {
			return 0, false
		}
		v = q
		k++
	}
	return k, k >= 1
}

// primeWithOrder finds a prime p = a·r + 1 of the given bit length with
// gcd(a, r) = 1.
func primeWithOrder(randSrc io.Reader, bits int, r *big.Int) (*big.Int, error) {
	aBits := bits - r.BitLen() + 1
	if aBits < 8 {
		aBits = 8
	}
	a := new(big.Int)
	p := new(big.Int)
	g := new(big.Int)
	for tries := 0; tries < 100000; tries++ {
		if err := randomBits(randSrc, aBits, a); err != nil {
			return nil, err
		}
		if a.Sign() == 0 {
			continue
		}
		if g.GCD(nil, nil, a, r); g.Cmp(one) != 0 {
			continue
		}
		p.Mul(a, r)
		p.Add(p, one)
		// a·r is one bit longer than asked about as often as not; a wider
		// p1 is a wider N — a word more per ciphertext and per product.
		if p.BitLen() == bits && p.ProbablyPrime(32) {
			return new(big.Int).Set(p), nil
		}
	}
	return nil, errors.New("benaloh: failed to find p1")
}

// primeCoprimeOrder finds a prime p of the given bit length such that
// gcd(r, p-1) = 1, i.e. no prime factor of r divides p-1. Its top two
// bits are set, so n = p1·p2 is the full length or one bit short. A
// candidate is the bytes read from randSrc and nothing else, so a key
// depends only on the reader's stream (crypto/rand.Prime reads one byte
// more or not at random: randutil.MaybeReadByte).
func primeCoprimeOrder(randSrc io.Reader, bits int, r *big.Int, primeFactors []*big.Int) (*big.Int, error) {
	p := new(big.Int)
	pm1 := new(big.Int)
	mod := new(big.Int)
	for tries := 0; tries < 100000; tries++ {
		if err := randomBits(randSrc, bits, p); err != nil {
			return nil, err
		}
		p.SetBit(p, bits-2, 1)
		p.SetBit(p, 0, 1)
		pm1.Sub(p, one)
		ok := true
		for _, f := range primeFactors {
			if mod.Mod(pm1, f); mod.Sign() == 0 {
				ok = false
				break
			}
		}
		if ok && p.ProbablyPrime(20) {
			return p, nil
		}
	}
	return nil, errors.New("benaloh: failed to find p2")
}

// randomBits sets out to a uniform integer of exactly the given bit
// length (top bit set, nothing above it).
func randomBits(randSrc io.Reader, bits int, out *big.Int) error {
	buf := make([]byte, (bits+7)/8)
	if _, err := io.ReadFull(randSrc, buf); err != nil {
		return err
	}
	buf[0] &= 0xff >> (len(buf)*8 - bits)
	out.SetBytes(buf)
	out.SetBit(out, bits-1, 1)
	return nil
}

// randomUnit sets out to a uniform element of Z_n^*.
func randomUnit(randSrc io.Reader, n *big.Int, out *big.Int) error {
	g := new(big.Int)
	for {
		v, err := rand.Int(randSrc, n)
		if err != nil {
			return err
		}
		if v.Sign() == 0 {
			continue
		}
		if g.GCD(nil, nil, v, n); g.Cmp(one) != 0 {
			continue
		}
		out.Set(v)
		return nil
	}
}

// Encrypt encrypts m ∈ [0, r) under the public key: E(m) = g^m µ^r mod n.
// Both powers are square-and-multiply on the word kernel (internal/mont) —
// for a flag, m ∈ {0, 1}, g^m costs no product at all — and leave the
// form as canonical residues, so the ciphertext is the one math/big's Exp
// and Mod compute from the same µ.
func (pk *PublicKey) Encrypt(randSrc io.Reader, m *big.Int) (*big.Int, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if m.Sign() < 0 || m.Cmp(pk.R) >= 0 {
		return nil, fmt.Errorf("benaloh: message out of range [0, r)")
	}
	mod, err := mont.New(pk.N)
	if err != nil {
		return nil, fmt.Errorf("benaloh: modulus n: %w", err) // no key GenerateKey returns
	}
	mu := new(big.Int)
	if err := randomUnit(randSrc, pk.N, mu); err != nil {
		return nil, err
	}
	k := mod.Words()
	w := make([]big.Word, 3*k)
	base, gm, c := w[:k], w[k:2*k], w[2*k:]
	if err := mod.Put(base, pk.G); err != nil {
		return nil, fmt.Errorf("benaloh: generator g: %w", err)
	}
	mod.Exp(gm, base, m.Bits())
	if err := mod.Put(base, mu); err != nil {
		return nil, err // unreachable: µ is a unit of Z_n
	}
	mod.Exp(c, base, pk.R.Bits())
	mod.Mul(c, c, gm)
	mod.Mul(c, c, mod.One())
	return new(big.Int).SetBits(c), nil
}

// EncryptInt encrypts a small non-negative integer.
func (pk *PublicKey) EncryptInt(randSrc io.Reader, m int64) (*big.Int, error) {
	return pk.Encrypt(randSrc, big.NewInt(m))
}

// Encrypt is PublicKey.Encrypt for the key holder, on its primes
// (Quisquater–Couvreur): the same ciphertext, byte for byte, from the same
// random stream, at half-width products. It draws µ with the rand.Int reads
// PublicKey.Encrypt makes and tests it for a unit by its residues modulo p1
// and p2 in place of a GCD, computes g^m·µ^r modulo each prime on the word
// kernel, and recombines the two residues by Garner's formula
//
//	c = c2 + p2·((c1 - c2)·p2^-1 mod p1),
//
// which lands in [0, n) and so is the residue modulo n. A flag costs the
// same products for m = 0 and m = 1: the draw of µ and its two powers do
// not depend on m, and mont.Modulus.Exp takes no product for g^0 or g^1.
func (sk *PrivateKey) Encrypt(randSrc io.Reader, m *big.Int) (*big.Int, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if m.Sign() < 0 || m.Cmp(sk.R) >= 0 {
		return nil, fmt.Errorf("benaloh: message out of range [0, r)")
	}
	m1, m2 := sk.m1, sk.m2
	k1, k2 := m1.Words(), m2.Words()
	w := make([]big.Word, 3*k1+3*k2)
	u1, c1, t1 := w[:k1:k1], w[k1:2*k1:2*k1], w[2*k1:3*k1:3*k1]
	u2, c2, t2 := w[3*k1:3*k1+k2:3*k1+k2], w[3*k1+k2:3*k1+2*k2:3*k1+2*k2], w[3*k1+2*k2:]
	for {
		mu, err := rand.Int(randSrc, sk.N)
		if err != nil {
			return nil, err
		}
		// µ ∈ [0, n) is a unit of Z_n iff neither prime divides it, zero
		// included; the form of zero is zero.
		m1.Reduce(u1, mu.Bits())
		m2.Reduce(u2, mu.Bits())
		if !isZero(u1) && !isZero(u2) {
			break
		}
	}
	m1.Exp(c1, u1, sk.R.Bits())
	m1.Exp(t1, sk.g1, m.Bits())
	m1.Mul(c1, c1, t1)
	m2.Exp(c2, u2, sk.R.Bits())
	m2.Exp(t2, sk.g2, m.Bits())
	m2.Mul(c2, c2, t2)
	m2.Mul(c2, c2, m2.One())
	// Garner: c1 stays in the form, so (c1 - c2)·R times the canonical
	// p2^-1 is the canonical coefficient.
	m1.Reduce(u1, c2)
	subMod(t1, c1, u1, m1.N())
	m1.Mul(t1, t1, sk.p2Inv)
	c := new(big.Int).Mul(new(big.Int).SetBits(t1), sk.P2)
	return c.Add(c, new(big.Int).SetBits(c2)), nil
}

// EncryptInt encrypts a small non-negative integer on the key's primes.
func (sk *PrivateKey) EncryptInt(randSrc io.Reader, m int64) (*big.Int, error) {
	return sk.Encrypt(randSrc, big.NewInt(m))
}

// subMod sets dst = a - b mod p for a and b in [0, p), all of p's width;
// dst may alias a or b. Subtraction commutes with the Montgomery form.
func subMod(dst, a, b, p []big.Word) {
	var borrow uint
	for i := range dst {
		var d uint
		d, borrow = bits.Sub(uint(a[i]), uint(b[i]), borrow)
		dst[i] = big.Word(d)
	}
	if borrow == 0 {
		return
	}
	var carry uint
	for i := range dst {
		var s uint
		s, carry = bits.Add(uint(dst[i]), uint(p[i]), carry)
		dst[i] = big.Word(s)
	}
}

// Add returns the ciphertext of the sum: E(m1)·E(m2) mod n. The result is
// written into a fresh big.Int.
func (pk *PublicKey) Add(c1, c2 *big.Int) *big.Int {
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, pk.N)
}

// AddInto multiplies acc by c modulo n in place, avoiding allocation in
// the server's inner scoring loop.
func (pk *PublicKey) AddInto(acc, c *big.Int) {
	acc.Mul(acc, c)
	acc.Mod(acc, pk.N)
}

// ScalarMul returns E(m·s) = E(m)^s mod n for a public non-negative
// integer s — the operation applied per posting with s = p_ij.
func (pk *PublicKey) ScalarMul(c *big.Int, s int64) *big.Int {
	return new(big.Int).Exp(c, big.NewInt(s), pk.N)
}

// EncryptZero returns a fresh encryption of zero, used to initialize
// accumulators so that identical scores still have distinct ciphertexts.
func (pk *PublicKey) EncryptZero(randSrc io.Reader) (*big.Int, error) {
	return pk.Encrypt(randSrc, new(big.Int))
}
