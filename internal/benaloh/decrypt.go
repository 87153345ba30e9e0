package benaloh

import (
	"errors"
	"math/big"
	"math/bits"
)

// ErrNotUnit reports a ciphertext outside (0, n) or sharing a factor with
// n: no encryption or homomorphic operation under the key produces one.
var ErrNotUnit = errors.New("benaloh: ciphertext not in Z_n^*")

// errNoLog can only mean a corrupt key: every unit of Z_n^* lands in the
// subgroup the tables enumerate.
var errNoLog = errors.New("benaloh: decryption failed (invalid key)")

// maxChunk caps the base-3 digits one table look-up resolves: 3^8 entries
// keep the two tables of a 512-bit key under 1 MB together.
const maxChunk = 8

// maxPrimeBits caps a prime r: the baby-step table has ⌈√r⌉ entries.
const maxPrimeBits = 40

// Decryptor decrypts under one key with temporaries it reuses, so decoding
// a candidate set allocates nothing of its own per ciphertext. A Decryptor
// is not safe for concurrent use; the key it came from is.
//
// Everything runs on machine words in Montgomery form (sk.m1, sk.m2,
// internal/mont): the residues of c, the exponentiations and the peels
// are products of the one CIOS kernel, with no big.Int quotient.
type Decryptor struct {
	sk *PrivateKey
	m  big.Int // the plaintext
	t  big.Int // one chunk's contribution to it
	// xw is the subgroup element being solved and yw a power of it, both
	// in the form; cw is a canonical value on its way out of it.
	xw, yw, cw []big.Word
	rw         []big.Word // c mod p2 in the form, for the unit check
	buf        []byte     // cw as a logTab key
}

// NewDecryptor returns a Decryptor for the key.
func (sk *PrivateKey) NewDecryptor() *Decryptor {
	k, k2 := sk.m1.Words(), sk.m2.Words()
	w := make([]big.Word, 3*k+k2)
	return &Decryptor{sk: sk, xw: w[:k], yw: w[k : 2*k], cw: w[2*k : 3*k], rw: w[3*k:], buf: make([]byte, (sk.P1.BitLen()+7)/8)}
}

// Decrypt recovers the plaintext of c with one exponentiation modulo p1
// and, when r = 3^k, one table look-up per chunk of base-3 digits; a prime
// r costs O(√r) multiplications modulo p1 on top (baby-step giant-step).
func (sk *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	d := sk.NewDecryptor()
	if err := d.decrypt(c); err != nil {
		return nil, err
	}
	return &d.m, nil
}

// DecryptInt decrypts and returns the plaintext as an int64.
func (sk *PrivateKey) DecryptInt(c *big.Int) (int64, error) {
	return sk.NewDecryptor().DecryptInt(c)
}

// DecryptInt decrypts and returns the plaintext as an int64.
func (d *Decryptor) DecryptInt(c *big.Int) (int64, error) {
	if err := d.decrypt(c); err != nil {
		return 0, err
	}
	return d.m.Int64(), nil
}

// decrypt leaves the plaintext of c in d.m. The whole plaintext lives in
// the order-r subgroup of Z_p1^*: key generation makes r | p1-1, so for
// c = g^m·µ^r
//
//	c^((p1-1)/r) = h^m · µ^(p1-1) = h^m  (mod p1),  h = g^((p1-1)/r),
//
// and h has exact order r because g^(φ/p) ≠ 1 for every prime p | r while
// gcd(r, p2-1) = 1. Nothing below works modulo n.
func (d *Decryptor) decrypt(c *big.Int) error {
	sk, m1 := d.sk, d.sk.m1
	if c.Sign() <= 0 || c.Cmp(sk.N) >= 0 {
		return ErrNotUnit
	}
	// A unit is nonzero modulo both primes; the form of zero is zero.
	sk.m2.Reduce(d.rw, c.Bits())
	m1.Reduce(d.yw, c.Bits())
	if isZero(d.rw) || isZero(d.yw) {
		return ErrNotUnit
	}
	m1.Exp(d.xw, d.yw, sk.cofactor.Bits())
	if sk.k == 0 {
		return d.babyGiant()
	}
	// Pohlig-Hellman over chunks of base-3 digits, lowest first. With the
	// digits below position o peeled off, x = h^(3^o·m') and raising it to
	// 3^(k-o-w) leaves only the next w digits of m in the exponent of
	// W = h^(3^(k-chunk)), shifted up when the chunk is narrower than the
	// table: W^(digits·3^(chunk-w)).
	d.m.SetInt64(0)
	for o := 0; o < sk.k; o += sk.chunk {
		w := min(sk.chunk, sk.k-o)
		m1.Exp(d.yw, d.xw, sk.pow3[sk.k-o-w].Bits())
		i, ok := sk.logTab[string(d.key(d.yw))]
		if !ok {
			return errNoLog
		}
		digits := int64(i) / sk.pow3[sk.chunk-w].Int64()
		d.m.Add(&d.m, d.t.Mul(d.t.SetInt64(digits), sk.pow3[o]))
		if o+w < sk.k {
			// x ·= h^(-digits·3^o)
			if err := m1.Put(d.cw, sk.peel[digits]); err != nil {
				return errNoLog
			}
			m1.Exp(d.yw, d.cw, sk.pow3[o].Bits())
			m1.Mul(d.xw, d.xw, d.yw)
		}
	}
	return nil
}

// isZero reports whether every word of v is zero.
func isZero(v []big.Word) bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

// key returns the logTab key of a value in the form: its canonical
// residue as big-endian bytes of p1's width, in d.buf.
func (d *Decryptor) key(v []big.Word) []byte {
	d.sk.m1.Mul(d.cw, v, d.sk.m1.One())
	const wordBytes = bits.UintSize / 8
	for i := range d.buf {
		at := len(d.buf) - 1 - i // byte i of the value, least significant first
		d.buf[at] = byte(d.cw[i/wordBytes] >> (i % wordBytes * 8))
	}
	return d.buf
}

// babyGiant solves h^m = x for a prime r: m = i·s + j where the i-th giant
// step x·h^(-s·i) is the baby step h^j; s² > r bounds i below s, and the
// first hit is m itself.
func (d *Decryptor) babyGiant() error {
	sk, m1 := d.sk, d.sk.m1
	if err := m1.Put(d.yw, sk.giant); err != nil {
		return errNoLog
	}
	s := int64(len(sk.logTab))
	for i := int64(0); i < s; i++ {
		if j, ok := sk.logTab[string(d.key(d.xw))]; ok {
			d.m.SetInt64(i*s + int64(j))
			return nil
		}
		m1.Mul(d.xw, d.xw, d.yw)
	}
	return errNoLog
}

// powers returns base^i mod p for i in [0, n).
func powers(base *big.Int, n int, p *big.Int) []*big.Int {
	out := make([]*big.Int, n)
	out[0] = big.NewInt(1)
	for i := 1; i < n; i++ {
		out[i] = new(big.Int).Mul(out[i-1], base)
		out[i].Mod(out[i], p)
	}
	return out
}

// logTable maps base^i mod p, as bytes of p's width, to i for i in [0, n).
// The keys are slices of one string, so the table costs one allocation of
// n·width bytes beyond the map.
func logTable(base *big.Int, n int, p *big.Int) map[string]int32 {
	width := (p.BitLen() + 7) / 8
	raw := make([]byte, n*width)
	for i, v := range powers(base, n, p) {
		v.FillBytes(raw[i*width : (i+1)*width])
	}
	keys := string(raw)
	tab := make(map[string]int32, n)
	for i := 0; i < n; i++ {
		tab[keys[i*width:(i+1)*width]] = int32(i)
	}
	return tab
}
