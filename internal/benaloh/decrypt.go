package benaloh

import (
	"errors"
	"math/big"
	"slices"

	"embellish/internal/mont"
)

// ErrNotUnit reports a ciphertext outside (0, n) or sharing a factor with
// n: no encryption or homomorphic operation under the key produces one.
var ErrNotUnit = errors.New("benaloh: ciphertext not in Z_n^*")

// errNoLog can only mean a corrupt key: every unit of Z_n^* lands in the
// subgroup the tables enumerate.
var errNoLog = errors.New("benaloh: decryption failed (invalid key)")

// errInt64 refuses a plaintext outside int64's range: under r > 2^63 a
// score can be one, and Int64 would wrap it into a wrong number.
var errInt64 = errors.New("benaloh: plaintext does not fit an int64")

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
// internal/mont): the residues of c, the exponentiations, the peels and
// the table look-ups are products and compares of words, with no big.Int
// quotient and nothing taken out of the form.
type Decryptor struct {
	sk *PrivateKey
	m  big.Int // the plaintext
	t  big.Int // one chunk's contribution to it
	// x0 and x1 are the two lanes' subgroup elements being solved; y0 and
	// y1 hold the lanes' residues of c on the way in, and y0 then powers
	// of the element being solved. All are in the form.
	x0, x1, y0, y1 []big.Word
	rw             []big.Word // c mod p2 in the form, for the unit check
}

// NewDecryptor returns a Decryptor for the key.
func (sk *PrivateKey) NewDecryptor() *Decryptor {
	k, k2 := sk.m1.Words(), sk.m2.Words()
	w := make([]big.Word, 4*k+k2)
	return &Decryptor{sk: sk, x0: w[:k:k], x1: w[k : 2*k : 2*k], y0: w[2*k : 3*k : 3*k], y1: w[3*k : 4*k : 4*k], rw: w[4*k:]}
}

// Decrypt recovers the plaintext of c with one exponentiation modulo p1
// and, when r = 3^k, one table look-up per chunk of base-3 digits; a prime
// r costs O(√r) multiplications modulo p1 on top (baby-step giant-step).
func (sk *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	d := sk.NewDecryptor()
	if err := d.enter(d.y0, c); err != nil {
		return nil, err
	}
	sk.m1.Exp(d.x0, d.y0, sk.cofactor.Bits())
	if err := d.solve(d.x0); err != nil {
		return nil, err
	}
	return &d.m, nil
}

// DecryptInt decrypts and returns the plaintext as an int64, refusing one
// that does not fit (r above 2^63 admits such plaintexts).
func (sk *PrivateKey) DecryptInt(c *big.Int) (int64, error) {
	return sk.NewDecryptor().DecryptInt(c)
}

// DecryptInt decrypts and returns the plaintext as an int64, refusing one
// that does not fit: DecryptInts with one ciphertext.
func (d *Decryptor) DecryptInt(c *big.Int) (int64, error) {
	var m [1]int64
	_, err := d.DecryptInts(m[:], []*big.Int{c})
	return m[0], err
}

// DecryptInts decrypts cs[i] into ms[i] in order (ms at least as long as
// cs) and returns how many it decrypted: len(cs), or the index of the
// first ciphertext that fails — a non-unit, or a plaintext no int64
// holds — with its error. Each consecutive pair's cofactor powers, most
// of a decryption, run as one two-lane chain (mont.Modulus.ExpPair) and
// an odd last ciphertext on the single chain; a pair whose second
// ciphertext is refused on the way in decrypts its first alone, so the
// failure reported is always the lowest one's.
//
// c^((p1-1)/r) is where the whole plaintext lives, in the order-r
// subgroup of Z_p1^*: key generation makes r | p1-1, so for c = g^m·µ^r
//
//	c^((p1-1)/r) = h^m · µ^(p1-1) = h^m  (mod p1),  h = g^((p1-1)/r),
//
// and h has exact order r because g^(φ/p) ≠ 1 for every prime p | r while
// gcd(r, p2-1) = 1. Nothing here works modulo n.
func (d *Decryptor) DecryptInts(ms []int64, cs []*big.Int) (int, error) {
	m1, e := d.sk.m1, d.sk.cofactor.Bits()
	for i := 0; i < len(cs); i += 2 {
		if err := d.enter(d.y0, cs[i]); err != nil {
			return i, err
		}
		pair := i+1 < len(cs)
		var err1 error
		if pair {
			err1 = d.enter(d.y1, cs[i+1])
		}
		if pair && err1 == nil {
			m1.ExpPair(d.x0, d.x1, d.y0, d.y1, e)
		} else {
			m1.Exp(d.x0, d.y0, e)
		}
		if err := d.solveInt(&ms[i], d.x0); err != nil {
			return i, err
		}
		if !pair {
			break
		}
		if err1 != nil {
			return i + 1, err1
		}
		if err := d.solveInt(&ms[i+1], d.x1); err != nil {
			return i + 1, err
		}
	}
	return len(cs), nil
}

// enter checks that c is a unit of Z_n^* and leaves its residue modulo p1,
// in the form, in y.
func (d *Decryptor) enter(y []big.Word, c *big.Int) error {
	sk := d.sk
	if c.Sign() <= 0 || c.Cmp(sk.N) >= 0 {
		return ErrNotUnit
	}
	// A unit is nonzero modulo both primes; the form of zero is zero.
	sk.m2.Reduce(d.rw, c.Bits())
	sk.m1.Reduce(y, c.Bits())
	if isZero(d.rw) || isZero(y) {
		return ErrNotUnit
	}
	return nil
}

// solveInt is solve with the plaintext stored as an int64.
func (d *Decryptor) solveInt(dst *int64, x []big.Word) error {
	if err := d.solve(x); err != nil {
		return err
	}
	if !d.m.IsInt64() {
		return errInt64
	}
	*dst = d.m.Int64()
	return nil
}

// solve leaves in d.m the m of x = h^m, the cofactor power of a
// ciphertext, consuming x; d.y0 is its scratch.
func (d *Decryptor) solve(x []big.Word) error {
	sk, m1 := d.sk, d.sk.m1
	if sk.k == 0 {
		return d.babyGiant(x)
	}
	// Pohlig-Hellman over chunks of base-3 digits, lowest first. With the
	// digits below position o peeled off, x = h^(3^o·m') and raising it to
	// 3^(k-o-w) leaves only the next w digits of m in the exponent of
	// W = h^(3^(k-chunk)), shifted up when the chunk is narrower than the
	// table: W^(digits·3^(chunk-w)).
	k1 := m1.Words()
	d.m.SetInt64(0)
	for o := 0; o < sk.k; o += sk.chunk {
		w := min(sk.chunk, sk.k-o)
		m1.Exp(d.y0, x, sk.pow3[sk.k-o-w].Bits())
		i, ok := sk.logTab.lookup(d.y0)
		if !ok {
			return errNoLog
		}
		digits := int64(i) / sk.pow3[sk.chunk-w].Int64()
		d.m.Add(&d.m, d.t.Mul(d.t.SetInt64(digits), sk.pow3[o]))
		if o+w < sk.k {
			// x ·= h^(-digits·3^o)
			m1.Exp(d.y0, sk.peel[int(digits)*k1:(int(digits)+1)*k1], sk.pow3[o].Bits())
			m1.Mul(x, x, d.y0)
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

// babyGiant solves h^m = x for a prime r: m = i·s + j where the i-th giant
// step x·h^(-s·i) is the baby step h^j; s² > r bounds i below s, and the
// first hit is m itself.
func (d *Decryptor) babyGiant(x []big.Word) error {
	sk := d.sk
	s := int64(sk.logTab.size)
	for i := int64(0); i < s; i++ {
		if j, ok := sk.logTab.lookup(x); ok {
			d.m.SetInt64(i*s + int64(j))
			return nil
		}
		sk.m1.Mul(x, x, sk.giant)
	}
	return errNoLog
}

// powerForms returns base^i mod p for i in [0, n) in m's Montgomery form,
// one modulus width each, in one slab.
func powerForms(m *mont.Modulus, base *big.Int, n int) []big.Word {
	k := m.Words()
	out := make([]big.Word, n*k)
	copy(out, m.R())
	if n > 1 {
		m.Reduce(out[k:2*k], base.Bits())
	}
	for i := 2; i < n; i++ {
		m.Mul(out[i*k:(i+1)*k], out[(i-1)*k:i*k], out[k:2*k])
	}
	return out
}

// formTable maps the Montgomery form of base^i mod p to i, for i in
// [0, size): an open-addressed table probed linearly from a hash of the
// key's low word, over a power-of-two slot count at most 7/8 full. A slot
// is a key of the modulus's width in one slab of words and its i + 1 in
// another (0: empty), so decryption looks up the values it holds in the
// form by comparing words, and the table costs two allocations.
type formTable struct {
	size  int
	words int        // the modulus width: every key's length
	shift uint       // 64 - log2 of the slot count
	keys  []big.Word // slot s holds keys[s·words:(s+1)·words]
	vals  []int32    // i + 1 of slot s's key, 0 for an empty slot
}

// newFormTable builds the table of the powers of base modulo m.
func newFormTable(m *mont.Modulus, base *big.Int, size int) *formTable {
	k := m.Words()
	t := &formTable{size: size, words: k, shift: 64}
	slots := 1
	for slots*7 < size*8 {
		slots <<= 1
		t.shift--
	}
	t.keys = make([]big.Word, slots*k)
	t.vals = make([]int32, slots)
	pows := powerForms(m, base, size)
	for i := range size {
		key := pows[i*k : (i+1)*k]
		s := t.slot(key)
		for t.vals[s] != 0 {
			s = (s + 1) & (slots - 1)
		}
		copy(t.keys[s*k:], key)
		t.vals[s] = int32(i + 1)
	}
	return t
}

// slot is the first slot probed for key: its low word by Fibonacci
// hashing, which spreads residues whatever their low bits share.
func (t *formTable) slot(key []big.Word) int {
	return int(uint64(key[0]) * 0x9e3779b97f4a7c15 >> t.shift)
}

// lookup returns the i of key = base^i in the form, if i < size.
func (t *formTable) lookup(key []big.Word) (int, bool) {
	k, mask := t.words, len(t.vals)-1
	for s := t.slot(key); ; s = (s + 1) & mask {
		v := t.vals[s]
		if v == 0 {
			return 0, false
		}
		if slices.Equal(t.keys[s*k:(s+1)*k], key) {
			return int(v - 1), true
		}
	}
}
