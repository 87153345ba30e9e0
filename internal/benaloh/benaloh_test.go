package benaloh

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"embellish/internal/detrand"
)

// detRand is a deterministic "randomness" stream for reproducible keys in
// tests. NOT cryptographically secure — tests only.
type detRand struct {
	state [32]byte
	buf   bytes.Buffer
}

func newDetRand(seed string) *detRand {
	d := &detRand{state: sha256.Sum256([]byte(seed))}
	return d
}

func (d *detRand) Read(p []byte) (int, error) {
	for d.buf.Len() < len(p) {
		d.state = sha256.Sum256(d.state[:])
		d.buf.Write(d.state[:])
	}
	return d.buf.Read(p)
}

var testKey *PrivateKey

func key(t *testing.T) *PrivateKey {
	t.Helper()
	if testKey == nil {
		k, err := GenerateKey(newDetRand("benaloh-test"), 256, Pow3(9))
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testKey = k
	}
	return testKey
}

func TestKeyStructure(t *testing.T) {
	k := key(t)
	// r | p1-1.
	mod := new(big.Int).Mod(new(big.Int).Sub(k.P1, big.NewInt(1)), k.R)
	if mod.Sign() != 0 {
		t.Fatal("r does not divide p1-1")
	}
	// gcd(r, (p1-1)/r) = 1.
	q := new(big.Int).Div(new(big.Int).Sub(k.P1, big.NewInt(1)), k.R)
	if new(big.Int).GCD(nil, nil, q, k.R).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("gcd(r, (p1-1)/r) != 1")
	}
	// gcd(r, p2-1) = 1.
	if new(big.Int).GCD(nil, nil, new(big.Int).Sub(k.P2, big.NewInt(1)), k.R).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("gcd(r, p2-1) != 1")
	}
	// n = p1·p2.
	if new(big.Int).Mul(k.P1, k.P2).Cmp(k.N) != 0 {
		t.Fatal("n != p1*p2")
	}
}

// TestKeyWidth: a key is as wide as asked — p1 exactly half the bits, n
// the full length or one bit short (p1's second bit is free) — never a
// word wider, which every ciphertext and every product would pay for.
func TestKeyWidth(t *testing.T) {
	for _, k := range []int{10, 12, 14, 16} {
		for _, bits := range []int{128, 256, 512} {
			for trial := 0; trial < 3; trial++ {
				key, err := GenerateKey(newDetRand(fmt.Sprint("width-", k, bits, trial)), bits, Pow3(k))
				if err != nil {
					t.Fatalf("GenerateKey(%d bits, 3^%d): %v", bits, k, err)
				}
				if got := key.P1.BitLen(); got != bits/2 {
					t.Errorf("%d-bit key, r = 3^%d: p1 has %d bits, want %d", bits, k, got, bits/2)
				}
				if got := key.N.BitLen(); got != bits && got != bits-1 {
					t.Errorf("%d-bit key, r = 3^%d: n has %d bits, want %d or %d", bits, k, got, bits-1, bits)
				}
			}
		}
	}
}

// TestGenerateKeyDeterministic: a key depends only on the bytes its
// reader returns — two internal/detrand readers with one seed give the
// same key, primes and generator, at every width.
func TestGenerateKeyDeterministic(t *testing.T) {
	for _, bits := range []int{128, 256, 512} {
		for trial := range 8 {
			seed := fmt.Sprint("deterministic-", bits, "-", trial)
			a, err := GenerateKey(detrand.New(seed), bits, Pow3(9))
			if err != nil {
				t.Fatal(err)
			}
			b, err := GenerateKey(detrand.New(seed), bits, Pow3(9))
			if err != nil {
				t.Fatal(err)
			}
			if a.P1.Cmp(b.P1) != 0 || a.P2.Cmp(b.P2) != 0 || a.N.Cmp(b.N) != 0 || a.G.Cmp(b.G) != 0 {
				t.Fatalf("%d-bit keys from seed %q differ: n %x and %x", bits, seed, a.N, b.N)
			}
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k := key(t)
	rnd := newDetRand("roundtrip")
	for _, m := range []int64{0, 1, 2, 3, 100, 6560, 19682} {
		c, err := k.EncryptInt(rnd, m)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := k.DecryptInt(c)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: got %d, want %d", got, m)
		}
	}
}

// TestEncryptMatchesBigInt holds the word-kernel Encrypt to the definition
// in math/big — g^m·µ^r by Exp, Mul and Mod — ciphertext for ciphertext
// from the same random stream, across key widths and both shapes of r.
func TestEncryptMatchesBigInt(t *testing.T) {
	keys := map[string]*PrivateKey{}
	for _, bits := range []int{64, 128, 256, 257, 512} {
		sk, err := GenerateKey(newDetRand(fmt.Sprintf("enc-%d", bits)), bits, Pow3(3))
		if err != nil {
			t.Fatalf("GenerateKey(%d bits): %v", bits, err)
		}
		keys[fmt.Sprintf("%d bits, r = 27", bits)] = sk
	}
	keys["256 bits, r = 3^12"] = key(t)
	prime, err := GenerateKey(newDetRand("enc-prime"), 192, big.NewInt(10007))
	if err != nil {
		t.Fatal(err)
	}
	keys["192 bits, r = 10007"] = prime
	for name, sk := range keys {
		msgs := []*big.Int{new(big.Int), one, two, new(big.Int).Sub(sk.R, one)}
		rnd := newDetRand("enc-msgs-" + name)
		for i := 0; i < 8; i++ {
			m, err := rand.Int(rnd, sk.R)
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
		got, want := newDetRand("enc-stream-"+name), newDetRand("enc-stream-"+name)
		for _, m := range msgs {
			c, err := sk.Encrypt(got, m)
			if err != nil {
				t.Fatalf("%s: Encrypt(%v): %v", name, m, err)
			}
			mu := new(big.Int)
			if err := randomUnit(want, sk.N, mu); err != nil {
				t.Fatal(err)
			}
			ref := new(big.Int).Exp(sk.G, m, sk.N)
			ref.Mul(ref, mu.Exp(mu, sk.R, sk.N)).Mod(ref, sk.N)
			if c.Cmp(ref) != 0 {
				t.Fatalf("%s: Encrypt(%v) = %x, math/big says %x", name, m, c, ref)
			}
		}
	}
	sk := key(t)
	even := &PublicKey{N: new(big.Int).Lsh(sk.N, 1), G: sk.G, R: sk.R}
	if _, err := even.EncryptInt(newDetRand("even"), 1); err == nil {
		t.Error("Encrypt under an even modulus succeeded")
	}
	wide := &PublicKey{N: sk.N, G: new(big.Int).Add(sk.G, sk.N), R: sk.R}
	if _, err := wide.EncryptInt(newDetRand("wide"), 1); err == nil {
		t.Error("Encrypt under a generator outside Z_n succeeded")
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	k := key(t)
	if _, err := k.Encrypt(newDetRand("x"), big.NewInt(-1)); err == nil {
		t.Error("negative message accepted")
	}
	if _, err := k.Encrypt(newDetRand("x"), new(big.Int).Set(k.R)); err == nil {
		t.Error("message == r accepted")
	}
}

func TestProbabilisticEncryption(t *testing.T) {
	// The random µ must make repeated encryptions of the same message
	// yield different ciphertexts (Appendix A.2).
	k := key(t)
	rnd := newDetRand("prob")
	c1, _ := k.EncryptInt(rnd, 5)
	c2, _ := k.EncryptInt(rnd, 5)
	if c1.Cmp(c2) == 0 {
		t.Fatal("two encryptions of the same message are identical")
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	k := key(t)
	rnd := newDetRand("hom")
	c1, _ := k.EncryptInt(rnd, 123)
	c2, _ := k.EncryptInt(rnd, 456)
	sum := k.PublicKey.Add(c1, c2)
	got, err := k.DecryptInt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got != 579 {
		t.Fatalf("E(123)+E(456) decrypted to %d", got)
	}
}

func TestScalarMul(t *testing.T) {
	k := key(t)
	rnd := newDetRand("scalar")
	// E(u)^p: the server's per-posting operation (Algorithm 4 line 5).
	for _, tc := range []struct{ u, p, want int64 }{
		{1, 37, 37}, {0, 37, 0}, {1, 255, 255}, {0, 255, 0}, {1, 0, 0},
	} {
		c, _ := k.EncryptInt(rnd, tc.u)
		got, err := k.DecryptInt(k.ScalarMul(c, tc.p))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("E(%d)^%d = %d, want %d", tc.u, tc.p, got, tc.want)
		}
	}
}

func TestHomomorphismWrapsModR(t *testing.T) {
	k := key(t)
	rnd := newDetRand("wrap")
	// (r-1) + 2 ≡ 1 (mod r).
	rm1 := new(big.Int).Sub(k.R, big.NewInt(1))
	c1, _ := k.Encrypt(rnd, rm1)
	c2, _ := k.EncryptInt(rnd, 2)
	got, err := k.DecryptInt(k.PublicKey.Add(c1, c2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("wrap-around sum = %d, want 1", got)
	}
}

func TestAddInto(t *testing.T) {
	k := key(t)
	rnd := newDetRand("addinto")
	acc, _ := k.EncryptInt(rnd, 10)
	c, _ := k.EncryptInt(rnd, 7)
	k.PublicKey.AddInto(acc, c)
	got, _ := k.DecryptInt(acc)
	if got != 17 {
		t.Fatalf("AddInto = %d, want 17", got)
	}
}

func TestEncryptZeroFresh(t *testing.T) {
	k := key(t)
	rnd := newDetRand("zero")
	z1, _ := k.EncryptZero(rnd)
	z2, _ := k.EncryptZero(rnd)
	if z1.Cmp(z2) == 0 {
		t.Fatal("EncryptZero returned identical ciphertexts")
	}
	if m, _ := k.DecryptInt(z1); m != 0 {
		t.Fatalf("EncryptZero decrypts to %d", m)
	}
}

func TestBSGSDecryptionPrimeR(t *testing.T) {
	// Prime r exercises the baby-step giant-step fallback.
	k, err := GenerateKey(newDetRand("bsgs"), 192, big.NewInt(10007))
	if err != nil {
		t.Fatal(err)
	}
	rnd := newDetRand("bsgs-msgs")
	for _, m := range []int64{0, 1, 9999, 10006, 5003} {
		c, err := k.EncryptInt(rnd, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.DecryptInt(c)
		if err != nil {
			t.Fatalf("BSGS decrypt(%d): %v", m, err)
		}
		if got != m {
			t.Fatalf("BSGS round trip: got %d, want %d", got, m)
		}
	}
}

func TestGenerateKeyRejectsBadR(t *testing.T) {
	cases := []*big.Int{
		big.NewInt(4),  // even
		big.NewInt(15), // composite, not a power of 3
		big.NewInt(-3),
	}
	for _, r := range cases {
		if _, err := GenerateKey(newDetRand("bad"), 128, r); err == nil {
			t.Errorf("r=%v accepted", r)
		}
	}
}

func TestPow3(t *testing.T) {
	if Pow3(9).Int64() != 19683 {
		t.Fatalf("Pow3(9) = %v", Pow3(9))
	}
	if k, ok := pow3Exponent(Pow3(12)); !ok || k != 12 {
		t.Fatalf("pow3Exponent(3^12) = %d,%v", k, ok)
	}
	if _, ok := pow3Exponent(big.NewInt(10)); ok {
		t.Fatal("pow3Exponent(10) = ok")
	}
}

func TestCiphertextBytes(t *testing.T) {
	k := key(t)
	want := (k.N.BitLen() + 7) / 8
	if got := k.PublicKey.CiphertextBytes(); got != want {
		t.Fatalf("CiphertextBytes = %d, want %d", got, want)
	}
}

// Property: homomorphic addition matches plaintext addition mod r for
// arbitrary message pairs.
func TestHomomorphismProperty(t *testing.T) {
	k := key(t)
	rnd := newDetRand("quick")
	r := k.R.Int64()
	f := func(a, b uint16) bool {
		m1 := int64(a) % r
		m2 := int64(b) % r
		c1, err1 := k.EncryptInt(rnd, m1)
		c2, err2 := k.EncryptInt(rnd, m2)
		if err1 != nil || err2 != nil {
			return false
		}
		got, err := k.DecryptInt(k.PublicKey.Add(c1, c2))
		return err == nil && got == (m1+m2)%r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: E(u)^p followed by accumulation implements Σ u_i·p_i, the
// exact server computation of Algorithm 4.
func TestScoreAccumulationProperty(t *testing.T) {
	k := key(t)
	rnd := newDetRand("score")
	f := func(flags []bool, impacts []uint8) bool {
		n := len(flags)
		if len(impacts) < n {
			n = len(impacts)
		}
		if n == 0 {
			return true
		}
		if n > 12 {
			n = 12
		}
		var want int64
		acc, err := k.EncryptZero(rnd)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			u := int64(0)
			if flags[i] {
				u = 1
			}
			p := int64(impacts[i])
			want += u * p
			c, err := k.EncryptInt(rnd, u)
			if err != nil {
				return false
			}
			k.PublicKey.AddInto(acc, k.ScalarMul(c, p))
		}
		got, err := k.DecryptInt(acc)
		return err == nil && got == want%k.R.Int64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// oracleDecrypt is Appendix A.2 as the paper states it, entirely modulo n
// and from the factorization alone — the algorithm Decrypt used before it
// moved into the order-r subgroup of Z_p1^*, kept as the reference. For
// r = 3^k it recovers m digit by digit: with m_i = m mod 3^i known,
//
//	(c · g^{-m_i})^{φ/3^{i+1}} = (g^{φ/3})^{d_i}  (mod n)
//
// reveals digit d_i, because µ^{r·φ/3^{i+1}} = (µ^φ)^{3^{k-i-1}} = 1. For
// a prime r it walks the powers of g^{φ/r} until one equals c^{φ/r}.
func oracleDecrypt(sk *PrivateKey, c *big.Int) (*big.Int, bool) {
	n := sk.N
	if new(big.Int).GCD(nil, nil, c, n).Cmp(one) != 0 {
		return nil, false
	}
	phi := new(big.Int).Mul(new(big.Int).Sub(sk.P1, one), new(big.Int).Sub(sk.P2, one))
	three := big.NewInt(3)
	k, isPow3 := pow3Exponent(sk.R)
	if !isPow3 {
		e := new(big.Int).Div(phi, sk.R)
		target := new(big.Int).Exp(c, e, n)
		h := new(big.Int).Exp(sk.G, e, n)
		v := big.NewInt(1)
		for m := int64(0); m < sk.R.Int64(); m++ {
			if v.Cmp(target) == 0 {
				return big.NewInt(m), true
			}
			v.Mod(v.Mul(v, h), n)
		}
		return nil, false
	}
	w := new(big.Int).Exp(sk.G, new(big.Int).Div(phi, three), n)
	wPow := []*big.Int{big.NewInt(1), w, new(big.Int).Exp(w, two, n)}
	m := new(big.Int)
	adj := new(big.Int).Set(c)                  // c · g^{-m_i} mod n
	gInvPow := new(big.Int).ModInverse(sk.G, n) // g^{-3^i} mod n
	p3 := big.NewInt(1)                         // 3^i
	for i := 0; i < k; i++ {
		t := new(big.Int).Exp(adj, new(big.Int).Div(phi, new(big.Int).Mul(p3, three)), n)
		d := int64(-1)
		for j, wp := range wPow {
			if t.Cmp(wp) == 0 {
				d = int64(j)
			}
		}
		if d < 0 {
			return nil, false
		}
		m.Add(m, new(big.Int).Mul(big.NewInt(d), p3))
		adj.Mod(adj.Mul(adj, new(big.Int).Exp(gInvPow, big.NewInt(d), n)), n)
		gInvPow.Exp(gInvPow, three, n)
		p3.Mul(p3, three)
	}
	return m, true
}

// checkDecrypt asserts Decrypt(c) == oracle(c) == want (want nil: only the
// first equality, for units no Encrypt call produced).
func checkDecrypt(t *testing.T, sk *PrivateKey, c, want *big.Int, what string) {
	t.Helper()
	got, err := sk.Decrypt(c)
	if err != nil {
		t.Fatalf("%s: Decrypt: %v", what, err)
	}
	ref, ok := oracleDecrypt(sk, c)
	if !ok {
		t.Fatalf("%s: the oracle could not decrypt", what)
	}
	if got.Cmp(ref) != 0 || (want != nil && got.Cmp(want) != 0) {
		t.Fatalf("%s: Decrypt = %v, oracle = %v, plaintext = %v", what, got, ref, want)
	}
}

// exerciseKey runs one key through the plaintexts and homomorphic
// operations the search engine feeds decryption.
func exerciseKey(t *testing.T, sk *PrivateKey, rnd *detRand) {
	t.Helper()
	r := sk.R
	rm1 := new(big.Int).Sub(r, one)
	enc := func(m *big.Int) *big.Int {
		c, err := sk.Encrypt(rnd, m)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", m, err)
		}
		return c
	}
	msgs := []*big.Int{new(big.Int), one, rm1}
	for i := 0; i < 4; i++ {
		v, err := rand.Int(rnd, r)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, v)
	}
	for _, m := range msgs {
		checkDecrypt(t, sk, enc(m), m, fmt.Sprintf("E(%v)", m))
		// A sum that wraps mod r.
		sum := new(big.Int).Add(m, rm1)
		checkDecrypt(t, sk, sk.Add(enc(m), enc(rm1)), sum.Mod(sum, r), fmt.Sprintf("E(%v)+E(r-1)", m))
		// The server's per-posting power.
		for _, s := range []int64{0, 1, 37, 255} {
			prod := new(big.Int).Mul(m, big.NewInt(s))
			checkDecrypt(t, sk, sk.ScalarMul(enc(m), s), prod.Mod(prod, r), fmt.Sprintf("E(%v)^%d", m, s))
		}
	}
	// Every unit of Z_n^* decrypts, to what the oracle says, whether or not
	// an Encrypt call produced it.
	u := new(big.Int)
	for i := 0; i < 4; i++ {
		if err := randomUnit(rnd, sk.N, u); err != nil {
			t.Fatal(err)
		}
		checkDecrypt(t, sk, u, nil, "random unit")
	}
}

func TestDecryptMatchesOracle(t *testing.T) {
	for _, bits := range []int{64, 128, 256, 512} {
		for k := 1; k <= 13; k++ {
			r := Pow3(k)
			if r.BitLen()+16 >= bits/2 {
				continue // GenerateKey refuses: r too large for the modulus
			}
			seed := fmt.Sprintf("oracle-%d-%d", bits, k)
			sk, err := GenerateKey(newDetRand(seed), bits, r)
			if err != nil {
				t.Fatalf("GenerateKey(%d bits, 3^%d): %v", bits, k, err)
			}
			if want := min((k+1)/2, maxChunk); sk.chunk != want || sk.logTab.size != int(Pow3(want).Int64()) || len(sk.peel) != sk.logTab.size*sk.m1.Words() {
				t.Fatalf("3^%d: chunk %d with %d table entries and %d peel words, want chunk %d", k, sk.chunk, sk.logTab.size, len(sk.peel), want)
			}
			checkFormTable(t, sk)
			exerciseKey(t, sk, newDetRand(seed+"-msgs"))
		}
	}
}

func TestDecryptManyChunks(t *testing.T) {
	// k > 2·maxChunk: three chunks, the last narrower than the table, and
	// a peel step at a non-zero offset.
	sk, err := GenerateKey(newDetRand("chunks"), 256, Pow3(2*maxChunk+3))
	if err != nil {
		t.Fatal(err)
	}
	exerciseKey(t, sk, newDetRand("chunks-msgs"))
}

func TestDecryptPrimeRMatchesOracle(t *testing.T) {
	for _, r := range []int64{5, 7, 257, 10007} {
		seed := fmt.Sprintf("prime-%d", r)
		sk, err := GenerateKey(newDetRand(seed), 192, big.NewInt(r))
		if err != nil {
			t.Fatalf("GenerateKey(r=%d): %v", r, err)
		}
		exerciseKey(t, sk, newDetRand(seed+"-msgs"))
	}
	if _, err := GenerateKey(newDetRand("huge"), 512, new(big.Int).SetUint64(1<<61-1)); err == nil {
		t.Error("a 61-bit prime r accepted: its baby-step table has 2^31 entries")
	}
}

func TestDecryptRejectsNonUnits(t *testing.T) {
	pow3Key := key(t)
	primeKey, err := GenerateKey(newDetRand("bsgs"), 192, big.NewInt(10007))
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []*PrivateKey{pow3Key, primeKey} {
		c, _ := sk.EncryptInt(newDetRand("nonunit"), 5)
		for what, bad := range map[string]*big.Int{
			"zero":        new(big.Int),
			"negative":    new(big.Int).Neg(c),
			"n":           sk.N,
			"c+n":         new(big.Int).Add(c, sk.N),
			"p1":          sk.P1,
			"multiple p1": new(big.Int).Mul(sk.P1, big.NewInt(6)),
			"p2":          sk.P2,
			"multiple p2": new(big.Int).Mul(sk.P2, big.NewInt(6)),
		} {
			if _, err := sk.Decrypt(bad); !errors.Is(err, ErrNotUnit) {
				t.Errorf("r=%v: Decrypt(%s) = %v, want ErrNotUnit", sk.R, what, err)
			}
			if _, err := sk.DecryptInt(bad); !errors.Is(err, ErrNotUnit) {
				t.Errorf("r=%v: DecryptInt(%s) = %v, want ErrNotUnit", sk.R, what, err)
			}
		}
	}
}

// TestUnitCheckMatchesQuoRem holds the division-free residues of decrypt to
// the long-division definition of a unit — 0 < c < n with c mod p1 and
// c mod p2 both nonzero — over key widths whose primes fill their words,
// leave them nearly empty and differ in word count (257 bits: p2 is a word
// wider than p1), on random values, multiples of either prime, and the
// edges; every unit must then decrypt to what the oracle says.
func TestUnitCheckMatchesQuoRem(t *testing.T) {
	for _, bits := range []int{64, 128, 130, 192, 256, 257, 384, 512} {
		sk, err := GenerateKey(newDetRand(fmt.Sprintf("unit-%d", bits)), bits, Pow3(3))
		if err != nil {
			t.Fatalf("GenerateKey(%d bits): %v", bits, err)
		}
		rnd := newDetRand(fmt.Sprintf("unit-%d-values", bits))
		cs := []*big.Int{new(big.Int), one, two, sk.P1, sk.P2, sk.N,
			new(big.Int).Sub(sk.N, one), new(big.Int).Add(sk.N, one),
			new(big.Int).Sub(sk.N, sk.P1), new(big.Int).Sub(sk.N, sk.P2),
			new(big.Int).Sub(sk.P1, one), new(big.Int).Add(sk.P2, one)}
		for i := 0; i < 24; i++ {
			v, err := rand.Int(rnd, sk.N)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, v)
			f, err := rand.Int(rnd, sk.P1) // below both primes' product with either
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, new(big.Int).Mul(f, sk.P1), new(big.Int).Mod(new(big.Int).Mul(f, sk.P2), sk.N))
		}
		d := sk.NewDecryptor()
		var q, x big.Int
		for _, c := range cs {
			unit := c.Sign() > 0 && c.Cmp(sk.N) < 0
			for _, p := range []*big.Int{sk.P1, sk.P2} {
				q.QuoRem(c, p, &x)
				unit = unit && x.Sign() != 0
			}
			_, err := d.DecryptInt(c)
			if errors.Is(err, ErrNotUnit) == unit || (unit && err != nil) {
				t.Fatalf("%d-bit key: DecryptInt(%x) = %v, but long division says unit = %v", bits, c, err, unit)
			}
			if unit {
				checkDecrypt(t, sk, c, nil, fmt.Sprintf("%d-bit key, unit %x", bits, c))
			}
		}
	}
}

// TestDecryptAcrossPrimeWidths decrypts under keys whose p1 is one, two,
// three and four 64-bit words wide — internal/mont runs a register form at
// exactly two words and its generic kernel at every other width, so the
// table stands on both sides of that dispatch (and at 257 bits p2, the
// unit check's modulus, is a word wider than p1) — against the Appendix
// A.2 oracle, refusals included.
func TestDecryptAcrossPrimeWidths(t *testing.T) {
	for _, tc := range []struct{ bits, p1Bits, p2Bits int }{
		{128, 64, 64}, {192, 96, 96}, {256, 128, 128}, {257, 128, 129}, {320, 160, 160}, {512, 256, 256},
	} {
		seed := fmt.Sprintf("widths-%d", tc.bits)
		sk, err := GenerateKey(newDetRand(seed), tc.bits, Pow3(10))
		if err != nil {
			t.Fatalf("GenerateKey(%d bits): %v", tc.bits, err)
		}
		if sk.P1.BitLen() != tc.p1Bits || sk.P2.BitLen() != tc.p2Bits {
			t.Fatalf("%d-bit key: primes of %d and %d bits, want %d and %d", tc.bits, sk.P1.BitLen(), sk.P2.BitLen(), tc.p1Bits, tc.p2Bits)
		}
		if got, want := sk.m1.Words(), (tc.p1Bits+bits.UintSize-1)/bits.UintSize; got != want {
			t.Fatalf("%d-bit key: p1 fills %d words, want %d", tc.bits, got, want)
		}
		exerciseKey(t, sk, newDetRand(seed+"-msgs"))
		d := sk.NewDecryptor()
		for what, bad := range map[string]*big.Int{
			"zero":        new(big.Int),
			"n":           sk.N,
			"p1":          sk.P1,
			"multiple p1": new(big.Int).Mul(sk.P1, big.NewInt(6)),
			"p1 squared":  new(big.Int).Mod(new(big.Int).Mul(sk.P1, sk.P1), sk.N),
			"p2":          sk.P2,
			"multiple p2": new(big.Int).Mul(sk.P2, big.NewInt(6)),
			"n - p2":      new(big.Int).Sub(sk.N, sk.P2),
		} {
			if _, err := d.DecryptInt(bad); !errors.Is(err, ErrNotUnit) {
				t.Errorf("%d-bit key: DecryptInt(%s) = %v, want ErrNotUnit", tc.bits, what, err)
			}
		}
		// The Decryptor still decrypts after the refusals.
		c, err := sk.EncryptInt(newDetRand(seed+"-after"), 4242)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := d.DecryptInt(c); err != nil || m != 4242 {
			t.Fatalf("%d-bit key: DecryptInt after refusals = %d, %v", tc.bits, m, err)
		}
		checkBatchLanes(t, sk, d, newDetRand(seed+"-batch"))
	}
}

// checkBatchLanes holds DecryptInts to one DecryptInt per ciphertext over
// batches of one to five — pairs and an odd tail — and, with a non-unit at
// every position in turn, to the lowest failure: its index and ErrNotUnit,
// every score before it written.
func checkBatchLanes(t *testing.T, sk *PrivateKey, d *Decryptor, rnd io.Reader) {
	t.Helper()
	msgs := []int64{0, 1, 4242, 59048, 31337}
	cts := make([]*big.Int, len(msgs))
	for i, m := range msgs {
		var err error
		if cts[i], err = sk.EncryptInt(rnd, m); err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= len(cts); n++ {
		ms := make([]int64, n)
		if got, err := d.DecryptInts(ms, cts[:n]); err != nil || got != n || !slices.Equal(ms, msgs[:n]) {
			t.Fatalf("%d-bit key, %d ciphertexts: DecryptInts = %d, %v, scores %v", sk.N.BitLen(), n, got, err, ms)
		}
		for bad := 0; bad < n; bad++ {
			in := slices.Clone(cts[:n])
			in[bad] = sk.P1
			ms := make([]int64, n)
			if got, err := d.DecryptInts(ms, in); !errors.Is(err, ErrNotUnit) || got != bad || !slices.Equal(ms[:bad], msgs[:bad]) {
				t.Fatalf("%d-bit key, %d ciphertexts, non-unit at %d: DecryptInts = %d, %v, scores %v", sk.N.BitLen(), n, bad, got, err, ms)
			}
		}
	}
}

// TestDecryptIntRefusesWidePlaintext decrypts under r = 3^40 > 2^63: a
// score of 2^63 + 5 is a plaintext Decrypt recovers but no int64 holds,
// and DecryptInt and DecryptInts refuse it rather than wrap it negative.
func TestDecryptIntRefusesWidePlaintext(t *testing.T) {
	sk, err := GenerateKey(newDetRand("wide-plaintext"), 256, Pow3(40))
	if err != nil {
		t.Fatal(err)
	}
	rnd := newDetRand("wide-plaintext-msgs")
	wide := new(big.Int).Add(new(big.Int).Lsh(one, 63), big.NewInt(5))
	cWide, err := sk.Encrypt(rnd, wide)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.Decrypt(cWide); err != nil || m.Cmp(wide) != 0 {
		t.Fatalf("Decrypt(E(2^63+5)) = %v, %v", m, err)
	}
	if m, err := sk.DecryptInt(cWide); err == nil {
		t.Fatalf("DecryptInt(E(2^63+5)) = %d with no error", m)
	}
	cMax, err := sk.EncryptInt(rnd, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.DecryptInt(cMax); err != nil || m != math.MaxInt64 {
		t.Fatalf("DecryptInt(E(2^63-1)) = %d, %v", m, err)
	}
	ms := make([]int64, 3)
	if n, err := sk.NewDecryptor().DecryptInts(ms, []*big.Int{cMax, cWide, cMax}); n != 1 || err == nil || ms[0] != math.MaxInt64 {
		t.Fatalf("DecryptInts(E(2^63-1), E(2^63+5), E(2^63-1)) = %d, %v, scores %v", n, err, ms)
	}
}

func TestDecryptorReuse(t *testing.T) {
	// One Decryptor across plaintexts of different widths and a refusal in
	// between: nothing of one call leaks into the next.
	sk := key(t)
	rnd := newDetRand("reuse")
	d := sk.NewDecryptor()
	for _, m := range []int64{19682, 0, 1, 6560, 3, 19682} {
		c, _ := sk.EncryptInt(rnd, m)
		if got, err := d.DecryptInt(c); err != nil || got != m {
			t.Fatalf("DecryptInt(E(%d)) = %d, %v", m, got, err)
		}
		if _, err := d.DecryptInt(sk.N); !errors.Is(err, ErrNotUnit) {
			t.Fatalf("DecryptInt(n) = %v, want ErrNotUnit", err)
		}
	}
}

func TestConcurrentDecrypt(t *testing.T) {
	// The tables and the encryption constants are built by GenerateKey, so
	// one key encrypts and decrypts from many goroutines with no
	// synchronisation; run with -race.
	primeKey, err := GenerateKey(newDetRand("bsgs"), 192, big.NewInt(10007))
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []*PrivateKey{primeKey, key(t)} {
		rnd := newDetRand("concurrent")
		msgs := []int64{0, 1, 5003, 9999, 10006}
		cts := make([]*big.Int, len(msgs))
		for i, m := range msgs {
			cts[i], _ = sk.EncryptInt(rnd, m)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				own := newDetRand(fmt.Sprint("concurrent-", g))
				for rep := 0; rep < 20; rep++ {
					for i, c := range cts {
						if got, err := sk.DecryptInt(c); err != nil || got != msgs[i] {
							t.Errorf("r=%v: DecryptInt(E(%d)) = %d, %v", sk.R, msgs[i], got, err)
							return
						}
						fresh, err := sk.EncryptInt(own, msgs[i])
						if err != nil {
							t.Error(err)
							return
						}
						if got, err := sk.DecryptInt(fresh); err != nil || got != msgs[i] {
							t.Errorf("r=%v: DecryptInt of a concurrent E(%d) = %d, %v", sk.R, msgs[i], got, err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// FuzzDecrypt feeds Decrypt arbitrary integers under a 3^k key with unequal
// chunks and under a prime-r key: the typed refusal or the oracle's
// plaintext, never a panic. The value and a second one go through
// DecryptInts as a pair and an odd tail, each score held to its single
// Decrypt and the count and error to the lowest refusal.
func FuzzDecrypt(f *testing.F) {
	pow3Key, err := GenerateKey(newDetRand("fuzz-pow3"), 128, Pow3(5))
	if err != nil {
		f.Fatal(err)
	}
	primeKey, err := GenerateKey(newDetRand("fuzz-prime"), 128, big.NewInt(257))
	if err != nil {
		f.Fatal(err)
	}
	keys := []*PrivateKey{pow3Key, primeKey}
	rnd := newDetRand("fuzz-seeds")
	for _, sk := range keys {
		c, _ := sk.EncryptInt(rnd, 200)
		for _, v := range []*big.Int{c, new(big.Int), one, sk.N, sk.P1, sk.P2, new(big.Int).Add(c, sk.N)} {
			f.Add(v.Bytes(), false, c.Bytes())
			f.Add(v.Bytes(), true, v.Bytes())
			f.Add(c.Bytes(), false, v.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, neg bool, data2 []byte) {
		c := new(big.Int).SetBytes(data)
		if neg {
			c.Neg(c)
		}
		c2 := new(big.Int).SetBytes(data2)
		for _, sk := range keys {
			cs := []*big.Int{c, c2, c}
			ms := make([]int64, len(cs))
			n, err := sk.NewDecryptor().DecryptInts(ms, cs)
			for i, ci := range cs {
				want, wantErr := sk.Decrypt(ci)
				switch {
				case i < n && (wantErr != nil || ms[i] != want.Int64()):
					t.Fatalf("DecryptInts lane %d of %v = %d, Decrypt = %v, %v", i, cs, ms[i], want, wantErr)
				case i == n && (wantErr == nil || err != wantErr):
					t.Fatalf("DecryptInts(%v) stopped at %d with %v, Decrypt = %v, %v", cs, n, err, want, wantErr)
				}
			}
			if (n == len(cs)) != (err == nil) {
				t.Fatalf("DecryptInts(%v) = %d, %v", cs, n, err)
			}
		}
		for _, sk := range keys {
			m, err := sk.Decrypt(c)
			ref, ok := oracleDecrypt(sk, c)
			inRange := c.Sign() > 0 && c.Cmp(sk.N) < 0
			switch {
			case err != nil && !errors.Is(err, ErrNotUnit):
				t.Fatalf("Decrypt(%v) failed untyped: %v", c, err)
			case err != nil && ok && inRange:
				t.Fatalf("Decrypt(%v) refused a unit the oracle decrypts to %v", c, ref)
			case err == nil && (!ok || !inRange):
				t.Fatalf("Decrypt(%v) = %v for a value outside Z_n^*", c, m)
			case err == nil && (m.Sign() < 0 || m.Cmp(sk.R) >= 0 || m.Cmp(ref) != 0):
				t.Fatalf("Decrypt(%v) = %v, oracle %v, r = %v", c, m, ref, sk.R)
			}
		}
	})
}

var benchSink int64

// BenchmarkDecryptInt is one candidate score at the benchmark world's key
// shape (256 bits, r = 3^12); run with -benchmem.
func BenchmarkDecryptInt(b *testing.B) {
	sk, err := GenerateKey(newDetRand("bench"), 256, Pow3(12))
	if err != nil {
		b.Fatal(err)
	}
	rnd := newDetRand("bench-msgs")
	cts := make([]*big.Int, 64)
	for i := range cts {
		cts[i], _ = sk.EncryptInt(rnd, int64(i*7919)%531441)
	}
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = sk.DecryptInt(cts[i%len(cts)])
		}
	})
	b.Run("decryptor", func(b *testing.B) {
		b.ReportAllocs()
		d := sk.NewDecryptor()
		for i := 0; i < b.N; i++ {
			benchSink, _ = d.DecryptInt(cts[i%len(cts)])
		}
	})
	// The batch entry over the 64 ciphertexts, as PostFilter hands it a
	// worker's range: 32 two-lane pairs.
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		d := sk.NewDecryptor()
		ms := make([]int64, len(cts))
		for i := 0; i < b.N; i++ {
			if _, err := d.DecryptInts(ms, cts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cts)), "ns/ciphertext")
	})
}

var benchCipher *big.Int

// BenchmarkEncryptInt is one flag (m = 0 or 1, what a query is made of)
// and one score-sized plaintext at the benchmark world's key shape, from
// crypto/rand.
func BenchmarkEncryptInt(b *testing.B) {
	sk, err := GenerateKey(newDetRand("bench"), 256, Pow3(12))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int64{1, 1021} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchCipher, err = sk.EncryptInt(nil, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGenerateKeyTables(b *testing.B) {
	sk, err := GenerateKey(newDetRand("bench"), 256, Pow3(12))
	if err != nil {
		b.Fatal(err)
	}
	h := big.NewInt(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newFormTable(sk.m1, h, sk.logTab.size)
		powerForms(sk.m1, h, sk.logTab.size)
	}
}

func TestGenerateKeyRejectsBadSizes(t *testing.T) {
	if _, err := GenerateKey(newDetRand("small"), 31, Pow3(1)); err == nil {
		t.Error("a 31-bit modulus accepted")
	}
	if _, err := GenerateKey(newDetRand("wide"), 64, Pow3(10)); err == nil {
		t.Error("r = 3^10 accepted for a 64-bit modulus")
	}
}

func TestDefaultRandomness(t *testing.T) {
	// A nil source selects crypto/rand for keys and for encryptions.
	sk, err := GenerateKey(nil, 128, Pow3(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := sk.EncryptInt(nil, 80)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.DecryptInt(c); err != nil || m != 80 {
		t.Fatalf("DecryptInt = %d, %v", m, err)
	}
}

// shortRand is a randomness source that runs dry after n bytes.
type shortRand struct {
	src io.Reader
	n   int
}

func (s *shortRand) Read(p []byte) (int, error) {
	if s.n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > s.n {
		p = p[:s.n]
	}
	n, err := s.src.Read(p)
	s.n -= n
	return n, err
}

func TestRandomnessFailureSurfaces(t *testing.T) {
	// Wherever the source runs dry — in the search for p1, for p2, for g or
	// for an encryption's µ — the caller gets the error, not a partial key.
	sawKey := false
	for n := 0; n <= 4096 && !sawKey; n += 8 {
		sk, err := GenerateKey(&shortRand{newDetRand("dry"), n}, 128, Pow3(4))
		if (sk == nil) == (err == nil) {
			t.Fatalf("%d bytes of randomness: key %v, error %v", n, sk, err)
		}
		sawKey = err == nil
	}
	if !sawKey {
		t.Fatal("no key from 4096 bytes of randomness")
	}
	if _, err := key(t).EncryptInt(&shortRand{newDetRand("dry"), 3}, 1); err == nil {
		t.Error("Encrypt succeeded on 3 bytes of randomness")
	}
}

func TestCorruptKeyFailsDecryption(t *testing.T) {
	// A key whose tables do not enumerate ⟨h⟩ reports that; it does not
	// return a plaintext.
	prime, err := GenerateKey(newDetRand("bsgs"), 192, big.NewInt(10007))
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []*PrivateKey{key(t), prime} {
		c, _ := sk.EncryptInt(newDetRand("corrupt"), 5)
		broken := *sk
		broken.logTab = newFormTable(sk.m1, big.NewInt(2), sk.logTab.size) // the powers of 2, not of h
		if m, err := broken.Decrypt(c); err == nil || errors.Is(err, ErrNotUnit) {
			t.Errorf("r=%v: Decrypt under a corrupt key = %v, %v", sk.R, m, err)
		}
	}
}
