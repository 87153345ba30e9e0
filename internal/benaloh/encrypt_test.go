package benaloh

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"testing"

	"embellish/internal/detrand"
)

// crtKeys are keys whose p1 is one, two and four 64-bit words wide, under
// r = 3^12 and under a prime r.
func crtKeys(t *testing.T) map[string]*PrivateKey {
	t.Helper()
	keys := map[string]*PrivateKey{}
	for _, bits := range []int{128, 256, 512} {
		for _, r := range []*big.Int{Pow3(12), big.NewInt(10007)} {
			name := fmt.Sprintf("%d bits, r = %v", bits, r)
			sk, err := GenerateKey(detrand.New("crt-"+name), bits, r)
			if err != nil {
				t.Fatalf("GenerateKey(%s): %v", name, err)
			}
			keys[name] = sk
		}
	}
	return keys
}

// TestPrivateEncryptMatchesPublic holds the key holder's encryption on its
// primes to PublicKey.Encrypt modulo n byte for byte, each fed from its own
// copy of one detrand stream, and both left at the same place in it.
func TestPrivateEncryptMatchesPublic(t *testing.T) {
	for name, sk := range crtKeys(t) {
		if got, want := sk.m1.Words(), (sk.P1.BitLen()+bits.UintSize-1)/bits.UintSize; got != want {
			t.Fatalf("%s: p1 fills %d words, want %d", name, got, want)
		}
		random, err := rand.Int(detrand.New("crt-msg-"+name), sk.R)
		if err != nil {
			t.Fatal(err)
		}
		msgs := []*big.Int{new(big.Int), one, new(big.Int).Sub(sk.R, one), random}
		priv, pub := detrand.New("crt-stream-"+name), detrand.New("crt-stream-"+name)
		for rep := range 50 {
			for _, m := range msgs {
				a, err := sk.Encrypt(priv, m)
				if err != nil {
					t.Fatalf("%s: PrivateKey.Encrypt(%v): %v", name, m, err)
				}
				b, err := sk.PublicKey.Encrypt(pub, m)
				if err != nil {
					t.Fatalf("%s: PublicKey.Encrypt(%v): %v", name, m, err)
				}
				if !bytes.Equal(ciphertextBytes(sk, a), ciphertextBytes(sk, b)) {
					t.Fatalf("%s, draw %d: PrivateKey.Encrypt(%v) = %x, PublicKey.Encrypt = %x", name, rep, m, a, b)
				}
			}
		}
		sameRest(t, name, priv, pub)
	}
}

// TestPrivateEncryptSkipsNonUnits crafts streams whose first draw is zero,
// a multiple of p1 or a multiple of p2: both paths skip that draw and
// encrypt with the next, so the ciphertext is the one the stream without
// the crafted draw gives.
func TestPrivateEncryptSkipsNonUnits(t *testing.T) {
	for name, sk := range crtKeys(t) {
		drawBytes := (new(big.Int).Sub(sk.N, one).BitLen() + 7) / 8
		for what, v := range map[string]*big.Int{
			"zero":        new(big.Int),
			"multiple p1": new(big.Int).Mul(sk.P1, new(big.Int).Sub(sk.P2, one)),
			"multiple p2": new(big.Int).Mul(sk.P2, new(big.Int).Sub(sk.P1, two)),
		} {
			crafted := func() io.Reader {
				return io.MultiReader(bytes.NewReader(v.FillBytes(make([]byte, drawBytes))), detrand.New("crt-skip-"+name))
			}
			want, err := sk.PublicKey.EncryptInt(detrand.New("crt-skip-"+name), 1)
			if err != nil {
				t.Fatal(err)
			}
			priv, pub := crafted(), crafted()
			a, err := sk.EncryptInt(priv, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sk.PublicKey.EncryptInt(pub, 1)
			if err != nil {
				t.Fatal(err)
			}
			if a.Cmp(want) != 0 || b.Cmp(want) != 0 {
				t.Fatalf("%s, first draw %s: PrivateKey.Encrypt %x, PublicKey.Encrypt %x, want %x (the next draw's)", name, what, a, b, want)
			}
			sameRest(t, name+", "+what, priv, pub)
		}
	}
}

// TestEncryptFlagsShareTheDraw: a 0 flag and a 1 flag encrypted from the
// same stream use the same µ — E(1) = E(0)·g mod n — and read the same
// bytes of it, so nothing the draw or µ^r does depends on the flag.
func TestEncryptFlagsShareTheDraw(t *testing.T) {
	for name, sk := range crtKeys(t) {
		for rep := range 8 {
			seed := fmt.Sprintf("crt-flag-%s-%d", name, rep)
			s0, s1 := detrand.New(seed), detrand.New(seed)
			c0, err := sk.EncryptInt(s0, 0)
			if err != nil {
				t.Fatal(err)
			}
			c1, err := sk.EncryptInt(s1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Mul(c0, sk.G); want.Mod(want, sk.N).Cmp(c1) != 0 {
				t.Fatalf("%s, draw %d: E(1) = %x is not E(0)·g = %x", name, rep, c1, want)
			}
			sameRest(t, name, s0, s1)
			if m, err := sk.DecryptInt(c0); err != nil || m != 0 {
				t.Fatalf("%s: E(0) decrypts to %d, %v", name, m, err)
			}
			if m, err := sk.DecryptInt(c1); err != nil || m != 1 {
				t.Fatalf("%s: E(1) decrypts to %d, %v", name, m, err)
			}
		}
	}
}

// ciphertextBytes is c at the key's ciphertext width.
func ciphertextBytes(sk *PrivateKey, c *big.Int) []byte {
	return c.FillBytes(make([]byte, sk.CiphertextBytes()))
}

// sameRest fails unless two streams go on with the same bytes: the two
// encryptions read the same draws.
func sameRest(t *testing.T, name string, a, b io.Reader) {
	t.Helper()
	x, y := make([]byte, 16), make([]byte, 16)
	if _, err := io.ReadFull(a, x); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(b, y); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Fatalf("%s: the two encryptions read different amounts of the stream", name)
	}
}
