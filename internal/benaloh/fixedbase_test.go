package benaloh

import (
	"math/big"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/mont"
)

func fbTestKey(t testing.TB) *PrivateKey {
	t.Helper()
	key, err := GenerateKey(detrand.New("fixedbase"), 256, Pow3(10))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestFixedBasePowMatchesExp checks every exponent in range against the
// generic modular exponentiation, across several window widths.
func TestFixedBasePowMatchesExp(t *testing.T) {
	key := fbTestKey(t)
	pk := &key.PublicKey
	c, err := pk.EncryptInt(detrand.New("fb-flag"), 1)
	if err != nil {
		t.Fatal(err)
	}
	const maxExp = 255
	for _, window := range []uint{1, 2, 3, 4, 5, 8} {
		fb := pk.NewFixedBase(c, maxExp, window)
		for e := int64(0); e <= maxExp; e++ {
			got, _ := fb.Pow(e)
			want := new(big.Int).Exp(c, big.NewInt(e), pk.N)
			if got.Cmp(want) != 0 {
				t.Fatalf("window %d: Pow(%d) = %v, want %v", window, e, got, want)
			}
		}
	}
}

// TestFixedBaseAccounting: the table's counts are the counts of the
// arithmetic it replaces — setup as the doc comment states it, a power
// one product per nonzero digit beyond the first — and reading it
// allocates nothing.
func TestFixedBaseAccounting(t *testing.T) {
	key := fbTestKey(t)
	pk := &key.PublicKey
	c, err := pk.EncryptInt(detrand.New("fb-count"), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mont.New(pk.N)
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.ToMont(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []uint{1, 2, 4, 8} {
		fb := NewFixedBaseMont(m, base, 255, window)
		windows := (8 + int(window) - 1) / int(window)
		if want := windows*(1<<window-2) + (windows-1)*int(window); fb.SetupMuls() != want {
			t.Errorf("window %d: SetupMuls = %d, want %d", window, fb.SetupMuls(), want)
		}
		scratch := make([]big.Word, m.Words())
		for e := int64(0); e <= 255; e++ {
			digits := 0
			for v := e; v > 0; v >>= window {
				if v&(1<<window-1) != 0 {
					digits++
				}
			}
			got, muls := fb.PowWords(scratch, e)
			if muls != max(digits-1, 0) {
				t.Fatalf("window %d: PowWords(%d) cost %d products for %d nonzero digits", window, e, muls, digits)
			}
			if want := new(big.Int).Exp(c, big.NewInt(e), pk.N); m.FromMont(got).Cmp(want) != 0 {
				t.Fatalf("window %d: PowWords(%d) = %v, want %v", window, e, m.FromMont(got), want)
			}
		}
		if avg := testing.AllocsPerRun(50, func() { fb.PowWords(scratch, 255) }); avg != 0 {
			t.Errorf("window %d: PowWords allocates %v times per power", window, avg)
		}
	}
}

// TestFixedBaseWithoutForm: a modulus with no Montgomery form (no
// generated key has one, but public keys arrive off the wire) and a base
// outside [0, n) still get right powers and the same accounting.
func TestFixedBaseWithoutForm(t *testing.T) {
	key := fbTestKey(t)
	wide := new(big.Int).Add(key.N, big.NewInt(12345))
	table := key.PublicKey.NewFixedBase(big.NewInt(12345), 255, 4)
	for name, tc := range map[string]struct {
		pk   *PublicKey
		base *big.Int
	}{
		"even modulus":       {&PublicKey{N: new(big.Int).Lsh(key.N, 1), G: key.G, R: key.R}, wide},
		"non-canonical base": {&key.PublicKey, wide},
	} {
		fb := tc.pk.NewFixedBase(tc.base, 255, 4)
		for e := int64(0); e <= 255; e++ {
			got, muls := fb.Pow(e)
			if want := new(big.Int).Exp(tc.base, big.NewInt(e), tc.pk.N); got.Cmp(want) != 0 {
				t.Fatalf("%s: Pow(%d) = %v, want %v", name, e, got, want)
			}
			if _, want := table.Pow(e); muls != want {
				t.Fatalf("%s: Pow(%d) cost %d products, the table's %d", name, e, muls, want)
			}
		}
	}
}

// TestFixedBasePowFreshResult verifies Pow returns values the caller can
// mutate without corrupting the table (the server accumulates scores
// in place on top of Pow results).
func TestFixedBasePowFreshResult(t *testing.T) {
	key := fbTestKey(t)
	pk := &key.PublicKey
	c, err := pk.EncryptInt(detrand.New("fb-mut"), 1)
	if err != nil {
		t.Fatal(err)
	}
	fb := pk.NewFixedBase(c, 255, 4)
	for _, e := range []int64{0, 1, 3, 16, 17, 255} {
		v, _ := fb.Pow(e)
		want := new(big.Int).Set(v)
		v.SetInt64(-12345) // simulate caller mutation
		again, _ := fb.Pow(e)
		if again.Cmp(want) != 0 {
			t.Fatalf("Pow(%d) corrupted by caller mutation: got %v want %v", e, again, want)
		}
	}
}

// TestFixedBaseHomomorphism drives the table through the actual use:
// accumulating E(u)^p homomorphically and decrypting the sum.
func TestFixedBaseHomomorphism(t *testing.T) {
	key := fbTestKey(t)
	pk := &key.PublicKey
	rng := detrand.New("fb-homo")
	flag, err := pk.EncryptInt(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb := pk.NewFixedBase(flag, 255, 0)
	acc, err := pk.EncryptZero(rng)
	if err != nil {
		t.Fatal(err)
	}
	sum := int64(0)
	for _, p := range []int64{1, 7, 100, 255, 30} {
		contrib, _ := fb.Pow(p)
		pk.AddInto(acc, contrib)
		sum += p
	}
	m, err := key.DecryptInt(acc)
	if err != nil {
		t.Fatal(err)
	}
	if m != sum {
		t.Fatalf("decrypted %d, want %d", m, sum)
	}
}

func BenchmarkScalarMul(b *testing.B) {
	key := fbTestKey(b)
	pk := &key.PublicKey
	c, _ := pk.EncryptInt(detrand.New("fb-bench"), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.ScalarMul(c, int64(1+i%255))
	}
}

func BenchmarkFixedBasePow(b *testing.B) {
	key := fbTestKey(b)
	pk := &key.PublicKey
	c, _ := pk.EncryptInt(detrand.New("fb-bench"), 1)
	fb := pk.NewFixedBase(c, 255, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Pow(int64(1 + i%255))
	}
}
