package benaloh

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"embellish/internal/detrand"
)

// TestDecryptPlaintextsThroughFormTable decrypts every plaintext under
// r = 3^1 and 3^5, and 0, r-1 and a sample under r = 3^12, 3^39 (the
// widest space whose scores an int64 holds) and a prime r, through
// Decrypt, DecryptInt and DecryptInts; the log tables of each key answer
// every power and miss a value that is none.
func TestDecryptPlaintextsThroughFormTable(t *testing.T) {
	for _, tc := range []struct {
		bits int
		r    *big.Int
		all  bool
	}{
		{128, Pow3(1), true},
		{128, Pow3(5), true},
		{256, Pow3(12), false},
		{256, Pow3(39), false},
		{192, big.NewInt(10007), false},
	} {
		name := fmt.Sprintf("%d bits, r = %v", tc.bits, tc.r)
		sk, err := GenerateKey(detrand.New("form-"+name), tc.bits, tc.r)
		if err != nil {
			t.Fatalf("GenerateKey(%s): %v", name, err)
		}
		checkFormTable(t, sk)
		var msgs []int64
		if tc.all {
			for m := range tc.r.Int64() {
				msgs = append(msgs, m)
			}
		} else {
			msgs = []int64{0, tc.r.Int64() - 1}
			rnd := detrand.New("form-sample-" + name)
			for range 32 {
				m, err := rand.Int(rnd, tc.r)
				if err != nil {
					t.Fatal(err)
				}
				msgs = append(msgs, m.Int64())
			}
		}
		rnd := detrand.New("form-stream-" + name)
		cts := make([]*big.Int, len(msgs))
		for i, m := range msgs {
			if cts[i], err = sk.EncryptInt(rnd, m); err != nil {
				t.Fatal(err)
			}
			if got, err := sk.Decrypt(cts[i]); err != nil || !got.IsInt64() || got.Int64() != m {
				t.Fatalf("%s: Decrypt(E(%d)) = %v, %v", name, m, got, err)
			}
			if got, err := sk.DecryptInt(cts[i]); err != nil || got != m {
				t.Fatalf("%s: DecryptInt(E(%d)) = %d, %v", name, m, got, err)
			}
		}
		ms := make([]int64, len(cts))
		if n, err := sk.NewDecryptor().DecryptInts(ms, cts); err != nil || n != len(cts) || !slices.Equal(ms, msgs) {
			t.Fatalf("%s: DecryptInts = %d, %v, scores differ", name, n, err)
		}
	}
}

// checkFormTable holds a key's log table to its definition: the Montgomery
// form of base^i is found at i for every i below the table's size, the
// form of zero (no power) is not found, and the slots are a power of two
// at most 7/8 full.
func checkFormTable(t *testing.T, sk *PrivateKey) {
	t.Helper()
	tab := sk.logTab
	base := new(big.Int).Exp(sk.G, sk.cofactor, sk.P1) // h
	if sk.k > 0 {
		base.Exp(base, sk.pow3[sk.k-sk.chunk], sk.P1) // W
	}
	slots := len(tab.vals)
	if slots&(slots-1) != 0 || 8*tab.size > 7*slots || len(tab.keys) != slots*tab.words || tab.words != sk.m1.Words() {
		t.Fatalf("r = %v: %d entries in %d slots of %d words (%d key words)", sk.R, tab.size, slots, tab.words, len(tab.keys))
	}
	k := sk.m1.Words()
	pows := powerForms(sk.m1, base, tab.size)
	for i := range tab.size {
		form := pows[i*k : (i+1)*k]
		if got, ok := tab.lookup(form); !ok || got != i {
			t.Fatalf("r = %v: the form of base^%d looks up as %d, %v", sk.R, i, got, ok)
		}
		if want := new(big.Int).Exp(base, big.NewInt(int64(i)), sk.P1); sk.m1.FromMont(form).Cmp(want) != 0 {
			t.Fatalf("r = %v: power form %d is not base^%d", sk.R, i, i)
		}
	}
	if got, ok := tab.lookup(make([]big.Word, k)); ok {
		t.Fatalf("r = %v: zero looks up as %d", sk.R, got)
	}
}
