package pir

import (
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// TestMontMulWordForms: on full-width moduli — top bit set, the shape
// every RetrievalKeyBits: 64 key has, where the pre-subtract sum carries
// out of the word — the branch form, the select form and big.Int
// arithmetic agree on the edge operands and on random ones, and the
// carry-out case is actually exercised.
func TestMontMulWordForms(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("64-bit moduli")
	}
	rng := rand.New(rand.NewSource(17))
	moduli := []uint{1<<63 + 1, 1<<64 - 1, 1<<64 - 59, uint(wordTestKey(t).N.Uint64())}
	for i := 0; i < 8; i++ {
		moduli = append(moduli, uint(rng.Uint64())|1<<63|1)
	}
	carried := 0
	for _, n := range moduli {
		nBig := new(big.Int).SetUint64(uint64(n))
		m, err := NewMont(nBig)
		if err != nil {
			t.Fatal(err)
		}
		rInv := new(big.Int).ModInverse(new(big.Int).Lsh(one, 64), nBig)
		ops := []uint{0, 1, n - 1, n / 2}
		for i := 0; i < 200; i++ {
			ops = append(ops, uint(rng.Uint64())%n)
		}
		for _, a := range ops {
			for _, b := range ops[:12] {
				got := montMulWordSel(a, b, n, uint(m.n0inv))
				if ref := montMulWord(a, b, n, uint(m.n0inv)); got != ref {
					t.Fatalf("n=%#x: %#x * %#x: select form %#x, branch form %#x", n, a, b, got, ref)
				}
				want := new(big.Int).Mul(new(big.Int).SetUint64(uint64(a)), new(big.Int).SetUint64(uint64(b)))
				want.Mul(want, rInv).Mod(want, nBig)
				if uint64(got) != want.Uint64() {
					t.Fatalf("n=%#x: %#x * %#x: got %#x, want %v", n, a, b, got, want)
				}
				hi, lo := bits.Mul(a, b)
				nhi, nlo := bits.Mul(lo*uint(m.n0inv), n)
				_, c := bits.Add(lo, nlo, 0)
				if _, o := bits.Add(hi, nhi, c); o != 0 {
					carried++
				}
			}
		}
	}
	if carried == 0 {
		t.Fatal("no product carried out of the word: the o != 0 case went untested")
	}
}

// TestComplementTableEntries: for every group width up to
// MaxBatchWindow, on the one-word and a multi-word modulus, every entry
// pat of the builder's table is the product of the values whose bit is
// clear in pat, by big.Int arithmetic, and the all-set entry is one in
// form. The values include a zero and a non-unit (the key's prime p1),
// which a table built by inverses would get wrong.
func TestComplementTableEntries(t *testing.T) {
	for _, key := range []*ClientKey{wordTestKey(t), testKey(t)} {
		m, err := NewMont(key.N)
		if err != nil {
			t.Fatal(err)
		}
		kw := m.Words()
		rng := rand.New(rand.NewSource(int64(kw)))
		for g := 1; g <= MaxBatchWindow; g++ {
			vals := make([]*big.Int, g)
			for j := range vals {
				vals[j] = new(big.Int).Rand(rng, key.N)
			}
			vals[0] = new(big.Int).Set(key.p1)
			vals[g-1] = new(big.Int) // at g = 1, the one value
			mk := newScanKernel(m, 1, g, 8, g)
			mk.load(0, 0, vals)
			mk.build(0, 0, g)
			for pat := 0; pat < 1<<g; pat++ {
				want := big.NewInt(1)
				for j, v := range vals {
					if pat>>j&1 == 0 {
						want.Mul(want, v).Mod(want, key.N)
					}
				}
				entry := mk.tbl[pat*kw : (pat+1)*kw]
				if got := m.FromMont(entry); got.Cmp(want) != 0 {
					t.Fatalf("%d-word modulus, g=%d, entry %b: %v, want %v", kw, g, pat, got, want)
				}
				if pat == 1<<g-1 && !slices.Equal(entry, m.R()) {
					t.Fatalf("%d-word modulus, g=%d: all-set entry %v, want one in form %v", kw, g, entry, m.R())
				}
			}
		}
	}
}

// foldFixture builds a full-width (2^MaxBatchWindow entries) table and
// one block's worth of accumulators and patterns under the benchmark key.
func foldFixture(b *testing.B) (m *Mont, acc, tbl []big.Word, pats []uint16) {
	m, err := NewMont(benchmarkKey(b).N)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	residue := func() big.Word { return big.Word(rng.Uint64() % uint64(m.n[0])) }
	acc, tbl, pats = make([]big.Word, 8192), make([]big.Word, 1<<MaxBatchWindow), make([]uint16, 8192)
	for i := range tbl {
		tbl[i] = residue()
	}
	for r := range acc {
		acc[r], pats[r] = residue(), uint16(rng.Intn(len(tbl)))
	}
	return m, acc, tbl, pats
}

// BenchmarkWordFold is the scan's hot loop: 8,192 independent one-word
// products per op.
func BenchmarkWordFold(b *testing.B) {
	m, acc, tbl, pats := foldFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordFold(acc, tbl, pats, false, uint(m.n[0]), uint(m.n0inv))
	}
}

// BenchmarkWordFoldChain runs the same 8,192 products as one dependent
// chain — the shape of Mont.Mul callers and of the residue test.
func BenchmarkWordFoldChain(b *testing.B) {
	m, acc, tbl, _ := foldFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range acc {
			m.Mul(acc[:1], acc[:1], tbl[:1])
		}
	}
}
