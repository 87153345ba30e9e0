package mont

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// testWidths are the modulus widths, in words, the differential and the
// fuzz target cover: every served key width (2-9 words) with a margin,
// both sides of the small-accumulator boundary, and the widest modulus
// the wire admits.
var testWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, smallWords, smallWords + 1, MaxWords}

// refMul is the oracle: Mul then Mod.
func refMul(a, b, n *big.Int) *big.Int {
	out := new(big.Int).Mul(a, b)
	return out.Mod(out, n)
}

// oddModulus returns an odd modulus of exactly words words whose top
// word is top (nonzero).
func oddModulus(rng *rand.Rand, words int, top big.Word) *big.Int {
	w := make([]big.Word, words)
	for i := range w {
		w[i] = big.Word(rng.Uint64())
	}
	w[words-1] = top
	w[0] |= 1
	return new(big.Int).SetBits(w)
}

// checkMul holds one product to the oracle through every entry point:
// Put/ToMont in, Mul (fresh and aliased destinations), FromMont out.
func checkMul(t *testing.T, m *Modulus, n, a, b *big.Int) {
	t.Helper()
	ma, err := m.ToMont(a)
	if err != nil {
		t.Fatalf("ToMont(%v) mod %v: %v", a, n, err)
	}
	mb, err := m.ToMont(b)
	if err != nil {
		t.Fatalf("ToMont(%v) mod %v: %v", b, n, err)
	}
	if back := m.FromMont(ma); back.Cmp(a) != 0 {
		t.Fatalf("mod %v: %v came back from the form as %v", n, a, back)
	}
	want := refMul(a, b, n)
	dst := make([]big.Word, m.Words())
	m.Mul(dst, ma, mb)
	if got := m.FromMont(dst); got.Cmp(want) != 0 {
		t.Fatalf("mod %v: %v*%v = %v, want %v", n, a, b, got, want)
	}
	copy(dst, ma)
	m.Mul(dst, dst, mb) // dst aliases a
	if got := m.FromMont(dst); got.Cmp(want) != 0 {
		t.Fatalf("mod %v, dst=a: %v*%v = %v, want %v", n, a, b, got, want)
	}
	copy(dst, mb)
	m.Mul(dst, ma, dst) // dst aliases b
	if got := m.FromMont(dst); got.Cmp(want) != 0 {
		t.Fatalf("mod %v, dst=b: %v*%v = %v, want %v", n, a, b, got, want)
	}
	m.Mul(ma, ma, ma) // in-place square
	if got, want := m.FromMont(ma), refMul(a, a, n); got.Cmp(want) != 0 {
		t.Fatalf("mod %v: %v squared in place = %v, want %v", n, a, got, want)
	}
}

// TestMulMatchesBigInt is the differential: random and edge operands
// (0, 1, n-1) over moduli of every width, including the moduli where the
// < 2n bound and the final subtract matter most — the top word all ones
// (R barely above n) and the top word 1 (n barely above R/2^W).
func TestMulMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, words := range testWidths {
		for _, top := range []big.Word{^big.Word(0), 1, big.Word(rng.Uint64()) | 1<<(bits.UintSize-1), big.Word(rng.Uint64()>>17) | 1} {
			n := oddModulus(rng, words, top)
			if n.BitLen() < 2 {
				continue // the one-word modulus 1
			}
			m, err := New(n)
			if err != nil {
				t.Fatalf("New(%v): %v", n, err)
			}
			if m.Words() != words {
				t.Fatalf("Words() = %d for a %d-word modulus", m.Words(), words)
			}
			if r := m.FromMont(m.R()); r.Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("mod %v: R() decodes to %v, want 1", n, r)
			}
			ops := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1))}
			for i := 0; i < 6; i++ {
				ops = append(ops, new(big.Int).Rand(rng, n))
			}
			for _, a := range ops {
				for _, b := range ops {
					checkMul(t, m, n, a, b)
				}
			}
		}
	}
}

// TestAllOnesModuli: 2^(W·k) - 1 and 2^(W·k) - 3, where n is one or
// three short of R and every intermediate crowds the top of the range.
func TestAllOnesModuli(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, words := range []int{1, 2, 4, 5, 9} {
		for _, short := range []int64{1, 3} {
			n := new(big.Int).Lsh(big.NewInt(1), uint(words*bits.UintSize))
			n.Sub(n, big.NewInt(short))
			m, err := New(n)
			if err != nil {
				t.Fatalf("New(%v): %v", n, err)
			}
			nm1 := new(big.Int).Sub(n, big.NewInt(1))
			checkMul(t, m, n, nm1, nm1)
			for i := 0; i < 20; i++ {
				checkMul(t, m, n, new(big.Int).Rand(rng, n), nm1)
			}
		}
	}
}

// TestRefusals: even, degenerate and oversize moduli and non-canonical
// operands are errors, not wrong answers.
func TestRefusals(t *testing.T) {
	for _, n := range []*big.Int{
		big.NewInt(4), big.NewInt(2), big.NewInt(1024),
		new(big.Int).Lsh(big.NewInt(1), 100), // even, multi-word
	} {
		if _, err := New(n); err == nil {
			t.Errorf("New accepted even modulus %v", n)
		}
	}
	for _, n := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-7)} {
		if _, err := New(n); err == nil {
			t.Errorf("New accepted degenerate modulus %v", n)
		}
	}
	wide := new(big.Int).Lsh(big.NewInt(1), MaxWords*bits.UintSize)
	wide.Add(wide, big.NewInt(1)) // odd, one word beyond MaxWords
	if _, err := New(wide); err == nil {
		t.Error("New accepted a modulus beyond MaxWords")
	}

	n := big.NewInt(1000003)
	m, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*big.Int{big.NewInt(-1), n, new(big.Int).Add(n, big.NewInt(5))} {
		if _, err := m.ToMont(x); err == nil {
			t.Errorf("ToMont accepted the non-canonical %v mod %v", x, n)
		}
		dst := []big.Word{7}
		if err := m.Put(dst, x); err == nil || dst[0] != 7 {
			t.Errorf("Put(%v) mod %v: err %v, dst %v; want a refusal that leaves dst alone", x, n, err, dst)
		}
	}
	if _, err := m.ToMont(big.NewInt(0)); err != nil {
		t.Errorf("ToMont refused the canonical residue 0: %v", err)
	}
}

// TestExpMatchesBigInt holds Exp to big.Int.Exp, value and product
// count, on exponents of every shape: zero, one, powers of two, all
// ones, multi-word, and with leading zero words.
func TestExpMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, words := range []int{1, 2, 4, 5, 9} {
		n := oddModulus(rng, words, big.Word(rng.Uint64())|1)
		if n.BitLen() < 2 {
			continue
		}
		m, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		exps := [][]big.Word{nil, {0}, {1}, {2}, {3}, {255}, {1 << 20}, {^big.Word(0)}, {5, 0, 0}, {0, 1}}
		for i := 0; i < 8; i++ {
			exps = append(exps, new(big.Int).Rand(rng, n).Bits())
		}
		for _, x := range []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), new(big.Int).Rand(rng, n)} {
			base, _ := m.ToMont(x)
			dst := make([]big.Word, words)
			for _, e := range exps {
				eInt := new(big.Int).SetBits(append([]big.Word(nil), e...))
				muls := m.Exp(dst, base, e)
				if got, want := m.FromMont(dst), new(big.Int).Exp(x, eInt, n); got.Cmp(want) != 0 {
					t.Fatalf("mod %v: %v^%v = %v, want %v", n, x, eInt, got, want)
				}
				ones := 0
				for _, w := range eInt.Bits() {
					ones += bits.OnesCount(uint(w))
				}
				if want := max(eInt.BitLen()-1, 0) + max(ones-1, 0); muls != want {
					t.Fatalf("%v^%v took %d products, want %d", x, eInt, muls, want)
				}
			}
		}
	}
}

// TestReduceMatchesBigInt holds the division-free reduction to Mod: values
// of every width around the modulus's — shorter, equal, a partial limb
// over, several limbs — with the edges a limb fold can trip on (0, n, n-1,
// multiples of n, all-ones limbs), over moduli whose top word is full,
// tiny and random.
func TestReduceMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, words := range []int{1, 2, 3, 4, 5, 9, smallWords + 1} {
		for _, top := range []big.Word{^big.Word(0), 1, 3, big.Word(rng.Uint64()) | 1} {
			n := oddModulus(rng, words, top)
			if n.BitLen() < 2 {
				continue
			}
			m, err := New(n)
			if err != nil {
				t.Fatal(err)
			}
			ones := func(w int) *big.Int {
				v := new(big.Int).Lsh(big.NewInt(1), uint(w*bits.UintSize))
				return v.Sub(v, big.NewInt(1))
			}
			xs := []*big.Int{new(big.Int), big.NewInt(1), n, new(big.Int).Sub(n, big.NewInt(1)), new(big.Int).Add(n, big.NewInt(1)),
				new(big.Int).Mul(n, n), new(big.Int).Mul(n, ones(words)), ones(words), ones(2 * words), ones(3*words + 1),
				new(big.Int).Lsh(big.NewInt(1), uint(words*bits.UintSize)), new(big.Int).Lsh(n, uint(2*words*bits.UintSize))}
			for w := 1; w <= 4*words+1; w++ {
				xs = append(xs, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(w*bits.UintSize))))
			}
			dst := make([]big.Word, words)
			for _, x := range xs {
				for i := range dst {
					dst[i] = ^big.Word(0) // a stale destination must not show
				}
				m.Reduce(dst, x.Bits())
				if got, want := m.FromMont(dst), new(big.Int).Mod(x, n); got.Cmp(want) != 0 {
					t.Fatalf("%x mod %x = %x, want %x", x, n, got, want)
				}
			}
		}
	}
}

// TestMulDoesNotAllocate pins the property the ranking fold is built on.
func TestMulDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, words := range []int{4, smallWords + 1} {
		n := oddModulus(rng, words, ^big.Word(0))
		m, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := m.ToMont(new(big.Int).Rand(rng, n))
		b, _ := m.ToMont(new(big.Int).Rand(rng, n))
		if avg := testing.AllocsPerRun(100, func() { m.Mul(a, a, b) }); avg != 0 {
			t.Errorf("%d words: Mul allocates %v times per product", words, avg)
		}
	}
}

// FuzzMul holds Mul to Mul+Mod on fuzzer-chosen moduli and operands. The
// three byte strings are read as big-endian integers; the modulus is
// made odd and stretched to the chosen width, the operands reduced into
// range (the fuzzer's own 0, 1 and n-1 are seeded).
func FuzzMul(f *testing.F) {
	ff := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	for i := range testWidths {
		f.Add(uint8(i), ff, []byte{0}, []byte{1})
		f.Add(uint8(i), []byte{1}, ff, ff)
		f.Add(uint8(i), []byte{0x80, 0, 0, 0, 0, 0, 0, 1}, []byte{2}, []byte{0x7f, 0xff})
	}
	f.Fuzz(func(t *testing.T, width uint8, nb, ab, bb []byte) {
		words := testWidths[int(width)%len(testWidths)]
		n := new(big.Int).SetBytes(nb)
		// Stretch to exactly the chosen width: the fuzzer's bytes fill the
		// top, so its edge patterns land where the carries are.
		if short := words*bits.UintSize - n.BitLen(); short > 0 {
			n.Lsh(n, uint(short))
		} else {
			n.Rsh(n, uint(-short))
		}
		n.SetBit(n, 0, 1)
		m, err := New(n)
		if err != nil {
			if n.BitLen() < 2 {
				return
			}
			t.Fatalf("New(%v): %v", n, err)
		}
		nm1 := new(big.Int).Sub(n, big.NewInt(1))
		a := new(big.Int).SetBytes(ab)
		b := new(big.Int).SetBytes(bb)
		// An operand at or above n stands for n-1 minus its excess, so the
		// top of the range is as reachable as the bottom.
		for _, x := range []*big.Int{a, b} {
			if x.Cmp(n) >= 0 {
				x.Mod(x, n)
				x.Sub(nm1, x)
			}
		}
		checkMul(t, m, n, a, b)
	})
}

// BenchmarkMul times one dependent product per iteration — the shape of
// an accumulator in the ranking fold — at the served key widths.
func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, words := range []int{2, 4, 5, 8, 9, 32} {
		n := oddModulus(rng, words, big.Word(rng.Uint64())|1<<(bits.UintSize-1))
		m, err := New(n)
		if err != nil {
			b.Fatal(err)
		}
		x, _ := m.ToMont(new(big.Int).Rand(rng, n))
		y, _ := m.ToMont(new(big.Int).Rand(rng, n))
		b.Run(benchName(words), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Mul(x, x, y)
			}
		})
	}
}

// BenchmarkBigIntMulMod is the same product through math/big.
func BenchmarkBigIntMulMod(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, words := range []int{2, 4, 5, 8, 9, 32} {
		n := oddModulus(rng, words, big.Word(rng.Uint64())|1<<(bits.UintSize-1))
		x := new(big.Int).Rand(rng, n)
		y := new(big.Int).Rand(rng, n)
		b.Run(benchName(words), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.Mul(x, y)
				x.Mod(x, n)
			}
		})
	}
}

func benchName(words int) string {
	return "bits=" + big.NewInt(int64(words*bits.UintSize)).String()
}
