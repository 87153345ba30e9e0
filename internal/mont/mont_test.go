package mont

import (
	"bytes"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
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
	if m.Words() == 2 {
		if got, want := word2(m, ma, mb), genericMul(m, ma, mb); got != want {
			t.Fatalf("mod %v: %v*%v in form: two-word %x, generic kernel %x", n, a, b, got, want)
		}
	}
	m.Mul(ma, ma, ma) // in-place square
	if got, want := m.FromMont(ma), refMul(a, a, n); got.Cmp(want) != 0 {
		t.Fatalf("mod %v: %v squared in place = %v, want %v", n, a, got, want)
	}
}

// genericMul is the product of two-word operands through the generic
// kernel, which Mul no longer reaches at this width: the reference the
// register form is held to word for word, beside math/big.
func genericMul(m *Modulus, a, b []big.Word) [2]big.Word {
	var t, dst [2]big.Word
	m.mul(t[:], dst[:], a, b)
	return dst
}

// word2 is the same product through mulWord2.
func word2(m *Modulus, a, b []big.Word) [2]big.Word {
	d0, d1 := mulWord2(uint(a[0]), uint(a[1]), uint(b[0]), uint(b[1]), uint(m.n[0]), uint(m.n[1]), uint(m.n0inv))
	return [2]big.Word{big.Word(d0), big.Word(d1)}
}

// genericExp is Exp's chain on the generic kernel.
func genericExp(m *Modulus, dst, base []big.Word, e *big.Int) (muls int) {
	if e.Sign() == 0 {
		copy(dst, m.r)
		return 0
	}
	copy(dst, base)
	t := make([]big.Word, m.Words())
	for bit := e.BitLen() - 2; bit >= 0; bit-- {
		clear(t)
		m.mul(t, dst, dst, dst)
		muls++
		if e.Bit(bit) == 1 {
			clear(t)
			m.mul(t, dst, dst, base)
			muls++
		}
	}
	return muls
}

// twoWordModuli are the shapes the register form's carries can trip on:
// 2^W + 1 (top word 1, low word 1), R - 1 and R - 3 (all ones: n barely
// under R, every intermediate at the top of the range), a top word of 1
// over a random low word, and the top bit set as generated primes have it.
func twoWordModuli(rng *rand.Rand) []*big.Int {
	r := new(big.Int).Lsh(big.NewInt(1), 2*bits.UintSize)
	return []*big.Int{
		new(big.Int).SetBits([]big.Word{1, 1}),
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Sub(r, big.NewInt(3)),
		oddModulus(rng, 2, 1),
		oddModulus(rng, 2, big.Word(rng.Uint64())|1<<(bits.UintSize-1)),
		oddModulus(rng, 2, big.Word(rng.Uint64()>>9)|1),
	}
}

// TestTwoWordMulMatchesGenericAndBigInt holds mulWord2 to the generic
// kernel and to math/big on raw operands, outside the form's own
// conversions: a·b·R^-1 mod n for a anywhere below R — Reduce hands Mul a
// sum that is no residue — and b canonical, through every aliasing of dst.
func TestTwoWordMulMatchesGenericAndBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := new(big.Int).Lsh(big.NewInt(1), 2*bits.UintSize)
	words := func(x *big.Int) []big.Word {
		w := make([]big.Word, 2)
		copy(w, x.Bits())
		return w
	}
	for _, n := range twoWordModuli(rng) {
		m, err := New(n)
		if err != nil {
			t.Fatalf("New(%x): %v", n, err)
		}
		rInv := new(big.Int).ModInverse(r, n)
		nm1 := new(big.Int).Sub(n, big.NewInt(1))
		bs := []*big.Int{new(big.Int), big.NewInt(1), nm1}
		// a ranges over [0, R): the canonical edges, then n itself, R - 1
		// and random values in [n, R).
		as := []*big.Int{new(big.Int), big.NewInt(1), nm1, n, new(big.Int).Sub(r, big.NewInt(1))}
		for i := 0; i < 8; i++ {
			bs = append(bs, new(big.Int).Rand(rng, n))
			as = append(as, new(big.Int).Rand(rng, n))
			over := new(big.Int).Rand(rng, new(big.Int).Sub(r, n))
			as = append(as, over.Add(over, n))
		}
		for _, a := range as {
			for _, b := range bs {
				aw, bw := words(a), words(b)
				want := new(big.Int).Mul(a, b)
				want.Mul(want, rInv).Mod(want, n)
				got := word2(m, aw, bw)
				if new(big.Int).SetBits(got[:]).Cmp(want) != 0 {
					t.Fatalf("mod %x: mulWord2(%x, %x) = %x, want %x", n, a, b, got, want)
				}
				if ref := genericMul(m, aw, bw); got != ref {
					t.Fatalf("mod %x: mulWord2(%x, %x) = %x, generic kernel %x", n, a, b, got, ref)
				}
				dst := words(a)
				m.Mul(dst, dst, bw) // dst aliases a
				if [2]big.Word(dst) != got {
					t.Fatalf("mod %x, dst=a: Mul(%x, %x) = %x, want %x", n, a, b, dst, got)
				}
				dst = words(b)
				m.Mul(dst, aw, dst) // dst aliases b
				if [2]big.Word(dst) != got {
					t.Fatalf("mod %x, dst=b: Mul(%x, %x) = %x, want %x", n, a, b, dst, got)
				}
			}
		}
		for _, b := range bs { // dst aliases both
			bw := words(b)
			want := genericMul(m, bw, bw)
			m.Mul(bw, bw, bw)
			if [2]big.Word(bw) != want {
				t.Fatalf("mod %x: %x squared in place = %x, want %x", n, b, bw, want)
			}
		}
	}
}

// TestTwoWordExpMatchesGenericAndBigInt: the register chain returns the
// value big.Int.Exp does and the value and product count of the same chain
// on the generic kernel, on the exponents decryption raises to — a 109-bit
// cofactor, bare and under zero top words — and on the word-boundary ones.
func TestTwoWordExpMatchesGenericAndBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cofactor := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 108))
	cofactor.SetBit(cofactor, 108, 1)
	exps := [][]big.Word{nil, {0}, {1}, {2}, {^big.Word(0)}, {0, 1}, cofactor.Bits(),
		append(append([]big.Word(nil), cofactor.Bits()...), 0, 0)}
	for _, n := range twoWordModuli(rng) {
		m, err := New(n)
		if err != nil {
			t.Fatalf("New(%x): %v", n, err)
		}
		for _, x := range []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), new(big.Int).Rand(rng, n), new(big.Int).Rand(rng, n)} {
			base, err := m.ToMont(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range exps {
				eInt := new(big.Int).SetBits(append([]big.Word(nil), e...))
				dst, ref := []big.Word{^big.Word(0), ^big.Word(0)}, make([]big.Word, 2) // a stale destination must not show
				muls := m.Exp(dst, base, e)
				refMuls := genericExp(m, ref, base, eInt)
				if muls != refMuls || [2]big.Word(dst) != [2]big.Word(ref) {
					t.Fatalf("mod %x: %x^%x = %x in %d products, generic kernel %x in %d", n, x, eInt, dst, muls, ref, refMuls)
				}
				if got, want := m.FromMont(dst), new(big.Int).Exp(x, eInt, n); got.Cmp(want) != 0 {
					t.Fatalf("mod %x: %x^%x = %x, want %x", n, x, eInt, got, want)
				}
			}
		}
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

// chainProducts is what left-to-right square-and-multiply costs for e: a
// square per bit below the top one and a product per such bit that is set.
func chainProducts(e *big.Int) int {
	ones := 0
	for _, w := range e.Bits() {
		ones += bits.OnesCount(uint(w))
	}
	return max(e.BitLen()-1, 0) + max(ones-1, 0)
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
				if want := chainProducts(eInt); muls != want {
					t.Fatalf("%v^%v took %d products, want %d", x, eInt, muls, want)
				}
			}
		}
	}
}

// TestExpPairMatchesExp holds the two-lane walk to two Exp calls word for
// word and product for product at every test width: the exponents Exp
// trims (zero, zero under zero words, a cofactor-sized one under zero top
// words), one, a word boundary, and two equal bases as well as two
// distinct ones — the lanes share nothing but the exponent.
func TestExpPairMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cofactor := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 108))
	cofactor.SetBit(cofactor, 108, 1)
	exps := [][]big.Word{nil, {0}, {0, 0}, {1}, {1, 0}, {2}, {^big.Word(0)}, {0, 1}, cofactor.Bits(),
		append(append([]big.Word(nil), cofactor.Bits()...), 0, 0)}
	for _, words := range testWidths {
		n := oddModulus(rng, words, big.Word(rng.Uint64())|1<<(bits.UintSize-1))
		m, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := m.ToMont(new(big.Int).Rand(rng, n))
		y, _ := m.ToMont(new(big.Int).Rand(rng, n))
		for _, bases := range [][2][]big.Word{{x, y}, {x, x}, {m.R(), y}} {
			for _, e := range exps {
				want0, want1 := make([]big.Word, words), make([]big.Word, words)
				muls := m.Exp(want0, bases[0], e)
				if m.Exp(want1, bases[1], e) != muls {
					t.Fatalf("%d words: Exp's product count depends on the base", words)
				}
				got0, got1 := make([]big.Word, words), make([]big.Word, words)
				for i := range got0 {
					got0[i], got1[i] = ^big.Word(0), ^big.Word(0) // a stale destination must not show
				}
				if got := m.ExpPair(got0, got1, bases[0], bases[1], e); got != muls ||
					!slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
					t.Fatalf("%d words, e = %x: ExpPair = %x, %x in %d products; Exp = %x, %x in %d", words, e, got0, got1, got, want0, want1, muls)
				}
			}
		}
		if words == MaxWords {
			continue // one pair of chains at 8192 bits is enough
		}
		d0, d1 := make([]big.Word, words), make([]big.Word, words)
		if avg := testing.AllocsPerRun(10, func() { m.ExpPair(d0, d1, x, y, cofactor.Bits()) }); avg != 0 {
			t.Errorf("%d words: ExpPair allocates %v times per pair of chains", words, avg)
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
	for _, words := range []int{2, 4, smallWords + 1} {
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
		dst, e := make([]big.Word, words), n.Bits()
		if avg := testing.AllocsPerRun(10, func() { m.Exp(dst, a, e) }); avg != 0 {
			t.Errorf("%d words: Exp allocates %v times per chain", words, avg)
		}
	}
}

// fuzzModulus reads nb as a big-endian integer, stretched to exactly the
// chosen width — the fuzzer's bytes fill the top, so its edge patterns
// land where the carries are — and made odd. ok is false for the one
// modulus too small to have a form.
func fuzzModulus(t *testing.T, width uint8, nb []byte) (n *big.Int, m *Modulus, ok bool) {
	words := testWidths[int(width)%len(testWidths)]
	n = new(big.Int).SetBytes(nb)
	if short := words*bits.UintSize - n.BitLen(); short > 0 {
		n.Lsh(n, uint(short))
	} else {
		n.Rsh(n, uint(-short))
	}
	n.SetBit(n, 0, 1)
	m, err := New(n)
	if err != nil {
		if n.BitLen() < 2 {
			return nil, nil, false
		}
		t.Fatalf("New(%v): %v", n, err)
	}
	return n, m, true
}

// fuzzOperand reads xb as a big-endian integer in [0, n): a value at or
// above n stands for n-1 minus its excess, so the top of the range is as
// reachable as the bottom.
func fuzzOperand(xb []byte, n *big.Int) *big.Int {
	x := new(big.Int).SetBytes(xb)
	if x.Cmp(n) >= 0 {
		x.Mod(x, n)
		x.Sub(new(big.Int).Sub(n, big.NewInt(1)), x)
	}
	return x
}

// Byte strings the fuzz targets are seeded with: one and two words of
// ones, 2^W + 1, and a two-word value with only its top and bottom bits.
var (
	seedOnes  = bytes.Repeat([]byte{0xff}, bits.UintSize/8)
	seedOnes2 = bytes.Repeat([]byte{0xff}, 2*bits.UintSize/8)
	seedR1    = append(append([]byte{1}, make([]byte, bits.UintSize/8-1)...), 1)
	seedEdges = append(append([]byte{0x80}, make([]byte, 2*bits.UintSize/8-2)...), 1)
)

// FuzzMul holds Mul to Mul+Mod on fuzzer-chosen moduli and operands (the
// fuzzer's own 0, 1 and n-1 are seeded); at two words checkMul holds the
// register form to the generic kernel as well.
func FuzzMul(f *testing.F) {
	for i := range testWidths {
		f.Add(uint8(i), seedOnes, []byte{0}, []byte{1})
		f.Add(uint8(i), []byte{1}, seedOnes, seedOnes)
		f.Add(uint8(i), []byte{0x80, 0, 0, 0, 0, 0, 0, 1}, []byte{2}, []byte{0x7f, 0xff})
		f.Add(uint8(i), seedOnes2, seedOnes2, seedOnes2)
		f.Add(uint8(i), seedR1, seedOnes, seedR1)
		f.Add(uint8(i), seedEdges, seedOnes2, seedEdges)
	}
	f.Fuzz(func(t *testing.T, width uint8, nb, ab, bb []byte) {
		n, m, ok := fuzzModulus(t, width, nb)
		if !ok {
			return
		}
		checkMul(t, m, n, fuzzOperand(ab, n), fuzzOperand(bb, n))
	})
}

// FuzzExp holds Exp — the register chain at two words, the generic one
// elsewhere — to big.Int.Exp, and its product count to the bits of the
// exponent; at two words the generic kernel's chain is a second reference.
// ExpPair over x and a second base y must equal the two Exp chains word
// for word and product for product. The exponent is capped at 32 bytes: a
// chain costs a product per bit.
func FuzzExp(f *testing.F) {
	for i := range testWidths {
		f.Add(uint8(i), seedOnes, []byte{2}, []byte{3}, []byte{0})
		f.Add(uint8(i), seedOnes2, seedOnes, seedOnes, seedOnes)
		f.Add(uint8(i), seedR1, seedOnes2, []byte{1}, seedR1)
		f.Add(uint8(i), seedEdges, seedEdges, seedEdges, seedOnes2)
	}
	f.Fuzz(func(t *testing.T, width uint8, nb, xb, yb, eb []byte) {
		n, m, ok := fuzzModulus(t, width, nb)
		if !ok {
			return
		}
		x := fuzzOperand(xb, n)
		e := new(big.Int).SetBytes(eb[:min(len(eb), 32)])
		base, err := m.ToMont(x)
		if err != nil {
			t.Fatalf("ToMont(%v) mod %v: %v", x, n, err)
		}
		dst := make([]big.Word, m.Words())
		muls := m.Exp(dst, base, e.Bits())
		if got, want := m.FromMont(dst), new(big.Int).Exp(x, e, n); got.Cmp(want) != 0 {
			t.Fatalf("mod %v: %v^%v = %v, want %v", n, x, e, got, want)
		}
		if want := chainProducts(e); muls != want {
			t.Fatalf("%v^%v took %d products, want %d", x, e, muls, want)
		}
		if m.Words() == 2 {
			ref := make([]big.Word, 2)
			if refMuls := genericExp(m, ref, base, e); refMuls != muls || [2]big.Word(ref) != [2]big.Word(dst) {
				t.Fatalf("mod %v: %v^%v = %x in %d products, generic kernel %x in %d", n, x, e, dst, muls, ref, refMuls)
			}
		}
		y := fuzzOperand(yb, n)
		base1, err := m.ToMont(y)
		if err != nil {
			t.Fatalf("ToMont(%v) mod %v: %v", y, n, err)
		}
		dst1 := make([]big.Word, m.Words())
		m.Exp(dst1, base1, e.Bits())
		got0, got1 := make([]big.Word, m.Words()), make([]big.Word, m.Words())
		if pairMuls := m.ExpPair(got0, got1, base, base1, e.Bits()); pairMuls != muls || !slices.Equal(got0, dst) || !slices.Equal(got1, dst1) {
			t.Fatalf("mod %v: (%v, %v)^%v: ExpPair = %x, %x in %d products; Exp = %x, %x in %d", n, x, y, e, got0, got1, pairMuls, dst, dst1, muls)
		}
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
