package pir

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"
	"math/big"
	"testing"
)

// refUnits is the seeded expansion's stream spelled out with math/big:
// AES-128-CTR under the seed (zero IV), cut into big-endian candidates
// of N's byte length, each masked to N's bit length and kept in [1, N).
func refUnits(n *big.Int, key [SeedBytes]byte, count int) []*big.Int {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	ctr := cipher.NewCTR(block, make([]byte, aes.BlockSize))
	mask := new(big.Int).Sub(new(big.Int).Lsh(one, uint(n.BitLen())), one)
	var units []*big.Int
	for len(units) < count {
		c := make([]byte, (n.BitLen()+7)/8)
		ctr.XORKeyStream(c, c)
		u := new(big.Int).SetBytes(c)
		if u.And(u, mask); u.Sign() > 0 && u.Cmp(n) < 0 {
			units = append(units, u)
		}
	}
	return units
}

// TestSeededVectorMatchesDefinition holds NewSeededQuery's vectors to
// the definition, against math/big and the isQR oracle, at one-word
// moduli (the floor, sub-word, full word), a two-word modulus with word
// primes and a wide one: V has Jacobi symbol −1, Z is the key's packing
// element, a_j says J(y_j, N) = −1, b_j is the residuosity of y_j·V^a_j
// flipped at the target, each value is y_j·V^a_j·Z^b_j mod N — a residue
// but at the target, a Jacobi-(+1) non-residue there — the code bits
// past the last column are clear, and Next agrees with Expand at every
// rotation.
func TestSeededVectorMatchesDefinition(t *testing.T) {
	for _, bits := range []int{32, 48, 64, 128, 192} {
		k := sizedKey(t, bits)
		if big.Jacobi(k.v, k.N) != -1 {
			t.Fatalf("%d-bit key: V = %v has Jacobi symbol %d", bits, k.v, big.Jacobi(k.v, k.N))
		}
		const cols = 301
		for _, target := range []int{0, 1, 150, cols - 1} {
			label := fmt.Sprintf("%d-bit key, target %d", bits, target)
			q, err := k.NewSeededQuery(newDetRand(label), cols, target)
			if err != nil {
				t.Fatal(err)
			}
			if q.Seed == nil || q.Rot != 0 || q.Seed.V != k.v || q.Seed.Z != k.y {
				t.Fatalf("%s: seed %+v at rotation %d", label, q.Seed, q.Rot)
			}
			for j, y := range refUnits(k.N, q.Seed.Key, cols) {
				code := q.Seed.Codes[j/4] >> (2 * (j % 4)) & 3
				if a := code&1 == 1; a != (big.Jacobi(y, k.N) == -1) {
					t.Fatalf("%s column %d: a = %v for a unit of Jacobi symbol %d", label, j, a, big.Jacobi(y, k.N))
				}
				want := new(big.Int).Set(y)
				if code&1 == 1 {
					want.Mul(want, k.v).Mod(want, k.N)
				}
				if b := code>>1 == 1; b != (!k.isQR(want) != (j == target)) {
					t.Fatalf("%s column %d: b = %v, y' a residue: %v", label, j, b, k.isQR(want))
				}
				if code>>1 == 1 {
					want.Mul(want, k.y).Mod(want, k.N)
				}
				if q.Values[j].Cmp(want) != 0 {
					t.Fatalf("%s column %d: value %v, by definition %v", label, j, q.Values[j], want)
				}
				if k.isQR(want) == (j == target) || big.Jacobi(want, k.N) != 1 {
					t.Fatalf("%s column %d: a residue: %v", label, j, k.isQR(want))
				}
			}
			if last := q.Seed.Codes[len(q.Seed.Codes)-1]; last>>(2*(cols%4)) != 0 {
				t.Fatalf("%s: code bits set past the last column: %08b", label, last)
			}
			r := q
			for rot := 1; rot <= 3; rot++ {
				r = r.Next()
				out := make([]*big.Int, cols)
				if err := q.Seed.Expand(k.N, out, rot); err != nil {
					t.Fatal(err)
				}
				if r.Seed != q.Seed || r.Rot != rot {
					t.Fatalf("%s: Next %d times has seed %p at rotation %d", label, rot, r.Seed, r.Rot)
				}
				for j := range out {
					if out[j].Cmp(r.Values[j]) != 0 {
						t.Fatalf("%s: rotation %d column %d: Expand %v, Next %v", label, rot, j, out[j], r.Values[j])
					}
				}
			}
		}
	}
}

// TestNewSeededQueryDrawsAFreshSeed: no two NewSeededQuery calls share a
// seed — from one deterministic reader, across targets, and from
// crypto/rand.
func TestNewSeededQueryDrawsAFreshSeed(t *testing.T) {
	k := wordTestKey(t)
	rnd := newDetRand("fresh-seeds")
	seen := make(map[[SeedBytes]byte]int)
	for i := 0; i < 200; i++ {
		q, err := k.NewSeededQuery(rnd, 16, i%16)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[q.Seed.Key]; dup {
			t.Fatalf("queries %d and %d share a seed", prev, i)
		}
		seen[q.Seed.Key] = i
	}
	a, err := k.NewSeededQuery(nil, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.NewSeededQuery(nil, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed.Key == b.Seed.Key {
		t.Fatal("two queries from crypto/rand share a seed")
	}
}

// TestNewSeededQueryRedrawsASeedWithANonUnit: a unit that shares a factor
// with N would be public and give the factor away, so a seed whose stream
// has one is refused and NewSeededQuery draws another. At the smallest
// key a wide vector meets a multiple of p1 or p2 in most seeds.
func TestNewSeededQueryRedrawsASeedWithANonUnit(t *testing.T) {
	k := sizedKey(t, minKeyBits)
	const cols = 1 << 15
	rnd := newDetRand("non-unit")
	refused := 0
	for try := 0; try < 20; try++ {
		s := &Seed{V: k.v, Z: k.y, Codes: make([]byte, (cols+3)/4)}
		if _, err := io.ReadFull(rnd, s.Key[:]); err != nil {
			t.Fatal(err)
		}
		nonUnit := false
		for _, y := range refUnits(k.N, s.Key, cols) {
			nonUnit = nonUnit || new(big.Int).GCD(nil, nil, y, k.N).Cmp(one) != 0
		}
		if k.code(s, cols, 0) == nonUnit {
			t.Fatalf("seed %d: a non-unit in its stream: %v, and code accepts it", try, nonUnit)
		}
		if nonUnit {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no seed of twenty met a non-unit: the test shape no longer exercises the rule")
	}
	q, err := k.NewSeededQuery(newDetRand("non-unit-q"), cols, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range q.Values {
		if new(big.Int).GCD(nil, nil, v, k.N).Cmp(one) != 0 {
			t.Fatalf("value %d shares a factor with N", j)
		}
	}
}

// BenchmarkSeedExpand is the server's side of a seeded vector at the
// repository benchmark's width (6,029 blocks) under its 64-bit key: the
// AES stream and one product per column whose code is not 0.
func BenchmarkSeedExpand(b *testing.B) {
	k := benchmarkKey(b)
	q, err := k.NewSeededQuery(nil, 6029, 17)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*big.Int, 6029)
	b.ReportAllocs()
	for b.Loop() {
		if err := q.Seed.Expand(k.N, out, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSeedExpandRefusals: Expand refuses a seed that does not fit its
// vector, a multiplier outside (0, N) and a product that is not.
func TestSeedExpandRefusals(t *testing.T) {
	n := big.NewInt(35)
	if err := (&Seed{V: big.NewInt(2), Z: big.NewInt(3), Codes: []byte{0x27}}).Expand(n, make([]*big.Int, 3), 2); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		s          *Seed
		width, rot int
	}{
		"codes short":         {&Seed{V: big.NewInt(2), Z: big.NewInt(3)}, 3, 0},
		"rotation past width": {&Seed{V: big.NewInt(2), Z: big.NewInt(3), Codes: []byte{0}}, 3, 3},
		"no values":           {&Seed{V: big.NewInt(2), Z: big.NewInt(3)}, 0, 0},
		"V zero":              {&Seed{V: big.NewInt(0), Z: big.NewInt(3), Codes: []byte{0}}, 3, 0},
		"Z at N":              {&Seed{V: big.NewInt(2), Z: big.NewInt(35), Codes: []byte{0}}, 3, 0},
		"product zero":        {&Seed{V: big.NewInt(5), Z: big.NewInt(7), Codes: []byte{0x3f}}, 3, 0},
	} {
		if err := tc.s.Expand(n, make([]*big.Int, tc.width), tc.rot); err == nil {
			t.Errorf("%s: expanded", name)
		}
	}
}
