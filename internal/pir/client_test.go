package pir

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"testing"
)

// sizedKey generates a deterministic key of the given width.
func sizedKey(t testing.TB, bits int) *ClientKey {
	t.Helper()
	k, err := GenerateKey(newDetRand("client-test"), bits)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestNewQueryProperties holds both flat selection vectors — NewQuery's
// word-arithmetic draws (a full-width and a sub-word one-word modulus)
// and big.Int ones (a multi-word modulus), and NewSeededQuery's seeded
// ones (both primes in the word Euler lanes, or big.Jacobi) — and the
// recursive vectors to the protocol's contract against the isQR oracle:
// every value in [1, N), every non-target value a unit and a quadratic
// residue, the target a Jacobi-(+1) non-residue; values that share a slab
// stay independent; and a reader that runs short is an error, not a
// short query.
func TestNewQueryProperties(t *testing.T) {
	for _, keyBits := range []int{64, 48, 192} {
		k := sizedKey(t, keyBits)
		if oneWord := len(k.N.Bits()) == 1; oneWord != (keyBits <= 64) {
			t.Fatalf("%d-bit key: one-word modulus = %v", keyBits, oneWord)
		}
		const cols = 700 // past one bulk read of the word path
		for name, draw := range map[string]func(io.Reader, int, int) (*Query, error){"drawn": k.NewQuery, "seeded": k.NewSeededQuery} {
			for _, target := range []int{0, 1, cols / 2, cols - 1} {
				q, err := draw(newDetRand("props"), cols, target)
				if err != nil {
					t.Fatal(err)
				}
				if len(q.Values) != cols || q.N.Cmp(k.N) != 0 || (q.Seed != nil) != (name == "seeded") {
					t.Fatalf("%d-bit key, %s: query of %d values under %v, seed %v", keyBits, name, len(q.Values), q.N, q.Seed)
				}
				for j, v := range q.Values {
					if v.Sign() <= 0 || v.Cmp(k.N) >= 0 {
						t.Fatalf("%d-bit key, %s, value %d: %v outside [1, N)", keyBits, name, j, v)
					}
					if new(big.Int).GCD(nil, nil, v, k.N).Cmp(one) != 0 {
						t.Fatalf("%d-bit key, %s, value %d: %v is not a unit", keyBits, name, j, v)
					}
					if j != target && !k.isQR(v) {
						t.Fatalf("%d-bit key, %s, value %d: %v is not a quadratic residue", keyBits, name, j, v)
					}
				}
				if v := q.Values[target]; big.Jacobi(v, k.N) != 1 || k.isQR(v) {
					t.Fatalf("%d-bit key, %s, target %d: %v is not a Jacobi-(+1) non-residue", keyBits, name, target, v)
				}
				before := new(big.Int).Set(q.Values[3])
				q.Values[2].Lsh(q.Values[2], 200)
				if q.Values[3].Cmp(before) != 0 {
					t.Fatalf("%d-bit key, %s: growing one value overwrote its neighbour", keyBits, name)
				}
			}
			_, err := draw(io.LimitReader(newDetRand("short"), SeedBytes-1), cols, 5)
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Fatalf("%d-bit key, %s: short reader gave %v", keyBits, name, err)
			}
		}
		rq, err := k.NewRecursiveQuery(newDetRand("props-rec"), cols, 123)
		if err != nil {
			t.Fatal(err)
		}
		tr, tc := 123/rq.GridCols, 123%rq.GridCols
		for g, v := range rq.Rows {
			if k.isQR(v) != (g != tr) {
				t.Fatalf("%d-bit key: recursive row value %d has the wrong character", keyBits, g)
			}
		}
		for c, v := range rq.Cols {
			if k.isQR(v) != (c != tc) {
				t.Fatalf("%d-bit key: recursive column value %d has the wrong character", keyBits, c)
			}
		}
	}
}

// TestDecodeMatchesIsQR: on honest executor answers the cached residue
// kernel decodes exactly what the two-prime isQR test decodes — the
// stored bytes — whichever serving kernel multiplied the gammas: the
// one-word one (a full-width and a sub-word modulus), the multi-word one
// with a one-word p1 (128 bits: the word decoder folds a two-word gamma)
// and with a wide p1 (192 bits: the decoder is isQR). An even modulus
// 2·p, which REDC and the word decoder both reject, is refused by the
// executor; the sequential reference multiplies its gammas instead, so
// the isQR decoder is still held to p1 = 2.
func TestDecodeMatchesIsQR(t *testing.T) {
	const nCols, colBytes = 21, 6
	cols := churnColumns(t, 53, nCols, colBytes)
	decodeBoth := func(name string, k *ClientKey, q *Query, target int) {
		t.Helper()
		answers, stats, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, []*Query{q}, Exec{})
		if _, merr := NewMont(q.N); merr != nil {
			assertRefused(t, name, answers, stats, err)
			ans, _, err := ProcessColumnsCtx(context.Background(), cols, colBytes, q)
			if err != nil {
				t.Fatal(err)
			}
			answers = []*Answer{ans}
		} else if err != nil {
			t.Fatal(err)
		}
		got := k.Decode(answers[0])
		for i, g := range gammasOf(answers[0]) {
			if got[i] == k.isQR(g) {
				t.Fatalf("%s target %d gamma %d: Decode says %v, isQR says %v", name, target, i, got[i], k.isQR(g))
			}
		}
		if !bytes.Equal(ColumnBytes(got), cols[target]) {
			t.Fatalf("%s target %d: decoded %x, stored %x", name, target, ColumnBytes(got), cols[target])
		}
	}
	for _, keyBits := range []int{64, 48, 128, 192} {
		k := sizedKey(t, keyBits)
		if word := k.decoder().word; word != (keyBits <= 128) {
			t.Fatalf("%d-bit key: word decoder = %v", keyBits, word)
		}
		for _, target := range []int{0, 7, nCols - 1} {
			q, err := k.NewQuery(newDetRand("decode"), nCols, target)
			if err != nil {
				t.Fatal(err)
			}
			decodeBoth("key", k, q, target)
		}
	}

	// The even key: p1 = 2 carries no quadratic character (every odd
	// value is 1 modulo 2), so residuosity lives modulo p2 alone and the
	// query is built by hand (big.Jacobi refuses an even modulus).
	p := sizedKey(t, 64).p2
	even := &ClientKey{N: new(big.Int).Lsh(p, 1), p1: big.NewInt(2), p2: p, e1: new(big.Int)}
	even.e2 = new(big.Int).Rsh(new(big.Int).Sub(p, one), 1)
	if _, err := NewMont(even.N); err == nil {
		t.Fatal("even modulus accepted by the Montgomery kernel")
	}
	rnd := newDetRand("even")
	const target = 4
	nonRes := big.NewInt(3) // the smallest odd non-residue modulo p
	for even.isQR(nonRes) {
		nonRes.Add(nonRes, big.NewInt(2))
	}
	q := &Query{N: even.N, Values: make([]*big.Int, nCols)}
	for j := range q.Values {
		v, err := even.randomQR(rnd)
		if err != nil {
			t.Fatal(err)
		}
		if j == target {
			v.Mul(v, nonRes).Mod(v, even.N)
		}
		q.Values[j] = v
	}
	decodeBoth("even", even, q, target)
}

// packGammas lays gammas out at width big-endian bytes each, back to
// back: the packed wire form.
func packGammas(gammas []*big.Int, width int) []byte {
	image := make([]byte, len(gammas)*width)
	for i, g := range gammas {
		g.FillBytes(image[i*width : (i+1)*width])
	}
	return image
}

// gammasOf reads an answer's gammas out of its image as big.Ints.
func gammasOf(a *Answer) []*big.Int {
	gammas := make([]*big.Int, a.Count())
	for i := range gammas {
		gammas[i] = new(big.Int).SetBytes(a.gamma(i))
	}
	return gammas
}

// TestDecodesAgree: the three flat decodes read the same bits — DecodeImage
// over packed bytes, Decode over an Answer of the same image, and the isQR
// oracle, cut to its p1 half under a key whose p1 fits a word, as Decode
// documents for forged gammas (honest ones decode the same under either
// half; TestDecodeMatchesIsQR). They agree on executor answers over random
// columns at 64-, 128- and 256-bit keys (the last runs the isQR fallback)
// and row counts that are not multiples of 8 × workers, so the workers'
// byte ranges split unevenly; and on forged gammas: 0, multiples of p1,
// values past N, all-0xFF, and a width wider than the modulus's.
func TestDecodesAgree(t *testing.T) {
	for _, keyBits := range []int{64, 128, 256} {
		k := sizedKey(t, keyBits)
		modBytes := (k.N.BitLen() + 7) / 8
		d := k.decoder()
		if d.word != (keyBits <= 128) {
			t.Fatalf("%d-bit key: word decoder = %v", keyBits, d.word)
		}
		oracle := func(g *big.Int) bool {
			if d.word {
				return new(big.Int).Exp(g, k.e1, k.p1).Cmp(one) != 0
			}
			return !k.isQR(g)
		}
		check := func(name string, gammas []*big.Int, width int) []byte {
			t.Helper()
			image := packGammas(gammas, width)
			bits := k.Decode(&Answer{Width: width, Image: image})
			column := bytes.Repeat([]byte{0xa5}, len(gammas)/8) // every byte must be written
			if err := k.DecodeImage(image, width, column); err != nil {
				t.Fatalf("%d-bit key, %s: %v", keyBits, name, err)
			}
			if !bytes.Equal(column, ColumnBytes(bits)) {
				t.Fatalf("%d-bit key, %s: DecodeImage %x, Decode %x", keyBits, name, column, ColumnBytes(bits))
			}
			for i, g := range gammas {
				if bits[i] != oracle(g) {
					t.Fatalf("%d-bit key, %s, gamma %d (%v): Decode %v, oracle %v", keyBits, name, i, g, bits[i], oracle(g))
				}
			}
			return column
		}
		const nCols = 5
		var honest []*big.Int
		for _, colBytes := range []int{1, 3, 129, 389} {
			cols := randomColumns(t, int64(colBytes), nCols, colBytes)
			answers, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, multiBatch(t, k, "agree", nCols, 2), Exec{})
			if err != nil {
				t.Fatal(err)
			}
			for qi, a := range answers {
				if got := check(fmt.Sprintf("%d-byte column %d", colBytes, qi), gammasOf(a), modBytes); !bytes.Equal(got, cols[qi]) {
					t.Fatalf("%d-bit key, %d-byte column %d: decoded %x, stored %x", keyBits, colBytes, qi, got, cols[qi])
				}
			}
			honest = gammasOf(answers[0])
		}

		ones := func(width int) *big.Int { return new(big.Int).Sub(new(big.Int).Lsh(one, uint(8*width)), one) }
		forged := []*big.Int{
			new(big.Int),
			new(big.Int).Set(k.p1),
			new(big.Int).Mul(k.p1, big.NewInt(3)),
			new(big.Int).Set(k.N),
			new(big.Int).Add(k.N, one),
			new(big.Int).Add(k.N, new(big.Int).Rsh(new(big.Int).Sub(ones(modBytes), k.N), 1)),
			ones(modBytes),
			new(big.Int).Sub(ones(modBytes), one),
		}
		for i := 0; len(forged)%8 != 0 || len(forged) < 24; i++ {
			forged = append(forged, honest[i])
		}
		check("forged", forged, modBytes)
		// Three bytes wider than the modulus: leading zeros on every gamma
		// above, and values only the wider width holds.
		check("forged, wide", append(forged[:len(forged)-8:len(forged)-8],
			ones(modBytes+3), new(big.Int).Lsh(k.N, 16), new(big.Int).Add(new(big.Int).Lsh(k.p1, 20), one), honest[0],
			new(big.Int).Add(honest[1], k.N), new(big.Int).Add(honest[2], new(big.Int).Lsh(k.N, 1)), ones(modBytes+1), k.p2), modBytes+3)

		if err := k.DecodeImage(make([]byte, 8*modBytes-1), modBytes, make([]byte, 1)); err == nil {
			t.Fatalf("%d-bit key: an image one byte short decoded", keyBits)
		}
		if err := k.DecodeImage(nil, 0, nil); err == nil {
			t.Fatalf("%d-bit key: a zero width decoded", keyBits)
		}
	}
}

// BenchmarkNewQuery is one flat query at the repository benchmark's
// width (6,029 blocks) under its 64-bit key, from crypto/rand: drawn
// residues, and seeded.
func BenchmarkNewQuery(b *testing.B) {
	k := benchmarkKey(b)
	for _, form := range []struct {
		name string
		draw func(io.Reader, int, int) (*Query, error)
	}{{"drawn", k.NewQuery}, {"seeded", k.NewSeededQuery}} {
		draw := form.draw
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := draw(nil, 6029, i%6029); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode is one flat block decode: the 8,192 gammas of a 1 KB
// block under the 64-bit key.
func BenchmarkDecode(b *testing.B) {
	k := benchmarkKey(b)
	cols := randomColumns(b, 9, 16, 1024)
	answers, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, 1024, multiBatch(b, k, "bench-decode", 16, 1), Exec{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Decode(answers[0])
	}
}

// BenchmarkDecodeImage is BenchmarkDecode over the image of the same
// answer as a fetch reads it: a frame's bytes, into a column buffer.
func BenchmarkDecodeImage(b *testing.B) {
	k := benchmarkKey(b)
	cols := randomColumns(b, 9, 16, 1024)
	answers, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, 1024, multiBatch(b, k, "bench-decode", 16, 1), Exec{})
	if err != nil {
		b.Fatal(err)
	}
	image, width, column := answers[0].Image, answers[0].Width, make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.DecodeImage(image, width, column); err != nil {
			b.Fatal(err)
		}
	}
}
