// Package pir implements the single-database computationally-private
// information retrieval protocol of Kushilevitz and Ostrovsky (FOCS 1997),
// the baseline ("PIR") that Section 5.2 of Pang, Ding and Xiao (VLDB 2010)
// benchmarks their private retrieval scheme against.
//
// The server holds a bit matrix. To fetch column y privately, the client
// sends one value per column: quadratic residues (QR) modulo n = p1·p2
// everywhere except a quadratic non-residue (QNR) at column y. For every
// row the server multiplies, squaring the entries at 0-bits, and returns
// one product per row; the product is a QNR exactly when the bit at
// (row, y) is 1. Distinguishing QR from QNR requires the factorization,
// which only the client knows. One protocol run retrieves one full column.
package pir

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

var one = big.NewInt(1)

func shortColumnError(j, got, want int) error {
	return fmt.Errorf("pir: column %d holds %d of %d bytes", j, got, want)
}

// ColumnBytes converts a column bit vector (as returned by Decode) back to
// bytes, MSB first.
func ColumnBytes(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (7 - i%8)
		}
	}
	return out
}

// ClientKey holds the client's secret factorization.
type ClientKey struct {
	N      *big.Int
	p1, p2 *big.Int
	// Euler-criterion exponents (p-1)/2, precomputed.
	e1, e2 *big.Int
	// y is the key's packing element: one fixed Jacobi-(+1) non-residue.
	// Level 2 of the recursive path encrypts a byte m as y^m·x^256 — the
	// 2^8-th power residue symbol cryptosystem (Joye-Libert), of which
	// the KO bit ciphertext is the one-bit case — and p1 ≡ 1 (mod 256)
	// is what lets (p1−1)/256 read m back out (recursive_decode.go).
	// The flat protocol sends it as the Z of its seeded vectors (Seed):
	// like the public key of Goldwasser-Micali or of Joye-Libert, it is
	// public.
	y *big.Int
	// v is the seeded vectors' V: the smallest integer of Jacobi symbol
	// −1 modulo N — public, and anyone holding N can find it.
	v *big.Int
	// The cached residue-test kernel of the decoders and of the seed
	// coder's p1 symbols (recursive_decode.go). The atomic makes
	// ClientKey share-but-not-copy; every caller already holds keys by
	// pointer.
	decoderCache
}

// packBits is the pack width of recursive level 2: every level-2
// ciphertext carries packBits bits — one byte — of the level-1 image.
// A constant, not a knob: the wire type pins it.
const packBits = 8

// minKeyBits is the smallest modulus GenerateKey draws: p1 needs
// packBits low bits, two pinned top bits and room for a prime between.
const minKeyBits = 32

// CheckKeyBits is the one statement of the key-size floor; callers that
// accept a key size ahead of key generation wrap its error.
func CheckKeyBits(bits int) error {
	if bits < minKeyBits {
		return fmt.Errorf("pir: a %d-bit modulus is too small (minimum %d)", bits, minKeyBits)
	}
	return nil
}

// GenerateKey creates a client key with an n of exactly bits bits. p1 is
// drawn ≡ 1 (mod 2^packBits) for the packed level 2; the flat protocol
// and level 1 are indifferent to that (any odd primes serve them).
func GenerateKey(randSrc io.Reader, bits int) (*ClientKey, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if err := CheckKeyBits(bits); err != nil {
		return nil, err
	}
	for {
		p1, err := packPrime(randSrc, bits/2)
		if err != nil {
			return nil, err
		}
		p2, err := rand.Prime(randSrc, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p1.Cmp(p2) == 0 {
			continue
		}
		k := &ClientKey{N: new(big.Int).Mul(p1, p2), p1: p1, p2: p2}
		k.e1 = new(big.Int).Rsh(new(big.Int).Sub(p1, one), 1)
		k.e2 = new(big.Int).Rsh(new(big.Int).Sub(p2, one), 1)
		if k.y, err = k.randomQNR(randSrc); err != nil {
			return nil, err
		}
		k.v = big.NewInt(2)
		for big.Jacobi(k.v, k.N) != -1 {
			k.v.Add(k.v, one)
		}
		return k, nil
	}
}

// packPrime draws a prime of exactly bits bits that is ≡ 1 modulo
// 2^packBits, with its top two bits set like rand.Prime's (so the
// product with a rand.Prime has exactly the summed bit length).
func packPrime(randSrc io.Reader, bits int) (*big.Int, error) {
	free := uint(bits - packBits - 2) // the bits between the pinned ends
	span := new(big.Int).Lsh(one, free)
	for {
		p, err := rand.Int(randSrc, span)
		if err != nil {
			return nil, err
		}
		p.SetBit(p, int(free), 1).SetBit(p, int(free)+1, 1)
		p.Lsh(p, packBits).SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// isQR reports whether v is a quadratic residue modulo both prime factors
// (hence modulo n). Requires gcd(v, n) = 1.
func (k *ClientKey) isQR(v *big.Int) bool {
	t := new(big.Int).Exp(v, k.e1, k.p1)
	if t.Cmp(one) != 0 {
		return false
	}
	t.Exp(v, k.e2, k.p2)
	return t.Cmp(one) == 0
}

// randomQR returns a uniform quadratic residue in Z_n^*.
func (k *ClientKey) randomQR(randSrc io.Reader) (*big.Int, error) {
	for {
		v, err := rand.Int(randSrc, k.N)
		if err != nil {
			return nil, err
		}
		if v.Sign() == 0 || new(big.Int).GCD(nil, nil, v, k.N).Cmp(one) != 0 {
			continue
		}
		v.Mul(v, v)
		v.Mod(v, k.N)
		return v, nil
	}
}

// randomQNR returns a uniform QNR with Jacobi symbol +1 (a non-residue
// that is indistinguishable from the QRs without the factorization).
func (k *ClientKey) randomQNR(randSrc io.Reader) (*big.Int, error) {
	for {
		v, err := rand.Int(randSrc, k.N)
		if err != nil {
			return nil, err
		}
		if v.Sign() == 0 || new(big.Int).GCD(nil, nil, v, k.N).Cmp(one) != 0 {
			continue
		}
		if big.Jacobi(v, k.N) == 1 && !k.isQR(v) {
			return v, nil
		}
	}
}

// residues returns n uniform 2^squarings-th power residues of Z_n^*
// (squarings >= 1), leaving slot skip — when it names one — nil. A
// one-word modulus — the shape every demo-sized key takes, selected by
// the modulus width exactly as the serving kernel selects it — draws them
// with word arithmetic; wider keys draw them one big.Int at a time.
func (k *ClientKey) residues(randSrc io.Reader, n, skip, squarings int) ([]*big.Int, error) {
	vals := make([]*big.Int, n)
	if nw := k.N.Bits(); len(nw) == 1 {
		return vals, wordResidues(randSrc, vals, skip, squarings, uint(nw[0]), uint(k.p1.Uint64()), uint(k.p2.Uint64()))
	}
	for j := range vals {
		if j == skip {
			continue
		}
		v, err := k.randomQR(randSrc)
		if err != nil {
			return nil, err
		}
		for s := 1; s < squarings; s++ {
			v.Mul(v, v)
			v.Mod(v, k.N)
		}
		vals[j] = v
	}
	return vals, nil
}

// selection returns one Kushilevitz-Ostrovsky selection vector: n group
// elements, uniform quadratic residues everywhere except a Jacobi-(+1)
// non-residue at target.
func (k *ClientKey) selection(randSrc io.Reader, n, target int) ([]*big.Int, error) {
	vals, err := k.residues(randSrc, n, target, 1)
	if err != nil {
		return nil, err
	}
	if vals[target], err = k.randomQNR(randSrc); err != nil {
		return nil, err
	}
	return vals, nil
}

// symbolSelection returns one packed selection vector: n encryptions
// y^m·x^256 with a fresh x each — of m = 0 (uniform 256-th powers)
// everywhere, and of m = 1 at target.
func (k *ClientKey) symbolSelection(randSrc io.Reader, n, target int) ([]*big.Int, error) {
	if k.y == nil {
		return nil, errNoPackingElement
	}
	vals, err := k.residues(randSrc, n, -1, packBits)
	if err != nil {
		return nil, err
	}
	t := new(big.Int).Mul(k.y, vals[target])
	vals[target] = t.Mod(t, k.N)
	return vals, nil
}

// errNoPackingElement refuses the packed level 2 and the seeded flat
// vector under a key GenerateKey did not draw (no y or v, p1 of unknown
// shape).
var errNoPackingElement = errors.New("pir: key has no packing element (not from GenerateKey)")

// wordResidues fills every slot of vals but skip with a uniform
// 2^squarings-th power residue modulo the one-word n = p1·p2, the
// word-arithmetic randomQR: candidates come from bulk reads of randSrc,
// masked to n's bit length and rejected outside [1, n) (exact rejection
// sampling, no modulo bias) or when a prime factor divides them, and the
// survivors are squared with one wide multiply and one divide per
// squaring. The values share one []big.Int and one []big.Word slab
// instead of three allocations each.
func wordResidues(randSrc io.Reader, vals []*big.Int, skip, squarings int, n, p1, p2 uint) error {
	ints := make([]big.Int, len(vals))
	words := make([]big.Word, len(vals))
	mask := ^uint(0) >> bits.LeadingZeros(n)
	var buf [4096]byte
	var chunk []byte
	for j := 0; j < len(vals); {
		if j == skip {
			j++
			continue
		}
		if len(chunk) == 0 {
			chunk = buf[:min(len(vals)-j, len(buf)/8)*8]
			if _, err := io.ReadFull(randSrc, chunk); err != nil {
				return err
			}
		}
		v := uint(binary.LittleEndian.Uint64(chunk)) & mask
		chunk = chunk[8:]
		if v == 0 || v >= n || v%p1 == 0 || v%p2 == 0 {
			continue
		}
		for s := 0; s < squarings; s++ {
			hi, lo := bits.Mul(v, v)
			_, v = bits.Div(hi, lo, n) // hi < n because v < n
		}
		words[j] = big.Word(v)
		vals[j] = ints[j].SetBits(words[j : j+1 : j+1])
		j++
	}
	return nil
}

// Query is the client→server message: one group element per column.
type Query struct {
	N      *big.Int
	Values []*big.Int
	// Seed is the compact form Values expand from, rotated Rot columns
	// up (Seed.Expand) — what the wire carries in their place
	// (internal/wire, TypePIRBatchQuery). A query without one, such as a
	// router's column slice, travels written out.
	Seed *Seed
	Rot  int
	// Height names the database the columns are: 0 is a store's block
	// array, one column per block, and h >= 1 its class view h, one column
	// of h blocks per document of that class (internal/docstore). The
	// wire carries class views only (internal/wire, TypePIRBatchQuery).
	Height int
}

// NewQuery builds a query retrieving column target out of cols columns.
func (k *ClientKey) NewQuery(randSrc io.Reader, cols, target int) (*Query, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if target < 0 || target >= cols {
		return nil, errors.New("pir: target column out of range")
	}
	vals, err := k.selection(randSrc, cols, target)
	if err != nil {
		return nil, err
	}
	return &Query{N: k.N, Values: vals}, nil
}

// NewSeededQuery is NewQuery in the compact form the wire can carry: a
// fresh seed read from randSrc, coded for the target and expanded — the
// same distribution of values, at the price of two residue symbols a
// column where NewQuery draws a residue, so only a vector that travels
// seeded is worth drawing this way. Every call draws its own seed: two
// vectors under one seed differ only in their codes, and the codes of
// two targets differ exactly at the two targets.
func (k *ClientKey) NewSeededQuery(randSrc io.Reader, cols, target int) (*Query, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if target < 0 || target >= cols {
		return nil, errors.New("pir: target column out of range")
	}
	if k.y == nil || k.v == nil {
		return nil, errNoPackingElement
	}
	s := &Seed{V: k.v, Z: k.y, Codes: make([]byte, (cols+3)/4)}
	for {
		if _, err := io.ReadFull(randSrc, s.Key[:]); err != nil {
			return nil, err
		}
		if k.code(s, cols, target) {
			break
		}
		clear(s.Codes)
	}
	q := &Query{N: k.N, Values: make([]*big.Int, cols), Seed: s}
	if err := s.Expand(k.N, q.Values, 0); err != nil {
		return nil, err
	}
	return q, nil
}

// SeedBytes is the size of a selection vector's seed: an AES-128 key.
const SeedBytes = 16

// Seed is the compact form of a flat selection vector: what
// NewSeededQuery draws, and what the wire carries instead of the vector's group
// elements. Its Key expands under AES-128-CTR into units y_j, uniform in
// [1, N) (unitStream), and column j's two-bit code (a_j, b_j) makes its
// value
//
//	u_j = y_j · V^a_j · Z^b_j mod N
//
// for two public multipliers: V of Jacobi symbol −1 and Z, the key's
// Jacobi-(+1) non-residue. The client sets a_j = [J(y_j, N) = −1], which
// makes y'_j = y_j·V^a_j a uniform unit of Jacobi symbol +1, and b_j =
// [y'_j is a non-residue] XOR [j = target], which makes u_j a uniform
// residue everywhere but the target and a uniform Jacobi-(+1)
// non-residue there: the distribution of a vector of fresh draws. The
// seed and every a_j are public coins; b_j is one residuosity bit per
// column, which the server cannot read without the factorization.
type Seed struct {
	// Key is the seed itself, the expansion's AES-128 key.
	Key [SeedBytes]byte
	// V and Z are the public multipliers.
	V, Z *big.Int
	// Codes holds column j's a_j in bit 2(j mod 4) of byte j/4 and its b_j
	// in the bit above; the bits past the last column are zero.
	Codes []byte
}

// Expand fills out with the vector s stands for under modulus n, rotated
// rot columns up: u_j lands at out[(j+rot) mod len(out)], where rot
// calls of Query.Next would move it. It is the one definition of the
// seeded form — NewSeededQuery builds a query's Values with it and the
// server's decoder (internal/wire) materialises a seeded frame with it —
// and it lays the values out in one big.Int slab over one word slab, each value
// a window of its own capacity. A multiplier or a value outside (0, n)
// is refused.
func (s *Seed) Expand(n *big.Int, out []*big.Int, rot int) error {
	width := len(out)
	if width == 0 || rot < 0 || rot >= width || len(s.Codes) != (width+3)/4 {
		return errors.New("pir: seed does not fit its vector")
	}
	if s.V == nil || s.Z == nil || s.V.Sign() <= 0 || s.V.Cmp(n) >= 0 || s.Z.Sign() <= 0 || s.Z.Cmp(n) >= 0 {
		return errors.New("pir: seed multiplier outside Z_n")
	}
	// mult[c] is what code c = a + 2b multiplies a unit by: V^a·Z^b.
	var mult [4]big.Int
	mult[0].SetInt64(1)
	mult[1].Set(s.V)
	mult[2].Set(s.Z)
	mult[3].Mul(s.V, s.Z).Mod(&mult[3], n)
	units := newUnitStream(n, &s.Key)
	nw := len(n.Bits())
	ints := make([]big.Int, width)
	words := make([]big.Word, width*nw)
	y := new(big.Int)
	at := rot
	for j := range out {
		c := s.Codes[j>>2] >> (2 * (j & 3)) & 3
		w := words[j*nw : (j+1)*nw : (j+1)*nw]
		if nw == 1 {
			u := units.word()
			if c != 0 {
				// u, mult[c] < n, so the high word is below n as Div needs.
				hi, lo := bits.Mul(u, uint(mult[c].Uint64()))
				_, u = bits.Div(hi, lo, uint(n.Bits()[0]))
			}
			w[0] = big.Word(u)
		} else {
			y.SetBytes(units.next())
			if c != 0 {
				y.Mul(y, &mult[c]).Mod(y, n)
			}
			clear(w)
			copy(w, y.Bits())
		}
		if ints[j].SetBits(w).Sign() == 0 {
			return fmt.Errorf("pir: seeded value %d outside Z_n", j)
		}
		out[at] = &ints[j]
		if at++; at == width {
			at = 0
		}
	}
	return nil
}

// unitStream reads a seed's units: AES-128-CTR under the seed (zero IV),
// cut into big-endian candidates of N's byte length, each masked to N's
// bit length and kept when it lies in [1, N) — exact rejection sampling,
// so each unit is uniform in [1, N) given a uniform keystream.
type unitStream struct {
	ctr        cipher.Stream
	block, buf []byte // the last keystream read, and what is left of it
	nb, zero   []byte // N and 0 as candidates
	top        byte   // the mask of a candidate's leading byte
}

func newUnitStream(n *big.Int, key *[SeedBytes]byte) *unitStream {
	blockCipher, _ := aes.NewCipher(key[:]) // cannot fail: the key is 16 bytes
	size := (n.BitLen() + 7) / 8
	return &unitStream{
		ctr:   cipher.NewCTR(blockCipher, make([]byte, aes.BlockSize)),
		block: make([]byte, max(1, 4096/size)*size),
		nb:    n.FillBytes(make([]byte, size)),
		zero:  make([]byte, size),
		top:   byte(0xff >> (8*size - n.BitLen())),
	}
}

// next returns the next unit as a big-endian magnitude of N's byte
// length, valid until the following call.
func (s *unitStream) next() []byte {
	size := len(s.nb)
	for {
		if len(s.buf) == 0 {
			clear(s.block)
			s.ctr.XORKeyStream(s.block, s.block)
			s.buf = s.block
		}
		c := s.buf[:size:size]
		s.buf = s.buf[size:]
		c[0] &= s.top
		if bytes.Compare(c, s.nb) < 0 && !bytes.Equal(c, s.zero) {
			return c
		}
	}
}

// word is next for a one-word N.
func (s *unitStream) word() uint {
	var u uint
	for _, b := range s.next() {
		u = u<<8 | uint(b)
	}
	return u
}

// code fills s.Codes for a vector on target out of width columns, from
// the Legendre symbols of each unit modulo p1 and p2: a_j says they
// differ (J(y_j, N) = −1), and y'_j = y_j·V^a_j is a non-residue when its
// symbol modulo p1 — y_j's times V's if a_j — is −1. Both primes of a
// demo-sized key fit a word, and the symbols then come from the
// decoders' Euler lanes (qrDecoder.powWords, branching on the key's
// exponent only) — p1's the key's cached decoder, p2's built per call;
// wider primes use big.Jacobi. It reports false — draw another seed —
// when a unit shares a factor with N: that unit would be public and would
// give the factor away.
func (k *ClientKey) code(s *Seed, width, target int) bool {
	units := newUnitStream(k.N, &s.Key)
	vNeg := big.Jacobi(new(big.Int).Mod(s.V, k.p1), k.p1) < 0
	d1, d2 := k.decoder(), wordEuler(k.p2, k.e2)
	if !d1.word {
		d1 = nil
	}
	var r1, r2 [256]uint
	var l1, l2 [256]int
	y, t := new(big.Int), new(big.Int)
	for lo := 0; lo < width; lo += len(l1) {
		n := min(len(l1), width-lo)
		if d1 != nil && d2 != nil {
			for j := range n {
				c := units.next()
				r1[j], r2[j] = d1.modPBytes(c), d2.modPBytes(c)
			}
			d1.powWords(r1[:n], d1.e)
			d2.powWords(r2[:n], d2.e)
			for j := range n {
				l1[j], l2[j] = d1.eulerSign(r1[j]), d2.eulerSign(r2[j])
			}
		} else {
			for j := range n {
				y.SetBytes(units.next())
				l1[j] = big.Jacobi(t.Mod(y, k.p1), k.p1)
				l2[j] = big.Jacobi(t.Mod(y, k.p2), k.p2)
			}
		}
		for j := range n {
			if l1[j] == 0 || l2[j] == 0 {
				return false
			}
			a := l1[j] != l2[j]
			var c byte
			if a {
				c = 1
			}
			if qnr := (l1[j] < 0) != (a && vNeg); qnr != (lo+j == target) {
				c |= 2
			}
			s.Codes[(lo+j)>>2] |= c << (2 * ((lo + j) & 3))
		}
	}
	return true
}

// wordEuler is the decoders' word Euler kernel for the prime p and its
// exponent e = (p−1)/2, or nil when either does not fit a word.
func wordEuler(p, e *big.Int) *qrDecoder {
	m, err := NewMont(p)
	if err != nil || m.Words() != 1 || len(e.Bits()) != 1 {
		return nil
	}
	d := &qrDecoder{word: true, p: uint(m.n[0]), pinv: uint(m.n0inv), prr: uint(m.rr[0]), e: uint(e.Bits()[0])}
	d.pone = montMulWord(1, d.prr, d.p, d.pinv)
	return d
}

// eulerSign reads an Euler power in Montgomery form as the Legendre
// symbol it is: 1, −1, or 0 for a multiple of the prime.
func (d *qrDecoder) eulerSign(pow uint) int {
	switch pow {
	case d.pone:
		return 1
	case 0:
		return 0
	}
	return -1
}

// Next returns q rotated one column up: the same group elements — no
// randomness is drawn and no element is copied — with
// Next().Values[j] = q.Values[(j-1) mod n], so a query whose non-residue
// sits at column b becomes the query for column b+1 (and the last
// column wraps to the first); a seeded query keeps its Seed, one Rot on.
// A server can do this for itself, which is what lets the consecutive
// blocks of one document travel as one vector (internal/wire,
// TypePIRBatchQuery). The rotation is a public permutation of elements
// the server already holds: it reveals that the blocks are adjacent,
// which the block count of a document always did.
func (q *Query) Next() *Query {
	n := len(q.Values)
	vals := make([]*big.Int, n)
	vals[0] = q.Values[n-1]
	copy(vals[1:], q.Values)
	next := &Query{N: q.N, Values: vals, Seed: q.Seed, Height: q.Height}
	if q.Seed != nil {
		next.Rot = (q.Rot + 1) % n
	}
	return next
}

// Follows reports whether q is prev.Next(): the very elements of prev,
// pointer for pointer, one column up over the full cycle, over the same
// database (Height). It is an identity, not a comparison of values —
// two vectors that merely agree on some window (a router's slice of a
// rotation, say) do not follow one another unless every element does.
func (q *Query) Follows(prev *Query) bool {
	n := len(q.Values)
	if n == 0 || n != len(prev.Values) || q.Height != prev.Height || q.Values[0] != prev.Values[n-1] {
		return false
	}
	for j, v := range q.Values[1:] {
		if v != prev.Values[j] {
			return false
		}
	}
	return true
}

// Answer is the server→client message, in the form the wire carries it
// (internal/wire, TypePIRBatchResponse): Image holds one group element per
// row — a gamma, or a recursive answer's level-2 ciphertext — at Width
// bytes each, big-endian, back to back. Width is the byte length of the
// modulus. The executors write the image where they compute it, the
// writer frames it as it is, and the decoders read it where it lies.
type Answer struct {
	Width int
	Image []byte
}

// newAnswer returns an answer of rows zero gammas at n's byte length.
func newAnswer(n *big.Int, rows int) *Answer {
	width := (n.BitLen() + 7) / 8
	return &Answer{Width: width, Image: make([]byte, rows*width)}
}

// Count returns the number of gammas a holds.
func (a *Answer) Count() int {
	if a.Width <= 0 {
		return 0
	}
	return len(a.Image) / a.Width
}

// gamma returns gamma i's bytes.
func (a *Answer) gamma(i int) []byte { return a.Image[i*a.Width : (i+1)*a.Width] }

// Stats records the server-side work of one Answer computation, for the
// cost models in the Figure 7/8 experiments.
type Stats struct {
	ModMuls int // KeyLen-bit modular multiplications performed
	// TableMuls is the subset of ModMuls spent on per-query setup
	// rather than the row scan: column squares, subset-product table
	// construction, and Montgomery conversions in and out. Batch
	// serving attributes each query's own setup to that query, so
	// summing Stats across a batch never double-counts and
	// ModMuls − TableMuls is exactly the scan cost.
	TableMuls int
}

// ProcessColumnsCtx computes the server response γ_r = Π_j v_rj, with
// v_rj = q_j when bit (r, j) is 1 and q_j² when it is 0, over a database
// given as one byte slice per column: bit (r, j) is bit 7−r%8 of
// cols[j][r/8], most significant bit first. Column j must hold at least
// colBytes bytes; the database has colBytes*8 rows. It is the sequential oracle of
// the column layout — one modular multiplication per database bit, the
// paper's Section 5.2 cost model — that the conformance battery holds
// the executor (exec.go) to gamma for gamma; nothing serves through it.
//
// The row scan checks ctx once per row and stops mid-database when the
// context is cancelled or its deadline expires, returning ctx.Err()
// with the Stats of the work actually performed. The partially-computed
// answer is discarded — a half-product leaks nothing but is useless to
// the client.
func ProcessColumnsCtx(ctx context.Context, cols [][]byte, colBytes int, q *Query) (*Answer, Stats, error) {
	if err := validateColumns(cols, colBytes, q); err != nil {
		return nil, Stats{}, err
	}
	sq := make([]*big.Int, len(cols))
	var st Stats
	for j, v := range q.Values {
		sq[j] = new(big.Int).Mul(v, v)
		sq[j].Mod(sq[j], q.N)
		st.ModMuls++
		st.TableMuls++
	}
	rows := colBytes * 8
	ans := newAnswer(q.N, rows)
	poll := newScanPoll(ctx)
	g := new(big.Int)
	for r := 0; r < rows; r++ {
		if poll.stopped() {
			return nil, st, poll.err()
		}
		byteIdx, mask := r>>3, byte(1)<<(7-r&7)
		g.SetInt64(1)
		for j := range cols {
			if cols[j][byteIdx]&mask != 0 {
				g.Mul(g, q.Values[j])
			} else {
				g.Mul(g, sq[j])
			}
			g.Mod(g, q.N)
			st.ModMuls++
		}
		g.FillBytes(ans.gamma(r))
	}
	return ans, st, nil
}

// Decode recovers the target column's bits from the answer: bit i is 1
// exactly when γ_i is a quadratic non-residue. It is DecodeImage for an
// answer whose row count need not fill whole bytes.
//
// The test is the key's cached residue kernel (decodeColumn: four Euler
// tests in lock step, on GOMAXPROCS workers), shared with
// DecodeRecursive. For keys with a one-word p1 it is a single-prime Euler
// test — exact for every gamma a server can derive from an honest query
// (every value sent has equal quadratic character modulo both primes, and
// products preserve that); a forged gamma may decode to a
// wrong bit, which is garbage the per-document CRC of the fetch path
// already rejects, never a key leak. It is also one fixed-length
// square-and-multiply chain per gamma, so decoding costs the same for a
// 0-bit and a 1-bit: the two-prime isQR it replaced (and that wider keys
// still run) stops after the first prime on a non-residue, which made
// the client's think-time before its next frame grow with the number of
// 0-bits in the block it had just fetched.
func (k *ClientKey) Decode(ans *Answer) []bool {
	rows := ans.Count()
	column := make([]byte, (rows+7)/8)
	k.decodeColumn(ans, rows, column)
	return columnBits(column, rows)
}

// columnBits is ColumnBytes undone: the first rows bits of column.
func columnBits(column []byte, rows int) []bool {
	bits := make([]bool, rows)
	for i := range bits {
		bits[i] = column[i>>3]&(0x80>>(i&7)) != 0
	}
	return bits
}

// DecodeImage is Decode over a packed answer where it lies: image holds
// 8·len(column) gammas of width big-endian bytes each, back to back (an
// Answer's Image, or a type-13 frame's body), and their bits go straight
// into column, MSB-first — the bytes ColumnBytes(Decode(ans)) would
// return, without a []bool in between. Every byte of column is written.
func (k *ClientKey) DecodeImage(image []byte, width int, column []byte) error {
	if width <= 0 || len(image) != 8*len(column)*width {
		return fmt.Errorf("pir: a %d-byte image is not %d gammas of %d bytes", len(image), 8*len(column), width)
	}
	k.decodeColumn(&Answer{Width: width, Image: image}, 8*len(column), column)
	return nil
}

// QueryBytes returns the size in bytes of a query with the given number
// of columns under this key (cols group elements of |n| bits).
func (k *ClientKey) QueryBytes(cols int) int {
	return cols * ((k.N.BitLen() + 7) / 8)
}

// AnswerBytes returns the size in bytes of an answer for a matrix with
// the given number of rows (rows group elements of |n| bits).
func (k *ClientKey) AnswerBytes(rows int) int {
	return rows * ((k.N.BitLen() + 7) / 8)
}
