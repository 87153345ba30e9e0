package pir

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

type detRand struct {
	state [32]byte
	buf   bytes.Buffer
}

func newDetRand(seed string) *detRand {
	return &detRand{state: sha256.Sum256([]byte(seed))}
}

func (d *detRand) Read(p []byte) (int, error) {
	for d.buf.Len() < len(p) {
		d.state = sha256.Sum256(d.state[:])
		d.buf.Write(d.state[:])
	}
	return d.buf.Read(p)
}

var cachedKey *ClientKey

func testKey(t *testing.T) *ClientKey {
	t.Helper()
	if cachedKey == nil {
		k, err := GenerateKey(newDetRand("pir-test"), 192)
		if err != nil {
			t.Fatal(err)
		}
		cachedKey = k
	}
	return cachedKey
}

// TestColumnBytesRoundTrip: ColumnBytes packs a column's bits MSB
// first, the layout the column stores hold and columnBits reads.
func TestColumnBytesRoundTrip(t *testing.T) {
	data := []byte{0xA5, 0x3C, 0xFF, 0x00, 0x81}
	bits := columnBits(data, len(data)*8)
	if !bits[0] || bits[1] || !bits[7] || bits[8] {
		t.Fatalf("columnBits(%x) is not MSB first: %v", data, bits[:9])
	}
	if got := ColumnBytes(bits); !bytes.Equal(got, data) {
		t.Fatalf("column round trip: got %x, want %x", got, data)
	}
}

func TestQRQNRClassification(t *testing.T) {
	k := testKey(t)
	rnd := newDetRand("qrs")
	for i := 0; i < 10; i++ {
		qr, err := k.randomQR(rnd)
		if err != nil {
			t.Fatal(err)
		}
		if !k.isQR(qr) {
			t.Fatal("randomQR produced a non-residue")
		}
		qnr, err := k.randomQNR(rnd)
		if err != nil {
			t.Fatal(err)
		}
		if k.isQR(qnr) {
			t.Fatal("randomQNR produced a residue")
		}
		if big.Jacobi(qnr, k.N) != 1 {
			t.Fatal("QNR has Jacobi symbol != 1 (distinguishable without the key)")
		}
	}
}

func TestRetrieveColumn(t *testing.T) {
	k := testKey(t)
	rnd := newDetRand("retrieve")
	colBytes, width := 8, 5
	cols := make([][]byte, width)
	rng := rand.New(rand.NewSource(77))
	for c := range cols {
		cols[c] = make([]byte, colBytes)
		rng.Read(cols[c])
	}
	for target := 0; target < width; target++ {
		q, err := k.NewQuery(rnd, width, target)
		if err != nil {
			t.Fatal(err)
		}
		ans, st, err := ProcessColumnsCtx(context.Background(), cols, colBytes, q)
		if err != nil {
			t.Fatal(err)
		}
		if st.ModMuls == 0 {
			t.Fatal("no work recorded")
		}
		if got := ColumnBytes(k.Decode(ans)); !bytes.Equal(got, cols[target]) {
			t.Fatalf("column %d: got %x, want %x", target, got, cols[target])
		}
	}
}

func TestQueryWidthValidation(t *testing.T) {
	k := testKey(t)
	q, err := k.NewQuery(newDetRand("w"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cols := [][]byte{{0}, {0}, {0}, {0}}
	if _, _, err := ProcessColumnsMultiExecCtx(context.Background(), cols, 1, []*Query{q}, Exec{}); err == nil {
		t.Fatal("mismatched query width accepted")
	}
	if _, err := k.NewQuery(newDetRand("w"), 4, 7); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := k.NewSeededQuery(newDetRand("w"), 4, 4); err == nil {
		t.Fatal("out-of-range seeded target accepted")
	}
}

func TestTrafficAccounting(t *testing.T) {
	k := testKey(t)
	nb := (k.N.BitLen() + 7) / 8
	if k.QueryBytes(10) != 10*nb {
		t.Fatalf("QueryBytes = %d", k.QueryBytes(10))
	}
	if k.AnswerBytes(16) != 16*nb {
		t.Fatalf("AnswerBytes = %d", k.AnswerBytes(16))
	}
}

func TestServerWorkScalesWithMatrix(t *testing.T) {
	k := testKey(t)
	q, err := k.NewQuery(newDetRand("work"), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	work := func(colBytes int) int {
		cols := make([][]byte, 4)
		for c := range cols {
			cols[c] = make([]byte, colBytes)
		}
		_, st, err := ProcessColumnsCtx(context.Background(), cols, colBytes, q)
		if err != nil {
			t.Fatal(err)
		}
		return st.ModMuls
	}
	if small, large := work(1), work(8); large <= small {
		t.Fatalf("work did not scale: %d vs %d", small, large)
	}
}

// Property: retrieval is correct for arbitrary bit patterns and targets.
func TestRetrieveProperty(t *testing.T) {
	k := testKey(t)
	rnd := newDetRand("prop")
	f := func(pattern []byte, colRaw uint8) bool {
		if len(pattern) == 0 {
			return true
		}
		if len(pattern) > 8 {
			pattern = pattern[:8]
		}
		width := 3
		target := int(colRaw) % width
		cols := make([][]byte, width)
		for c := range cols {
			cols[c] = make([]byte, len(pattern))
		}
		copy(cols[target], pattern)
		q, err := k.NewQuery(rnd, width, target)
		if err != nil {
			return false
		}
		ans, _, err := ProcessColumnsCtx(context.Background(), cols, len(pattern), q)
		if err != nil {
			return false
		}
		return bytes.Equal(ColumnBytes(k.Decode(ans)), pattern)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessColumnsValidation(t *testing.T) {
	k := testKey(t)
	cols := [][]byte{make([]byte, 4), make([]byte, 4)}
	q, err := k.NewQuery(newDetRand("cols-bad"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ProcessColumnsCtx(context.Background(), cols, 4, q); err == nil {
		t.Fatal("width mismatch accepted")
	}
	q2, err := k.NewQuery(newDetRand("cols-bad2"), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ProcessColumnsCtx(context.Background(), cols, 0, q2); err == nil {
		t.Fatal("zero column size accepted")
	}
	if _, _, err := ProcessColumnsCtx(context.Background(), [][]byte{make([]byte, 2), make([]byte, 4)}, 4, q2); err == nil {
		t.Fatal("short column accepted")
	}
}
