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

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix(10, 7)
	m.Set(3, 4, true)
	m.Set(9, 6, true)
	if !m.Get(3, 4) || !m.Get(9, 6) || m.Get(0, 0) {
		t.Fatal("bit matrix get/set broken")
	}
	m.Set(3, 4, false)
	if m.Get(3, 4) {
		t.Fatal("clear failed")
	}
}

func TestSetColumnRoundTrip(t *testing.T) {
	data := []byte{0xA5, 0x3C, 0xFF, 0x00, 0x81}
	m := NewMatrix(len(data)*8, 3)
	m.SetColumn(1, data)
	bits := make([]bool, m.Rows)
	for r := 0; r < m.Rows; r++ {
		bits[r] = m.Get(r, 1)
	}
	got := ColumnBytes(bits)
	if !bytes.Equal(got, data) {
		t.Fatalf("column round trip: got %x, want %x", got, data)
	}
	// Other columns untouched.
	for r := 0; r < m.Rows; r++ {
		if m.Get(r, 0) || m.Get(r, 2) {
			t.Fatal("SetColumn leaked into neighboring column")
		}
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
	rows, cols := 64, 5
	m := NewMatrix(rows, cols)
	rng := rand.New(rand.NewSource(77))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, rng.Intn(2) == 1)
		}
	}
	for target := 0; target < cols; target++ {
		q, err := k.NewQuery(rnd, cols, target)
		if err != nil {
			t.Fatal(err)
		}
		ans, st, err := m.Process(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.ModMuls == 0 {
			t.Fatal("no work recorded")
		}
		bits := k.Decode(ans)
		for r := 0; r < rows; r++ {
			if bits[r] != m.Get(r, target) {
				t.Fatalf("column %d row %d: got %v, want %v", target, r, bits[r], m.Get(r, target))
			}
		}
	}
}

func TestQueryWidthValidation(t *testing.T) {
	k := testKey(t)
	m := NewMatrix(8, 4)
	q, err := k.NewQuery(newDetRand("w"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Process(q); err == nil {
		t.Fatal("mismatched query width accepted")
	}
	if _, err := k.NewQuery(newDetRand("w"), 4, 7); err == nil {
		t.Fatal("out-of-range target accepted")
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
	rnd := newDetRand("work")
	small := NewMatrix(8, 4)
	large := NewMatrix(64, 4)
	q, _ := k.NewQuery(rnd, 4, 1)
	_, stS, _ := small.Process(q)
	_, stL, _ := large.Process(q)
	if stL.ModMuls <= stS.ModMuls {
		t.Fatalf("work did not scale: %d vs %d", stS.ModMuls, stL.ModMuls)
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
		cols := 3
		target := int(colRaw) % cols
		m := NewMatrix(len(pattern)*8, cols)
		m.SetColumn(target, pattern)
		q, err := k.NewQuery(rnd, cols, target)
		if err != nil {
			return false
		}
		ans, _, err := m.Process(q)
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
