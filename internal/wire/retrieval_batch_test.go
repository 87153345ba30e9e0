package wire

import (
	"bytes"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

func batchTestQueries(t *testing.T, n, cols int) []*pir.Query {
	t.Helper()
	key, err := pir.GenerateKey(detrand.New("batch-wire"), 96)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*pir.Query, n)
	for i := range qs {
		qs[i], err = key.NewQuery(detrand.New(fmt.Sprintf("batch-wire-%d", i)), cols, i%cols)
		if err != nil {
			t.Fatal(err)
		}
		qs[i].Height = 1 + i%2
	}
	return qs
}

func TestPIRBatchQueryRoundTrip(t *testing.T) {
	qs := batchTestQueries(t, 3, 5)
	var buf bytes.Buffer
	if err := WritePIRBatchQuery(&buf, qs); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil || typ != TypePIRBatchQuery {
		t.Fatalf("type %d, err %v", typ, err)
	}
	got, err := DecodePIRBatchQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("decoded %d queries, want %d", len(got), len(qs))
	}
	for i, q := range got {
		if q.N.Cmp(qs[i].N) != 0 || len(q.Values) != len(qs[i].Values) || q.Height != qs[i].Height {
			t.Fatalf("query %d shape mismatch", i)
		}
		for j, v := range q.Values {
			if v.Cmp(qs[i].Values[j]) != 0 {
				t.Fatalf("query %d value %d mismatch", i, j)
			}
		}
	}
}

func TestPIRBatchAnswerRoundTrip(t *testing.T) {
	a := imageOf(big.NewInt(101), big.NewInt(7), big.NewInt(1), big.NewInt(99))
	var buf bytes.Buffer
	if err := WritePIRBatchAnswerPacked(&buf, 5, a, big.NewInt(101)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil || typ != TypePIRBatchResponse {
		t.Fatalf("type %d, err %v", typ, err)
	}
	idx, got, err := DecodePIRBatchAnswer(body)
	if err != nil || idx != 5 {
		t.Fatalf("index %d, err %v", idx, err)
	}
	if got.Width != a.Width || !bytes.Equal(got.Image, a.Image) {
		t.Fatalf("decoded %x, want %x", got.Image, a.Image)
	}
}

func TestPIRBatchWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePIRBatchQuery(&buf, nil); err == nil {
		t.Fatal("empty batch written")
	}
	qs := batchTestQueries(t, 2, 3)
	// Mixed moduli must be refused: the frame carries ONE modulus.
	other, err := pir.GenerateKey(detrand.New("batch-wire-other"), 96)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := other.NewQuery(detrand.New("ow"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	q2.Height = 1
	if err := WritePIRBatchQuery(&buf, []*pir.Query{qs[0], q2}); err == nil ||
		!strings.Contains(err.Error(), "different modulus") {
		t.Fatalf("mixed-modulus batch written: %v", err)
	}
	oversized := make([]*pir.Query, MaxPIRBatch+1)
	for i := range oversized {
		oversized[i] = qs[0]
	}
	if err := WritePIRBatchQuery(&buf, oversized); err == nil {
		t.Fatal("oversized batch written")
	}
	// Every entry names a class view: the block array is not served.
	blocks := *qs[1]
	blocks.Height = 0
	if err := WritePIRBatchQuery(&buf, []*pir.Query{qs[0], &blocks}); err == nil ||
		!strings.Contains(err.Error(), "height 0") {
		t.Fatalf("height-0 entry written: %v", err)
	}
	if err := WritePIRBatchAnswerPacked(&buf, MaxPIRBatch, imageOf(b(35), b(1)), b(35)); err == nil {
		t.Fatal("out-of-range answer index written")
	}
	if err := WritePIRBatchAnswerPacked(&buf, 0, &pir.Answer{}, b(35)); err == nil {
		t.Fatal("empty answer written")
	}
}

func b(v int64) *big.Int { return big.NewInt(v) }

// encodeBatch builds a hand-rolled written-out batch body for decoder
// attacks, every vector entry at height 1.
func encodeBatch(n *big.Int, counts []uint64, values [][]*big.Int) []byte {
	var body []byte
	body = appendBig(body, n)
	body = vbyte.Append(body, uint64(len(counts)))
	for i, c := range counts {
		body = vbyte.Append(body, c)
		if c != 0 {
			body = vbyte.Append(body, 1)
		}
		for _, v := range values[i] {
			body = appendBig(body, v)
		}
	}
	return body
}

func TestPIRBatchDecoderRejections(t *testing.T) {
	n := b(35) // 5*7, tiny but structurally fine
	cases := map[string][]byte{
		"empty":      {},
		"zero count": encodeBatch(n, nil, nil),
		"forged value count": encodeBatch(n, []uint64{1 << 20},
			[][]*big.Int{{b(2)}}),
		"value outside Zn": encodeBatch(n, []uint64{1}, [][]*big.Int{{b(35)}}),
		"zero value":       encodeBatch(n, []uint64{1}, [][]*big.Int{{b(0)}}),
		"trailing bytes": append(encodeBatch(n, []uint64{1},
			[][]*big.Int{{b(2)}}), 0xFF),
		"wide modulus": encodeBatch(new(big.Int).Lsh(b(1), 8*maxPIRModulusBytes+8),
			[]uint64{1}, [][]*big.Int{{b(2)}}),
	}
	// Over-cap batch count.
	var over []byte
	over = appendBig(over, n)
	over = vbyte.Append(over, MaxPIRBatch+1)
	cases["over-cap count"] = over
	for name, body := range cases {
		if _, err := DecodePIRBatchQuery(body); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Answer-side rejections.
	if _, _, err := DecodePIRBatchAnswer(vbyte.Append(vbyte.Append(nil, MaxPIRBatch), 0)); err == nil {
		t.Error("out-of-range answer index accepted")
	}
	if _, _, err := DecodePIRBatchAnswer(appendPrefixed(vbyte.Append(nil, 0), b(3))); err == nil {
		t.Error("length-prefixed answer accepted")
	}
	forged := vbyte.Append(vbyte.Append(vbyte.Append(vbyte.Append(nil, 0), 0), 8), 1<<30)
	if _, _, err := DecodePIRBatchAnswer(forged); err == nil {
		t.Error("forged gamma count accepted")
	}
}

// BenchmarkPIRBatchRoundTrip frames, reads back and decodes what one
// flat fetch of the repository benchmark puts on the wire: a six-query
// batch over 6,029 blocks under a 64-bit key, and one 8,192-gamma answer.
func BenchmarkPIRBatchRoundTrip(b *testing.B) {
	key, err := pir.GenerateKey(detrand.New("bench-wire"), 64)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]*pir.Query, 6)
	for i := range qs {
		if qs[i], err = key.NewQuery(nil, 6029, i); err != nil {
			b.Fatal(err)
		}
		qs[i].Height = 1
	}
	var gammas []*big.Int
	for len(gammas) < 8192 {
		gammas = append(gammas, qs[len(gammas)/2048%6].Values[:2048]...)
	}
	ans := imageOf(key.N, gammas...)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WritePIRBatchQuery(&buf, qs); err != nil {
			b.Fatal(err)
		}
		if err := WritePIRBatchAnswerPacked(&buf, 0, ans, key.N); err != nil {
			b.Fatal(err)
		}
		_, body, err := ReadMessage(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodePIRBatchQuery(body); err != nil {
			b.Fatal(err)
		}
		if _, body, err = ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodePIRBatchAnswer(body); err != nil {
			b.Fatal(err)
		}
	}
}
