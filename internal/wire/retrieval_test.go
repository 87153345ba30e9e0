package wire

import (
	"bytes"
	"context"
	"math/big"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/docstore"
	"embellish/internal/pir"
)

func testParams() docstore.Params {
	return docstore.Params{
		BlockSize: 64,
		NumBlocks: 7,
		Exts: []docstore.Extent{
			{First: 0, Blocks: 2, Length: 100},
			{First: 2, Blocks: 1, Length: 33, Deleted: true},
			{First: 3, Blocks: 4, Length: 200},
		},
	}
}

func roundTripFrame(t *testing.T, write func(w *bytes.Buffer) error, wantType byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wantType {
		t.Fatalf("type %d, want %d", typ, wantType)
	}
	return body
}

func TestPIRParamsRoundTrip(t *testing.T) {
	want := testParams()
	body := roundTripFrame(t, func(w *bytes.Buffer) error { return WritePIRParams(w, want) }, TypePIRParams)
	got, err := DecodePIRParams(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockSize != want.BlockSize || got.NumBlocks != want.NumBlocks || len(got.Exts) != len(want.Exts) {
		t.Fatalf("shape mismatch: %+v", got)
	}
	for i := range want.Exts {
		if got.Exts[i] != want.Exts[i] {
			t.Fatalf("extent %d: %+v, want %+v", i, got.Exts[i], want.Exts[i])
		}
	}
	// The empty request frame reads back as TypePIRParams with no body.
	reqBody := roundTripFrame(t, func(w *bytes.Buffer) error { return WritePIRParamsRequest(w) }, TypePIRParams)
	if len(reqBody) != 0 {
		t.Fatalf("params request carries %d body bytes", len(reqBody))
	}
}

func TestPIRParamsRejectsBadExtents(t *testing.T) {
	for name, p := range map[string]docstore.Params{
		"outside block array": {BlockSize: 8, NumBlocks: 2, Exts: []docstore.Extent{{First: 1, Blocks: 2, Length: 10}}},
		"length over blocks":  {BlockSize: 8, NumBlocks: 4, Exts: []docstore.Extent{{First: 0, Blocks: 1, Length: 9}}},
	} {
		var buf bytes.Buffer
		if err := WritePIRParams(&buf, p); err != nil {
			t.Fatal(err)
		}
		_, body, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePIRParams(body); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// oneQuery frames q as the one entry of a type-12 frame and returns the
// body.
func oneQuery(t *testing.T, q *pir.Query) []byte {
	t.Helper()
	return roundTripFrame(t, func(w *bytes.Buffer) error { return WritePIRBatchQuery(w, []*pir.Query{q}) }, TypePIRBatchQuery)
}

// TestPIRQueryRoundTrip: one query travels as the one entry of a type-12
// frame, written out or seeded, and decodes to its values.
func TestPIRQueryRoundTrip(t *testing.T) {
	key, err := pir.GenerateKey(detrand.New("pirq"), 96)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := key.NewSeededQuery(detrand.New("pirq-vals"), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeded.Height = 2
	for _, want := range []*pir.Query{{N: seeded.N, Values: seeded.Values, Height: 2}, seeded} {
		got, err := DecodePIRBatchQuery(oneQuery(t, want))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].N.Cmp(want.N) != 0 || len(got[0].Values) != len(want.Values) || (got[0].Seed == nil) != (want.Seed == nil) || got[0].Height != 2 {
			t.Fatalf("query shape mismatch")
		}
		for i := range want.Values {
			if got[0].Values[i].Cmp(want.Values[i]) != 0 {
				t.Fatalf("value %d differs", i)
			}
		}
	}
}

// TestPIRQueryRejectsHostileInputs: the decoder of a one-query frame
// refuses a value outside Z_n, a modulus past the serving-cost ceiling
// and trailing bytes.
func TestPIRQueryRejectsHostileInputs(t *testing.T) {
	key, err := pir.GenerateKey(detrand.New("pirq-bad"), 96)
	if err != nil {
		t.Fatal(err)
	}
	q, err := key.NewQuery(detrand.New("pirq-bad-vals"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.Height = 1
	// Value outside Z_n.
	bad := &pir.Query{N: q.N, Values: []*big.Int{big.NewInt(0).Set(q.N), q.Values[1], q.Values[2]}, Height: 1}
	if _, err := DecodePIRBatchQuery(oneQuery(t, bad)); err == nil {
		t.Fatal("value >= N accepted")
	}
	// Oversized modulus: CPU-exhaustion gate.
	huge := new(big.Int).Lsh(big.NewInt(1), 8*maxPIRModulusBytes+1)
	bad = &pir.Query{N: huge, Values: []*big.Int{big.NewInt(2)}, Height: 1}
	if _, err := DecodePIRBatchQuery(oneQuery(t, bad)); err == nil {
		t.Fatal("oversized modulus accepted")
	}
	// Trailing garbage.
	if _, err := DecodePIRBatchQuery(append(oneQuery(t, q), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestPIRAnswerRoundTrip: an answer travels packed and decodes to its
// image; a truncated one is refused.
func TestPIRAnswerRoundTrip(t *testing.T) {
	n := big.NewInt(1 << 40)
	want := imageOf(n, big.NewInt(17), big.NewInt(1), big.NewInt(123456789))
	body := roundTripFrame(t, func(w *bytes.Buffer) error {
		return WritePIRBatchAnswerPacked(w, 0, want, n)
	}, TypePIRBatchResponse)
	_, got, err := DecodePIRBatchAnswer(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != want.Width || !bytes.Equal(got.Image, want.Image) {
		t.Fatalf("decoded %d gammas %x, want %x", got.Count(), got.Image, want.Image)
	}
	if _, _, err := DecodePIRBatchAnswer(body[:len(body)-1]); err == nil {
		t.Fatal("truncated answer accepted")
	}
}

// TestPIRFetchOverWire runs the whole PIR exchange through the wire
// codecs: params, a one-query frame per column of the document's class
// view and its packed answer, byte-exact decode.
func TestPIRFetchOverWire(t *testing.T) {
	s, err := docstore.New(8)
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{
		[]byte("the first document"),
		[]byte("dead"),
		[]byte("the third, rather longer, document body"),
	}
	for i, d := range docs {
		if err := s.Add(i, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()

	var wireBuf bytes.Buffer
	if err := WritePIRParams(&wireBuf, sn.Params()); err != nil {
		t.Fatal(err)
	}
	_, body, err := ReadMessage(&wireBuf)
	if err != nil {
		t.Fatal(err)
	}
	params, err := DecodePIRParams(body)
	if err != nil {
		t.Fatal(err)
	}

	key, err := pir.GenerateKey(detrand.New("wire-fetch"), 128)
	if err != nil {
		t.Fatal(err)
	}
	ext := params.Exts[2]
	layout := params.Layout()
	h, col, k := layout.Place(2)
	var got []byte
	for j := 0; j < k; j++ {
		q, err := key.NewQuery(detrand.New("wire-fetch-q"), layout.Widths()[h], col+j)
		if err != nil {
			t.Fatal(err)
		}
		q.Height = h
		sq, err := DecodePIRBatchQuery(oneQuery(t, q))
		if err != nil {
			t.Fatal(err)
		}
		answers, _, err := sn.AnswerMultiExecCtx(context.Background(), sq, pir.Exec{})
		if err != nil {
			t.Fatal(err)
		}
		abody := roundTripFrame(t, func(w *bytes.Buffer) error {
			return WritePIRBatchAnswerPacked(w, 0, answers[0], sq[0].N)
		}, TypePIRBatchResponse)
		_, ca, err := DecodePIRBatchAnswer(abody)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pir.ColumnBytes(key.Decode(ca))[:layout.ColumnBytes(h)]...)
	}
	if !bytes.Equal(got[:ext.Length], docs[2]) {
		t.Fatalf("fetched %q, want %q", got[:ext.Length], docs[2])
	}
	// The deleted document's extent says so; a client must refuse it.
	if !params.Exts[1].Deleted {
		t.Fatal("deleted document not flagged in params")
	}
}
