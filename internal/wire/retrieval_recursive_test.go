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

func recursiveTestQueries(t *testing.T, n, width int) []*pir.RecursiveQuery {
	t.Helper()
	key, err := pir.GenerateKey(detrand.New("rec-wire"), 96)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*pir.RecursiveQuery, n)
	for i := range qs {
		qs[i], err = key.NewRecursiveQuery(detrand.New(fmt.Sprintf("rec-wire-%d", i)), width, i%width)
		if err != nil {
			t.Fatal(err)
		}
	}
	return qs
}

func TestPIRRecursiveQueryRoundTrip(t *testing.T) {
	qs := recursiveTestQueries(t, 3, 30)
	var buf bytes.Buffer
	if err := WritePIRRecursiveQuery(&buf, qs); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil || typ != TypePIRRecursiveQuery {
		t.Fatalf("type %d, err %v", typ, err)
	}
	got, err := DecodePIRRecursiveQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("decoded %d queries, want %d", len(got), len(qs))
	}
	for i, q := range got {
		if q.N.Cmp(qs[i].N) != 0 || q.Width != qs[i].Width || q.GridCols != qs[i].GridCols ||
			len(q.Rows) != len(qs[i].Rows) || len(q.Cols) != len(qs[i].Cols) {
			t.Fatalf("query %d shape mismatch", i)
		}
		for j, v := range q.Rows {
			if v.Cmp(qs[i].Rows[j]) != 0 {
				t.Fatalf("query %d row value %d mismatch", i, j)
			}
		}
		for j, v := range q.Cols {
			if v.Cmp(qs[i].Cols[j]) != 0 {
				t.Fatalf("query %d col value %d mismatch", i, j)
			}
		}
	}
}

func TestPIRRecursiveWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePIRRecursiveQuery(&buf, nil); err == nil {
		t.Fatal("empty batch written")
	}
	qs := recursiveTestQueries(t, 2, 12)
	oversized := make([]*pir.RecursiveQuery, MaxPIRRecursiveBatch+1)
	for i := range oversized {
		oversized[i] = qs[0]
	}
	if err := WritePIRRecursiveQuery(&buf, oversized); err == nil {
		t.Fatal("oversized batch written")
	}
	if err := WritePIRRecursiveQuery(&buf, []*pir.RecursiveQuery{qs[0], nil}); err == nil {
		t.Fatal("nil query written")
	}
	other, err := pir.GenerateKey(detrand.New("rec-wire-other"), 96)
	if err != nil {
		t.Fatal(err)
	}
	oq, err := other.NewRecursiveQuery(detrand.New("rec-ow"), 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePIRRecursiveQuery(&buf, []*pir.RecursiveQuery{qs[0], oq}); err == nil ||
		!strings.Contains(err.Error(), "different modulus") {
		t.Fatalf("mixed-modulus batch written: %v", err)
	}
	for name, mutate := range map[string]func(q *pir.RecursiveQuery){
		"grid":       func(q *pir.RecursiveQuery) { q.GridCols++ },
		"no columns": func(q *pir.RecursiveQuery) { q.Cols = nil },
	} {
		shifted := *qs[1]
		mutate(&shifted)
		if err := WritePIRRecursiveQuery(&buf, []*pir.RecursiveQuery{qs[0], &shifted}); err == nil ||
			!strings.Contains(err.Error(), "shape") {
			t.Fatalf("batch with a member of another %s written: %v", name, err)
		}
	}
}

// encodeRecursive hand-rolls a type-23 body for decoder attacks.
func encodeRecursive(n *big.Int, width, gridCols, count uint64, values []*big.Int) []byte {
	var body []byte
	body = appendBig(body, n)
	body = vbyte.Append(body, width)
	body = vbyte.Append(body, gridCols)
	body = vbyte.Append(body, count)
	for _, v := range values {
		body = appendBig(body, v)
	}
	return body
}

func TestPIRRecursiveDecoderRejections(t *testing.T) {
	n := b(35)
	// width 9, gridCols 3 → gridRows 3; a query is 3+3 values.
	honest := []*big.Int{b(2), b(3), b(4), b(6), b(8), b(9)}
	if _, err := DecodePIRRecursiveQuery(encodeRecursive(n, 9, 3, 1, honest)); err != nil {
		t.Fatalf("honest hand-rolled body refused: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"zero width":     encodeRecursive(n, 0, 3, 1, honest),
		"huge width":     encodeRecursive(n, maxPIRBlocks+1, 3, 1, honest),
		"zero gridCols":  encodeRecursive(n, 9, 0, 1, honest),
		"overwide grid":  encodeRecursive(n, 9, 7, 1, honest), // 7 > 2·⌈√9⌉
		"zero count":     encodeRecursive(n, 9, 3, 0, nil),
		"over-cap count": encodeRecursive(n, 9, 3, MaxPIRRecursiveBatch+1, honest),
		"forged count":   encodeRecursive(n, 9, 3, 16, honest),
		// Forged width inflates the DERIVED vector lengths: the byte
		// charge must catch it before any allocation.
		"forged width":     encodeRecursive(n, 1<<24, 2048, 1, honest),
		"truncated vector": encodeRecursive(n, 9, 3, 1, honest[:4]),
		"rows only":        encodeRecursive(n, 9, 3, 1, honest[:3]),
		"value outside Zn": encodeRecursive(n, 9, 3, 1,
			[]*big.Int{b(2), b(35), b(4), b(6), b(8), b(9)}),
		"zero value": encodeRecursive(n, 9, 3, 1,
			[]*big.Int{b(2), b(0), b(4), b(6), b(8), b(9)}),
		"trailing bytes": append(encodeRecursive(n, 9, 3, 1, honest), 0xFF),
		"wide modulus": encodeRecursive(new(big.Int).Lsh(b(1), 8*maxPIRModulusBytes+8),
			9, 3, 1, honest),
	}
	for name, body := range cases {
		if _, err := DecodePIRRecursiveQuery(body); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
