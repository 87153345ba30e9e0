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
			q.Offset != qs[i].Offset || q.Span != qs[i].Span ||
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

func TestPIRRecursivePartitionModeRoundTrip(t *testing.T) {
	// A router's scatter leg drops the column vector and pins the span.
	q := recursiveTestQueries(t, 1, 30)[0]
	q.Cols = nil
	q.Offset, q.Span = 10, 7
	var buf bytes.Buffer
	if err := WritePIRRecursiveQuery(&buf, []*pir.RecursiveQuery{q}); err != nil {
		t.Fatal(err)
	}
	_, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePIRRecursiveQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Cols) != 0 || got[0].Offset != 10 || got[0].Span != 7 {
		t.Fatalf("partition-mode query did not survive the wire: %+v", got[0])
	}
	if len(got[0].Rows) != len(q.Rows) {
		t.Fatalf("row vector %d long, want %d", len(got[0].Rows), len(q.Rows))
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
	shifted := *qs[1]
	shifted.Offset = 3
	if err := WritePIRRecursiveQuery(&buf, []*pir.RecursiveQuery{qs[0], &shifted}); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Fatalf("mixed-shape batch written: %v", err)
	}
}

// encodeRecursive hand-rolls a type-23 body for decoder attacks.
func encodeRecursive(n *big.Int, width, gridCols, offset, span uint64, colMode byte, count uint64, values []*big.Int) []byte {
	var body []byte
	body = appendBig(body, n)
	body = vbyte.Append(body, width)
	body = vbyte.Append(body, gridCols)
	body = vbyte.Append(body, offset)
	body = vbyte.Append(body, span)
	body = append(body, colMode)
	body = vbyte.Append(body, count)
	for _, v := range values {
		body = appendBig(body, v)
	}
	return body
}

func TestPIRRecursiveDecoderRejections(t *testing.T) {
	n := b(35)
	// width 9, gridCols 3 → gridRows 3; full mode needs 3+3 values.
	honest := []*big.Int{b(2), b(3), b(4), b(6), b(8), b(9)}
	if _, err := DecodePIRRecursiveQuery(encodeRecursive(n, 9, 3, 0, 0, 1, 1, honest)); err != nil {
		t.Fatalf("honest hand-rolled body refused: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"zero width":     encodeRecursive(n, 0, 3, 0, 0, 1, 1, honest),
		"huge width":     encodeRecursive(n, maxPIRBlocks+1, 3, 0, 0, 1, 1, honest),
		"zero gridCols":  encodeRecursive(n, 9, 0, 0, 0, 1, 1, honest),
		"overwide grid":  encodeRecursive(n, 9, 7, 0, 0, 1, 1, honest), // 7 > 2·⌈√9⌉
		"offset outside": encodeRecursive(n, 9, 3, 9, 0, 1, 1, honest),
		"span outside":   encodeRecursive(n, 9, 3, 4, 6, 1, 1, honest),
		"bad colMode":    encodeRecursive(n, 9, 3, 0, 0, 2, 1, honest),
		"zero count":     encodeRecursive(n, 9, 3, 0, 0, 1, 0, nil),
		"over-cap count": encodeRecursive(n, 9, 3, 0, 0, 1, MaxPIRRecursiveBatch+1, honest),
		"forged count":   encodeRecursive(n, 9, 3, 0, 0, 1, 16, honest),
		// Forged width inflates the DERIVED row-vector length: the byte
		// charge must catch it before any allocation.
		"forged width":     encodeRecursive(n, 1<<24, 2048, 0, 0, 0, 1, honest),
		"truncated vector": encodeRecursive(n, 9, 3, 0, 0, 1, 1, honest[:4]),
		"value outside Zn": encodeRecursive(n, 9, 3, 0, 0, 1, 1,
			[]*big.Int{b(2), b(35), b(4), b(6), b(8), b(9)}),
		"zero value": encodeRecursive(n, 9, 3, 0, 0, 1, 1,
			[]*big.Int{b(2), b(0), b(4), b(6), b(8), b(9)}),
		"trailing bytes": append(encodeRecursive(n, 9, 3, 0, 0, 1, 1, honest), 0xFF),
		"wide modulus": encodeRecursive(new(big.Int).Lsh(b(1), 8*maxPIRModulusBytes+8),
			9, 3, 0, 0, 1, 1, honest),
	}
	// Partition mode requires only the row vector; extra column values
	// must be rejected as trailing bytes.
	cases["partition trailing"] = encodeRecursive(n, 9, 3, 0, 0, 0, 1, honest)
	for name, body := range cases {
		if _, err := DecodePIRRecursiveQuery(body); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Partition mode with exactly the row vector decodes.
	if got, err := DecodePIRRecursiveQuery(encodeRecursive(n, 9, 3, 0, 0, 0, 1, honest[:3])); err != nil {
		t.Fatalf("partition-mode body refused: %v", err)
	} else if len(got[0].Cols) != 0 || len(got[0].Rows) != 3 {
		t.Fatalf("partition-mode vectors wrong: %d rows, %d cols", len(got[0].Rows), len(got[0].Cols))
	}
}
