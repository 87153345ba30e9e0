package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"embellish/internal/vbyte"
)

func TestAddDocsRoundTrip(t *testing.T) {
	docs := []DocText{
		{ID: 300, Text: "osteosarcoma therapy outcomes"},
		{ID: 301, Text: ""},
		{ID: 302, Text: strings.Repeat("x", 1000)},
	}
	var buf bytes.Buffer
	if err := WriteAddDocs(&buf, docs); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeAddDocs {
		t.Fatalf("type = %d, want %d", typ, TypeAddDocs)
	}
	got, err := DecodeAddDocs(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(docs) {
		t.Fatalf("decoded %d docs, want %d", len(got), len(docs))
	}
	for i := range docs {
		if got[i] != docs[i] {
			t.Fatalf("doc %d = %+v, want %+v", i, got[i], docs[i])
		}
	}
}

func TestDeleteDocsRoundTrip(t *testing.T) {
	ids := []uint32{0, 7, 299}
	var buf bytes.Buffer
	if err := WriteDeleteDocs(&buf, ids); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil || typ != TypeDeleteDocs {
		t.Fatalf("type = %d err = %v", typ, err)
	}
	got, err := DecodeDeleteDocs(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("ids = %v, want %v", got, ids)
		}
	}
}

func TestAdminOKRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAdminOK(&buf, 1234, 5); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil || typ != TypeAdminOK {
		t.Fatalf("type = %d err = %v", typ, err)
	}
	live, segs, err := DecodeAdminOK(body)
	if err != nil || live != 1234 || segs != 5 {
		t.Fatalf("decoded %d/%d err %v", live, segs, err)
	}
}

func TestAdminDecodersRejectHostileInput(t *testing.T) {
	if _, err := DecodeAddDocs(nil); err == nil {
		t.Fatal("empty add body accepted")
	}
	if _, err := DecodeDeleteDocs(nil); err == nil {
		t.Fatal("empty delete body accepted")
	}
	// A count larger than the cap must be rejected before allocation.
	huge := vbyte.Append(nil, 1<<30)
	if _, err := DecodeAddDocs(huge); err == nil {
		t.Fatal("huge add count accepted")
	}
	if _, err := DecodeDeleteDocs(huge); err == nil {
		t.Fatal("huge delete count accepted")
	}
	// Ids at or past 2^31 would wrap int32 doc ids negative.
	bad := vbyte.Append(nil, 1)
	bad = vbyte.Append(bad, 1<<31)
	if _, err := DecodeDeleteDocs(bad); err == nil {
		t.Fatal("delete id >= 2^31 accepted")
	}
	// Truncated document text.
	trunc := vbyte.Append(nil, 1)
	trunc = vbyte.Append(trunc, 5)   // id
	trunc = vbyte.Append(trunc, 100) // text length
	trunc = append(trunc, "short"...)
	if _, err := DecodeAddDocs(trunc); err == nil {
		t.Fatal("truncated add text accepted")
	}
	// Trailing bytes.
	var buf bytes.Buffer
	if err := WriteDeleteDocs(&buf, []uint32{3}); err != nil {
		t.Fatal(err)
	}
	_, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDeleteDocs(append(body, 0)); err == nil {
		t.Fatal("trailing delete bytes accepted")
	}
	// Oversized writes are refused client-side.
	if err := WriteAddDocs(&buf, make([]DocText, MaxAdminDocs+1)); err == nil {
		t.Fatal("oversized add accepted")
	}
}

// TestAdminDecodersAtTheirCaps: each cap is inclusive, at the writers
// and the decoders alike. A frame of exactly MaxAdminDocs documents or
// ids is written and decodes, and one more is refused; a text of exactly
// maxDocTextBytes bytes is written and decodes, and one byte more is
// refused, its bytes all present; the id 2^31−1 decodes and 2^31 is
// refused.
func TestAdminDecodersAtTheirCaps(t *testing.T) {
	frame := func(n, textLen int, add bool) []byte {
		body := vbyte.Append(nil, uint64(n))
		for i := range n {
			body = vbyte.Append(body, uint64(i))
			if add {
				body = append(vbyte.Append(body, uint64(textLen)), strings.Repeat("x", textLen)...)
			}
		}
		return body
	}
	for _, tc := range []struct{ n, textLen int }{{MaxAdminDocs, 0}, {MaxAdminDocs + 1, 0}, {1, maxDocTextBytes}, {1, maxDocTextBytes + 1}} {
		ok := tc.n <= MaxAdminDocs && tc.textLen <= maxDocTextBytes
		if _, err := DecodeAddDocs(frame(tc.n, tc.textLen, true)); (err == nil) != ok {
			t.Errorf("add of %d docs with %d-byte texts: err %v, want accepted %v", tc.n, tc.textLen, err, ok)
		}
		if _, err := DecodeDeleteDocs(frame(tc.n, 0, false)); tc.textLen == 0 && (err == nil) != ok {
			t.Errorf("delete of %d ids: err %v, want accepted %v", tc.n, err, ok)
		}
		docs := make([]DocText, tc.n)
		docs[0].Text = strings.Repeat("x", tc.textLen)
		if err := WriteAddDocs(io.Discard, docs); (err == nil) != ok {
			t.Errorf("writing an add of %d docs with a %d-byte text: err %v, want accepted %v", tc.n, tc.textLen, err, ok)
		}
		if err := WriteDeleteDocs(io.Discard, make([]uint32, tc.n)); tc.textLen == 0 && (err == nil) != ok {
			t.Errorf("writing a delete of %d ids: err %v, want accepted %v", tc.n, err, ok)
		}
	}
	for _, id := range []uint64{1<<31 - 1, 1 << 31} {
		ok := id < 1<<31
		add := vbyte.Append(vbyte.Append(vbyte.Append(nil, 1), id), 0) // one doc, an empty text
		if _, err := DecodeAddDocs(add); (err == nil) != ok {
			t.Errorf("add of id %d: err %v, want accepted %v", id, err, ok)
		}
		if _, err := DecodeDeleteDocs(vbyte.Append(vbyte.Append(nil, 1), id)); (err == nil) != ok {
			t.Errorf("delete of id %d: err %v, want accepted %v", id, err, ok)
		}
	}
}
