package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/pir"
)

// Heights on TypePIRBatchQuery: an entry names the database it addresses
// — the block array or one class view — and a server refuses an entry
// outside its views before anything expands.

// withHeight returns qs over the database of height h.
func withHeight(qs []*pir.Query, h int) []*pir.Query {
	for _, q := range qs {
		q.Height = h
	}
	return qs
}

// TestPIRBatchHeightsRoundTrip: a frame with heights decodes to the
// heights it was written with, in both forms and with rotations; it
// writes again as itself; and it costs two bytes of head and a height
// byte per vector more than the same frame at height 0, which travels
// without heights, byte for byte as before heights existed.
func TestPIRBatchHeightsRoundTrip(t *testing.T) {
	key, err := pir.GenerateKey(detrand.New("heights-wire"), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cols   int
		blocks []int
	}{{762, []int{1, 1}}, {7, []int{3, 1}}, {9, []int{1, 2, 1}}} {
		for _, form := range []struct {
			name string
			of   func([]*pir.Query) []*pir.Query
		}{{"seeded", func(qs []*pir.Query) []*pir.Query { return qs }}, {"written out", writtenOut}} {
			label := fmt.Sprintf("%s, %d columns, documents of %v columns", form.name, tc.cols, tc.blocks)
			flat := form.of(documentQueries(t, key, tc.cols, tc.blocks...))
			tall := form.of(withHeight(documentQueries(t, key, tc.cols, tc.blocks...), 3))
			flatBody, tallBody := batchBody(t, flat), batchBody(t, tall)
			decoded := mustDecodeBatch(t, tallBody)
			sameQueries(t, label, decoded, tall)
			if again := batchBody(t, decoded); !bytes.Equal(again, tallBody) {
				t.Fatalf("%s: written again as %d bytes, the frame %d", label, len(again), len(tallBody))
			}
			if got, want := len(tallBody)-len(flatBody), 2+len(tc.blocks); got != want {
				t.Fatalf("%s: heights cost %d bytes, want two zeros and a byte per vector (%d)", label, got, want)
			}
			for _, q := range mustDecodeBatch(t, flatBody) {
				if q.Height != 0 {
					t.Fatalf("%s: a frame without heights decoded at height %d", label, q.Height)
				}
			}
		}
	}
	// One frame may mix heights, a height of 0 among them; a rotation has
	// the height of the vector it rotates, and a vector of the same
	// elements at another height is no rotation of it.
	a := documentQueries(t, key, 5, 2)
	a[0].Height, a[1].Height = 0, 0
	b := withHeight(documentQueries(t, key, 5, 2), 2)
	qs := append(a, b...)
	sameQueries(t, "mixed", mustDecodeBatch(t, batchBody(t, qs)), qs)
	sameQueries(t, "mixed, written out", mustDecodeBatch(t, batchBody(t, writtenOut(qs))), qs)
	c := &pir.Query{N: b[0].N, Values: b[0].Values, Height: 1}
	if c.Follows(b[0]) || b[1].Follows(a[0]) || !b[1].Follows(b[0]) {
		t.Fatal("Follows ignores heights")
	}
}

// TestPIRBatchHeightsRefusedBeforeExpansion: decoded against a store's
// views, an entry whose height names no view, or that is wider than its
// view, is refused with ViewRefusal — for a seeded vector of ~a million
// columns, before it expands — and one as wide as its view decodes.
func TestPIRBatchHeightsRefusedBeforeExpansion(t *testing.T) {
	widths := []int{6029, 608, 762, 623, 0, 7, 0, 0} // the bench store: H = 7 at 1 KiB blocks
	n, v, z := b(35), b(2), b(3)
	wide := uint64(1 << 20)
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"height past the tallest", ViewRefusal + ": query 0 has height 8, the store's tallest is 7",
			heightsBody(n, v, z, 1, heightsEntry(wide, 8, 0, 1, make([]byte, wide/4)...))},
		{"wider than its view", ViewRefusal + ": query 1 is 1048576 columns wide, view 3 holds 623",
			heightsBody(n, v, z, 2, heightsEntry(3, 3, 0, 1, 0x27), heightsEntry(wide, 3, 0, 2, make([]byte, wide/4)...))},
		{"an empty view", ViewRefusal + ": query 0 is 3 columns wide, view 4 holds 0",
			heightsBody(n, v, z, 1, heightsEntry(3, 4, 0, 1, 0x27))},
		{"written out, no view", ViewRefusal + ": query 0 has height 9, the store's tallest is 7",
			bytes.Join([][]byte{appendBig(nil, n), {0x80, 0x80, 0x81, 0x81, 0x89}, appendBig(nil, b(2))}, nil)},
		{"as wide as its view", "",
			heightsBody(n, v, z, 2, heightsEntry(7, 5, 0, 1, 0x00, 0x00), seededRotation)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		qs, err := DecodePIRBatchQueryWithin(tc.body, widths)
		runtime.ReadMemStats(&after)
		if tc.want == "" {
			if err != nil || len(qs) != 2 || qs[1].Height != 5 || len(qs[1].Values) != 7 {
				t.Fatalf("%s: %d queries, %v", tc.name, len(qs), err)
			}
			continue
		}
		if err == nil || err.Error() != tc.want || !strings.HasPrefix(err.Error(), ViewRefusal) {
			t.Fatalf("%s: %v, want %q", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
			t.Fatalf("%s: refusing a %d-byte frame allocated %d bytes", tc.name, len(tc.body), got)
		}
	}
	// Without a store the decoder bounds heights by the tallest view any
	// block size has, and reads widths as they come.
	if _, err := DecodePIRBatchQuery(heightsBody(n, v, z, 1, heightsEntry(3, 8, 0, 1, 0x27))); err != nil {
		t.Fatalf("height 8 without a store: %v", err)
	}
	if SeededEntryBytes(762, 3, 0) != SeededEntryBytes(762, 0, 0)+1 {
		t.Fatal("SeededEntryBytes does not price the height")
	}
}
