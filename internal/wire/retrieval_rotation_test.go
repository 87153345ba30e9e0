package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"strings"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// Rotation entries of TypePIRBatchQuery: a compact frame must decode to
// exactly the queries the same frame written in full decodes to, be
// refused exactly where that one is, and cost the decoder what its body
// holds, never entries x width.

// documentQueries draws the column queries of one fetch over view 1: per
// document a fresh seeded vector over cols columns, then one
// pir.Query.Next per further column — what fetchVia's generator hands
// the frame writer.
func documentQueries(t testing.TB, key *pir.ClientKey, cols int, blocks ...int) []*pir.Query {
	t.Helper()
	var qs []*pir.Query
	first := 0
	for d, n := range blocks {
		q, err := key.NewSeededQuery(detrand.New(fmt.Sprintf("rotation-doc-%d", d)), cols, first%cols)
		if err != nil {
			t.Fatal(err)
		}
		q.Height = 1
		for b := 0; b < n; b++ {
			if b > 0 {
				q = q.Next()
			}
			qs = append(qs, q)
		}
		first += n
	}
	return qs
}

// writtenOut returns qs without their seeds, elements shared, so
// WritePIRBatchQuery writes their vectors out and their rotations as
// rotation entries: the frame a server predating the seeded form is
// sent.
func writtenOut(qs []*pir.Query) []*pir.Query {
	out := make([]*pir.Query, len(qs))
	for i, q := range qs {
		out[i] = &pir.Query{N: q.N, Values: q.Values, Height: q.Height}
	}
	return out
}

// inFull returns queries equal to qs value for value that share no
// element, so WritePIRBatchQuery writes every one of them out: the
// frame a client predating rotation entries sends for the same fetch.
func inFull(qs []*pir.Query) []*pir.Query {
	out := make([]*pir.Query, len(qs))
	for i, q := range qs {
		out[i] = &pir.Query{N: q.N, Values: make([]*big.Int, len(q.Values)), Height: q.Height}
		for j, v := range q.Values {
			out[i].Values[j] = new(big.Int).Set(v)
		}
	}
	return out
}

func batchBody(t testing.TB, qs []*pir.Query) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePIRBatchQuery(&buf, qs); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil || typ != TypePIRBatchQuery {
		t.Fatalf("type %d, err %v", typ, err)
	}
	return body
}

// sameQueries fails unless got equals want value for value.
func sameQueries(t testing.TB, label string, got, want []*pir.Query) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries, want %d", label, len(got), len(want))
	}
	for i, q := range got {
		if q.N.Cmp(want[i].N) != 0 || len(q.Values) != len(want[i].Values) || q.Height != want[i].Height {
			t.Fatalf("%s: query %d has %d values at height %d, want %d at %d", label, i, len(q.Values), q.Height, len(want[i].Values), want[i].Height)
		}
		for j, v := range q.Values {
			if v.Cmp(want[i].Values[j]) != 0 {
				t.Fatalf("%s: query %d value %d is %v, want %v", label, i, j, v, want[i].Values[j])
			}
		}
	}
}

func TestPIRBatchRotationDifferential(t *testing.T) {
	key, err := pir.GenerateKey(detrand.New("rotation-wire"), 96)
	if err != nil {
		t.Fatal(err)
	}
	modBytes := (key.N.BitLen() + 7) / 8
	for _, tc := range []struct {
		cols   int
		blocks []int
	}{
		{7, []int{3, 3}},          // the benchmark's op: two three-block documents
		{7, []int{1, 1, 1}},       // nothing to rotate: today's frame, byte for byte
		{7, []int{5, 1, 2}},       // mixed
		{3, []int{3, 3, 3}},       // every rotation of the cycle but the identity
		{1, []int{1, 1}},          // width 1 drawn twice: two vectors
		{300, []int{MaxPIRBatch}}, // one vector, the rest of the frame rotations
	} {
		label := fmt.Sprintf("%d columns, documents of %v blocks", tc.cols, tc.blocks)
		qs := writtenOut(documentQueries(t, key, tc.cols, tc.blocks...))
		compact, full := batchBody(t, qs), batchBody(t, inFull(qs))
		rotations := len(qs) - len(tc.blocks)
		if got := len(full) - len(compact); rotations > 0 && got < rotations*tc.cols*modBytes {
			t.Fatalf("%s: the compact frame is %d bytes shorter, want %d rotations of at least %d bytes each", label, got, rotations, tc.cols*modBytes)
		}
		if rotations == 0 && !bytes.Equal(compact, full) {
			t.Fatalf("%s: a frame without rotations differs from the frame written in full", label)
		}
		fromCompact, err := DecodePIRBatchQuery(compact)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fromFull, err := DecodePIRBatchQuery(full)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameQueries(t, label+", compact vs sent", fromCompact, qs)
		sameQueries(t, label+", compact vs full", fromCompact, fromFull)
		// The traced benchmark's probe and the cluster router both decode
		// a frame and write it again: each form comes back as itself.
		if again := batchBody(t, fromCompact); !bytes.Equal(again, compact) {
			t.Fatalf("%s: write(decode(compact)) is %d bytes, the frame %d", label, len(again), len(compact))
		}
		if again := batchBody(t, fromFull); !bytes.Equal(again, full) {
			t.Fatalf("%s: write(decode(full)) is %d bytes, the frame %d", label, len(again), len(full))
		}
		// A decoded rotation is a window: it follows the entry before it,
		// and appending to one query cannot reach its neighbour.
		for i, q := range fromCompact {
			if cap(q.Values) != len(q.Values) {
				t.Fatalf("%s: query %d has capacity %d past its %d values", label, i, cap(q.Values), len(q.Values))
			}
			if i > 0 && q.Follows(fromCompact[i-1]) != qs[i].Follows(qs[i-1]) {
				t.Fatalf("%s: decoded query %d follows its predecessor: %v, sent: %v", label, i, q.Follows(fromCompact[i-1]), qs[i].Follows(qs[i-1]))
			}
		}
		// What a router does to a decoded frame: a column slice of a
		// rotation is no rotation of the same slice of its base (the
		// element that wraps comes from outside the slice) and must be
		// written out — unless the slice is the whole width.
		if tc.cols >= 3 {
			sliced := make([]*pir.Query, len(fromCompact))
			for i, q := range fromCompact {
				sliced[i] = &pir.Query{N: q.N, Values: q.Values[1 : tc.cols-1], Height: q.Height}
			}
			sameQueries(t, label+", sliced", mustDecodeBatch(t, batchBody(t, sliced)), sliced)
			if body := batchBody(t, sliced); len(body) != len(batchBody(t, inFull(sliced))) {
				t.Fatalf("%s: a frame of column slices carries a rotation entry", label)
			}
		}
	}
}

func mustDecodeBatch(t testing.TB, body []byte) []*pir.Query {
	t.Helper()
	qs, err := DecodePIRBatchQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestPIRBatchRotationRefusalsMatchFullFrame: a hostile element in the
// one vector of a compact frame is refused with the text the frame
// written in full gets, and an accepted oddity (zero-led, multi-word)
// decodes to the same values in every rotation.
func TestPIRBatchRotationRefusalsMatchFullFrame(t *testing.T) {
	honest := rawElement([]byte{9, 9})
	head := vbyte.Append(appendBig(nil, slabTestModulus), 3) // three entries
	width := vbyte.Append(vbyte.Append(nil, 3), 1)           // at height 1
	rotation := vbyte.Append(nil, 0)
	for _, h := range hostileElements() {
		// An encoding that does not end where it says it does reads on
		// into whatever follows it, which is where the two frames differ.
		if size, used, err := bigPrefix(h.enc); err != nil || used+size != len(h.enc) {
			continue
		}
		compact := bytes.Join([][]byte{head, width, honest, h.enc, honest, rotation, rotation}, nil)
		full := bytes.Join([][]byte{head,
			width, honest, h.enc, honest,
			width, honest, honest, h.enc,
			width, h.enc, honest, honest}, nil)
		got, gotErr := DecodePIRBatchQuery(compact)
		want, wantErr := DecodePIRBatchQuery(full)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: compact frame refused with %v, full frame with %v", h.name, gotErr, wantErr)
			continue
		}
		if gotErr == nil {
			sameQueries(t, h.name, got, want)
		}
	}
}

// rotationBodies are type-12 bodies around the rotation entry, by hand:
// the shapes no honest writer produces beside the ones every writer
// does. The fuzz targets take them all as seeds.
func rotationBodies() map[string][]byte {
	n := b(35)
	vec := []*big.Int{b(2), b(3), b(4)}
	full := func(entries int) []byte { // one vector, the rest rotations
		counts, values := make([]uint64, entries), make([][]*big.Int, entries)
		counts[0], values[0] = 3, vec
		return encodeBatch(n, counts, values)
	}
	return map[string][]byte{
		"two documents":         encodeBatch(n, []uint64{3, 0, 0, 3, 0}, [][]*big.Int{vec, nil, nil, {b(5), b(6), b(8)}, nil}),
		"a full frame":          full(MaxPIRBatch),
		"width 1 rotated":       encodeBatch(n, []uint64{1, 0, 0}, [][]*big.Int{{b(2)}, nil, nil}),
		"rotation of a rewidth": encodeBatch(n, []uint64{3, 0, 2, 0}, [][]*big.Int{vec, nil, {b(5), b(6)}, nil}),
		"zero count at entry 0": encodeBatch(n, []uint64{0, 3}, [][]*big.Int{nil, vec}),
		"only a zero count":     encodeBatch(n, []uint64{0}, [][]*big.Int{nil}),
		"one entry too many":    full(MaxPIRBatch + 1),
		"trailing byte":         append(full(2), 0xFF),
		"trailing zero count":   append(full(2), 0x80),
		"missing rotation":      full(3)[:len(full(3))-1],
		"overlong zero count":   append(full(2)[:len(full(2))-1], 0x00, 0x80),
		"a height of 0":         bytes.Join([][]byte{appendBig(nil, n), {0x81, 0x81, 0x80}, appendBig(nil, b(2))}, nil),
	}
}

func TestPIRBatchRotationHostileFrames(t *testing.T) {
	bodies := rotationBodies()
	refused := map[string]string{
		"zero count at entry 0": "wire: PIR batch query 0 value count: value out of range",
		"only a zero count":     "wire: PIR batch query 0 value count: value out of range",
		"one entry too many":    "wire: PIR batch query count: value out of range",
		"trailing byte":         "wire: trailing bytes after PIR batch query",
		"trailing zero count":   "wire: trailing bytes after PIR batch query",
		"missing rotation":      "wire: PIR batch query 2 value count: vbyte: truncated value",
		"overlong zero count":   "wire: PIR batch query 1 value count: vbyte: non-canonical encoding (trailing zero group)",
		"a height of 0":         ViewRefusal + ": query 0 has height 0, the block array",
	}
	for name, body := range bodies {
		qs, err := DecodePIRBatchQuery(body)
		if want, hostile := refused[name]; hostile {
			if err == nil || err.Error() != want {
				t.Errorf("%s: got %v, want the refusal %q", name, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if again := batchBody(t, qs); !bytes.Equal(again, body) {
			t.Errorf("%s: written again as %x, was %x", name, again, body)
		}
	}
	// A rotation of a width-1 vector is the vector itself; a rotation
	// after a new width rotates THAT vector.
	for _, q := range mustDecodeBatch(t, bodies["width 1 rotated"]) {
		if len(q.Values) != 1 || q.Values[0].Int64() != 2 {
			t.Errorf("width-1 rotation decoded to %v", q.Values)
		}
	}
	want := [][]int64{{2, 3, 4}, {4, 2, 3}, {5, 6}, {6, 5}}
	for i, q := range mustDecodeBatch(t, bodies["rotation of a rewidth"]) {
		for j, v := range q.Values {
			if len(q.Values) != len(want[i]) || v.Int64() != want[i][j] {
				t.Errorf("rewidth entry %d decoded to %v, want %v", i, q.Values, want[i])
			}
		}
	}
}

// TestPIRBatchRotationGolden pins the layout to a checked-in frame: 4
// length bytes, type 12, modulus 35, five entries — the vector (2, 3, 4)
// at height 1, two rotation entries (a lone 0x80 each), the vector
// (5, 6, 8) at height 1, one rotation entry. A format change must keep reading it, and keep
// writing it.
func TestPIRBatchRotationGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/pir_batch_rotated.hex")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(bytes.NewReader(frame))
	if err != nil || typ != TypePIRBatchQuery {
		t.Fatalf("type %d, err %v", typ, err)
	}
	qs := mustDecodeBatch(t, body)
	want := [][]int64{{2, 3, 4}, {4, 2, 3}, {3, 4, 2}, {5, 6, 8}, {8, 5, 6}}
	if len(qs) != len(want) {
		t.Fatalf("%d queries, want %d", len(qs), len(want))
	}
	for i, q := range qs {
		if q.N.Int64() != 35 || len(q.Values) != 3 || q.Height != 1 {
			t.Fatalf("query %d: modulus %v, %d values at height %d", i, q.N, len(q.Values), q.Height)
		}
		for j, v := range q.Values {
			if v.Int64() != want[i][j] {
				t.Fatalf("query %d is %v, want %v", i, q.Values, want[i])
			}
		}
	}
	var buf bytes.Buffer
	if err := WritePIRBatchQuery(&buf, qs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), frame) {
		t.Fatalf("written again as %x, the golden frame is %x", buf.Bytes(), frame)
	}
}

// TestPIRBatchDecodeRotationAllocations: rotations are windows on the
// vector they rotate, so a frame of one 6,029-element vector and 63
// rotation entries costs the decoder what the vector alone costs (plus a
// pointer and a Query per entry) — not 64 pointer slices of that width,
// which 63 bytes of a hostile frame could otherwise demand per vector —
// in the seeded form as in the written-out one.
func TestPIRBatchDecodeRotationAllocations(t *testing.T) {
	key, err := pir.GenerateKey(detrand.New("rotation-alloc"), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range []struct {
		name string
		of   func([]*pir.Query) []*pir.Query
	}{{"seeded", func(qs []*pir.Query) []*pir.Query { return qs }}, {"written out", writtenOut}} {
		decodeCost := func(blocks int) uint64 {
			body := batchBody(t, form.of(documentQueries(t, key, 6029, blocks)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			qs, err := DecodePIRBatchQuery(body)
			runtime.ReadMemStats(&after)
			if err != nil || len(qs) != blocks {
				t.Fatalf("%s: %d queries, err %v", form.name, len(qs), err)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		one, full := decodeCost(1), decodeCost(MaxPIRBatch)
		if full*10 > one*11 {
			t.Fatalf("%s: decoding one vector and %d rotations allocated %d bytes, the vector alone %d: over 1.1x", form.name, MaxPIRBatch-1, full, one)
		}
	}
}
