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
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// The seeded form of TypePIRBatchQuery: a seeded frame must decode to
// exactly the values the client drew, be refused wherever it is hostile,
// and cost the decoder no more than a written-out frame can.

// seededBody hand-builds a seeded type-12 body: modulus, the 0, a query
// count, V, Z, then the entries as given.
func seededBody(n, v, z *big.Int, count uint64, entries ...[]byte) []byte {
	body := appendBig(nil, n)
	body = vbyte.Append(body, 0)
	body = vbyte.Append(body, count)
	body = appendBig(body, v)
	body = appendBig(body, z)
	return append(body, bytes.Join(entries, nil)...)
}

// seededEntry is one vector entry: width, a seed of sixteen seed bytes,
// rotation, codes.
func seededEntry(width, rot uint64, seed byte, codes ...byte) []byte {
	e := vbyte.Append(nil, width)
	e = append(e, bytes.Repeat([]byte{seed}, pir.SeedBytes)...)
	e = vbyte.Append(e, rot)
	return append(e, codes...)
}

// seededRotation is a rotation entry of the seeded form.
var seededRotation = vbyte.Append(nil, 0)

// heightsBody hand-builds a seeded type-12 body with heights: modulus,
// the two zeros, the seeded form's 0, a query count, V, Z, then the
// entries as given.
func heightsBody(n, v, z *big.Int, count uint64, entries ...[]byte) []byte {
	body := vbyte.Append(appendBig(nil, n), 0)
	body = vbyte.Append(body, 0)
	return append(body, seededBody(n, v, z, count, entries...)[len(appendBig(nil, n)):]...)
}

// heightsEntry is one vector entry with its height: width, height, a
// seed of sixteen seed bytes, rotation, codes.
func heightsEntry(width, height, rot uint64, seed byte, codes ...byte) []byte {
	e := seededEntry(width, rot, seed, codes...)
	w := vbyte.Len(width)
	return append(vbyte.Append(e[:w:w], height), e[w:]...)
}

// seededBodies are seeded type-12 bodies by hand, under N = 35, V = 2
// (Jacobi −1) and Z = 3 (a Jacobi-(+1) non-residue): the shapes honest
// writers produce beside the hostile ones. The fuzz targets take them
// all as seeds.
func seededBodies() map[string][]byte {
	n, v, z := b(35), b(2), b(3)
	doc := seededEntry(3, 0, 1, 0x27) // codes 3, 1, 2
	over := new(big.Int).Lsh(b(1), 8*maxPIRModulusBytes-1)
	overCap := MaxSeededValues(maxPIRModulusBytes) + 1
	return map[string][]byte{
		"two documents":         seededBody(n, v, z, 5, doc, seededRotation, seededRotation, seededEntry(3, 1, 2, 0x12), seededRotation),
		"width 1 rotated":       seededBody(n, v, z, 2, seededEntry(1, 0, 3, 0x01), seededRotation),
		"rotation of a rewidth": seededBody(n, v, z, 4, doc, seededRotation, seededEntry(2, 1, 4, 0x09), seededRotation),
		"zero count":            heightsBody(n, v, z, 0, heightsEntry(3, 1, 0, 1, 0x27)),
		"rotation at entry 0":   seededBody(n, v, z, 2, seededRotation, doc),
		"padding bits set":      seededBody(n, v, z, 1, seededEntry(3, 0, 1, 0x67)),
		"truncated codes":       seededBody(n, v, z, 1, seededEntry(9, 0, 1, 0x00, 0x00)),
		"truncated seed":        seededBody(n, v, z, 1, seededEntry(3, 0, 1, 0x27)[:9]),
		"rotation at the width": seededBody(n, v, z, 1, seededEntry(3, 3, 1, 0x27)),
		"trailing byte":         append(seededBody(n, v, z, 1, doc), 0xFF),
		"V outside":             seededBody(n, b(35), z, 1, doc),
		"V zero":                seededBody(n, b(0), z, 1, doc),
		"Z outside":             seededBody(n, v, b(36), 1, doc),
		"product outside":       seededBody(n, b(5), b(7), 1, seededEntry(3, 0, 1, 0x3f)),
		"one entry too many":    seededBody(n, v, z, MaxPIRBatch+1, doc),
		"past the expansion cap": seededBody(over, b(2), b(3), 1,
			seededEntry(uint64(overCap), 0, 5, make([]byte, (overCap+3)/4)...)),
		"heights: two documents": heightsBody(n, v, z, 3, heightsEntry(3, 1, 0, 1, 0x27), seededRotation, heightsEntry(3, 2, 1, 2, 0x12)),
		"heights: a height of 0": heightsBody(n, v, z, 2, heightsEntry(3, 0, 0, 1, 0x27), heightsEntry(3, 7, 0, 2, 0x12)),
		"heights: past any store": heightsBody(n, v, z, 1,
			heightsEntry(3, docstore.MaxColumnBytes+1, 0, 1, 0x27)),
		"heights: height truncated": heightsBody(n, v, z, 1, vbyte.Append(nil, 3)),
	}
}

func TestPIRBatchSeededHostileFrames(t *testing.T) {
	refused := map[string]string{
		"zero count":                "wire: seeded PIR batch query count: value out of range",
		"rotation at entry 0":       "wire: seeded PIR batch query 0 rotates no vector",
		"padding bits set":          "wire: seeded PIR batch query 0 codes: bits set past column 2",
		"truncated codes":           "wire: seeded PIR batch query 0 codes: truncated",
		"truncated seed":            "wire: seeded PIR batch query 0 seed: truncated",
		"rotation at the width":     "wire: seeded PIR batch query 0 rotation: value out of range",
		"trailing byte":             "wire: trailing bytes after PIR batch query",
		"V outside":                 "wire: seeded PIR batch V outside Z_n",
		"V zero":                    "wire: seeded PIR batch V outside Z_n",
		"Z outside":                 "wire: seeded PIR batch Z outside Z_n",
		"product outside":           "wire: seeded PIR batch query 0: pir: seeded value 0 outside Z_n",
		"one entry too many":        "wire: seeded PIR batch query count: value out of range",
		"past the expansion cap":    fmt.Sprintf("wire: seeded PIR batch expands past the %d values a frame may carry", MaxSeededValues(maxPIRModulusBytes)),
		"heights: past any store":   fmt.Sprintf("%s: query 0 has height %d, past any store's tallest", ViewRefusal, docstore.MaxColumnBytes+1),
		"heights: height truncated": "wire: PIR batch query 0 height: vbyte: truncated value",
	}
	for name, body := range seededBodies() {
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
		for i, q := range qs {
			if q.Seed == nil {
				t.Errorf("%s: query %d decoded without its seed", name, i)
			}
		}
		if again := batchBody(t, qs); !bytes.Equal(again, body) {
			t.Errorf("%s: written again as %x, was %x", name, again, body)
		}
		sameQueries(t, name+", written in full", mustDecodeBatch(t, batchBody(t, inFull(qs))), qs)
	}
	// A rotation of a width-1 vector is the vector itself; a rotation
	// after a new width rotates THAT vector.
	qs := mustDecodeBatch(t, seededBodies()["width 1 rotated"])
	if qs[1].Values[0].Cmp(qs[0].Values[0]) != 0 || qs[1].Rot != 0 {
		t.Errorf("width-1 rotation decoded to %v at rotation %d", qs[1].Values, qs[1].Rot)
	}
	qs = mustDecodeBatch(t, seededBodies()["rotation of a rewidth"])
	if len(qs[3].Values) != 2 || qs[3].Seed != qs[2].Seed || qs[3].Rot != 0 || qs[3].Values[0] != qs[2].Values[1] {
		t.Errorf("rewidth entry rotated to %v at rotation %d", qs[3].Values, qs[3].Rot)
	}
}

// TestPIRBatchSeededMatchesClient: what the server expands a seeded frame
// to is what the client drew — one- and two-word moduli, rotations that
// share a frame with their vector and a rotation orphaned at the start
// of one — value for value, against the same fetch written out and
// written in full; each frame writes again as itself, costs exactly its
// entries, and every vector carries a seed of its own.
func TestPIRBatchSeededMatchesClient(t *testing.T) {
	for _, bits := range []int{64, 128} {
		key, err := pir.GenerateKey(detrand.New(fmt.Sprintf("seeded-wire-%d", bits)), bits)
		if err != nil {
			t.Fatal(err)
		}
		modBytes := (key.N.BitLen() + 7) / 8
		for _, tc := range []struct {
			cols   int
			blocks []int
			skip   int // leading queries left out: a frame that opens mid-document
		}{
			{7, []int{3, 3}, 0},
			{7, []int{1, 1, 1}, 0},
			{9, []int{5, 1, 2}, 2},
			{300, []int{MaxPIRBatch}, 0},
			{6029, []int{3, 3}, 1},
		} {
			label := fmt.Sprintf("%d-bit key, %d columns, documents of %v blocks from query %d", bits, tc.cols, tc.blocks, tc.skip)
			qs := documentQueries(t, key, tc.cols, tc.blocks...)[tc.skip:]
			seeded := batchBody(t, qs)
			decoded := mustDecodeBatch(t, seeded)
			sameQueries(t, label+", seeded vs drawn", decoded, qs)
			sameQueries(t, label+", written out", mustDecodeBatch(t, batchBody(t, writtenOut(qs))), qs)
			sameQueries(t, label+", in full", mustDecodeBatch(t, batchBody(t, inFull(qs))), qs)
			if again := batchBody(t, decoded); !bytes.Equal(again, seeded) {
				t.Fatalf("%s: write(decode(x)) is %d bytes, the frame %d", label, len(again), len(seeded))
			}
			want := len(appendBig(nil, key.N)) + 1 + vbyte.Len(uint64(len(qs))) +
				len(appendBig(nil, qs[0].Seed.V)) + len(appendBig(nil, qs[0].Seed.Z))
			for i, q := range qs {
				if q.Seed == nil || decoded[i].Rot != q.Rot {
					t.Fatalf("%s: query %d drawn with seed %v, decoded at rotation %d of %d", label, i, q.Seed, decoded[i].Rot, q.Rot)
				}
				if i > 0 && q.Seed == qs[i-1].Seed {
					want++
					continue
				}
				want += SeededEntryBytes(tc.cols, 0, q.Rot)
			}
			if len(seeded) != want {
				t.Fatalf("%s: the seeded frame is %d bytes, its entries %d", label, len(seeded), want)
			}
			if full := len(batchBody(t, inFull(qs))); tc.cols >= 300 && len(seeded)*modBytes*2 > full {
				t.Fatalf("%s: the seeded frame is %d bytes, written in full %d", label, len(seeded), full)
			}
		}
	}
}

// TestPIRBatchSeededGolden pins the seeded layout and the expansion to a
// checked-in frame: 4 length bytes, type 12, modulus 35, the 0, five
// entries, V = 2, Z = 3 — a width-3 vector (seed sixteen 0x01 bytes,
// rotation 0, codes 3, 1, 2), two rotation entries, a width-3 vector at
// rotation 1 (seed sixteen 0x02 bytes, codes 2, 0, 1), one rotation
// entry. A format change must keep reading it, expand it to the same
// values, and write it again.
func TestPIRBatchSeededGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/pir_batch_seeded.hex")
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
	if !bytes.Equal(body, seededBodies()["two documents"]) {
		t.Fatalf("the golden body is %x, the hand-built one %x", body, seededBodies()["two documents"])
	}
	qs := mustDecodeBatch(t, body)
	want := [][]int64{{31, 34, 34}, {34, 31, 34}, {34, 34, 31}, {4, 33, 15}, {15, 4, 33}}
	rots := []int{0, 1, 2, 1, 2}
	if len(qs) != len(want) {
		t.Fatalf("%d queries, want %d", len(qs), len(want))
	}
	for i, q := range qs {
		if q.N.Int64() != 35 || len(q.Values) != 3 || q.Rot != rots[i] || q.Seed.V.Int64() != 2 || q.Seed.Z.Int64() != 3 {
			t.Fatalf("query %d: modulus %v, %d values, rotation %d, seed %+v", i, q.N, len(q.Values), q.Rot, q.Seed)
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

// TestPIRBatchSeededExpansionBound: a seeded frame may expand to no more
// group elements than a written-out frame of MaxFrame bytes carries at
// full width. A forged frame past that bound — a few KiB that would
// expand to 64 MiB of 8,192-bit elements — is refused before the decoder
// allocates for any of it, and the writer will not write one either. A
// server decodes against its store's width, and a seeded vector wider
// than that is refused before it expands, whatever the frame bound.
func TestPIRBatchSeededExpansionBound(t *testing.T) {
	n := new(big.Int).Lsh(b(1), 8*maxPIRModulusBytes-1)
	limit := MaxSeededValues(maxPIRModulusBytes)
	half := uint64(limit/2 + 1) // two vectors of just over half the bound each
	body := seededBody(n, b(2), b(3), 2,
		seededEntry(half, 0, 1, make([]byte, (half+3)/4)...),
		seededEntry(half, 0, 2, make([]byte, (half+3)/4)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodePIRBatchQuery(body)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "expands past") {
		t.Fatalf("a frame of %d values under a %d-value bound: %v", 2*half, limit, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Fatalf("refusing a %d-byte frame allocated %d bytes", len(body), got)
	}
	// Against a store: one vector of the frame, under the frame-wide bound,
	// is still wider than the store, and is refused before it expands.
	one := seededBody(n, b(2), b(3), 1, seededEntry(half, 0, 1, make([]byte, (half+3)/4)...))
	runtime.ReadMemStats(&before)
	_, err = DecodePIRBatchQueryWithin(one, []int{6029})
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("wire: seeded PIR batch query 0 is %d columns wide, the store 6029", half); err == nil || err.Error() != want {
		t.Fatalf("a %d-column vector against a 6,029-block store: %v", half, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Fatalf("refusing a vector wider than the store allocated %d bytes", got)
	}
	narrow := seededBody(b(35), b(2), b(3), 1, seededEntry(5, 0, 1, 0x00, 0x00))
	if _, err := DecodePIRBatchQueryWithin(narrow, []int{5}); err != nil {
		t.Fatalf("a vector as wide as the store: %v", err)
	}
	if _, err := DecodePIRBatchQueryWithin(narrow, []int{4}); err == nil {
		t.Fatal("a vector a column wider than the store decoded")
	}
	s := &pir.Seed{V: b(2), Z: b(3), Codes: make([]byte, (half+3)/4)}
	qs := []*pir.Query{
		{N: n, Values: make([]*big.Int, half), Seed: s},
		{N: n, Values: make([]*big.Int, half), Seed: &pir.Seed{V: b(2), Z: b(3), Codes: s.Codes}},
	}
	if err := WritePIRBatchQuery(&bytes.Buffer{}, qs); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("the writer wrote a frame past the bound: %v", err)
	}
}
