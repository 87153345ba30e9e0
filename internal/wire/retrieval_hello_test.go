package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"os"
	"runtime"
	"strings"
	"testing"

	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// goldenParams is the mapping of the checked-in hello frames: 16-byte
// blocks, a live document of two blocks and a deleted one of one.
func goldenParams() docstore.Params {
	return docstore.Params{BlockSize: 16, NumBlocks: 3, Exts: []docstore.Extent{
		{First: 0, Blocks: 2, Length: 20, Crc: 0x1234},
		{First: 2, Blocks: 1, Length: 5, Crc: 7, Deleted: true},
	}}
}

// goldenFrame reads one checked-in frame, whitespace ignored.
func goldenFrame(t *testing.T, name string) []byte {
	t.Helper()
	text, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// written returns what write puts on the wire.
func written(t *testing.T, write func(w io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameBody returns the body of the one frame in frame, checking its type.
func frameBody(t *testing.T, frame []byte, want byte) []byte {
	t.Helper()
	typ, body, err := ReadMessage(bytes.NewReader(frame))
	if err != nil || typ != want {
		t.Fatalf("type %d, err %v; want type %d", typ, err, want)
	}
	return body
}

// TestPIRHelloGolden pins the four frames of the hello to checked-in
// bytes: the hello naming the golden mapping's digest (SHA-256 of its
// 14-byte table, truncated to 16 bytes), the 23-byte unchanged reply, the
// changed reply carrying the table, and a packed batch answer (index 1,
// modulus 1000: three gammas of two bytes). The writers must write them
// and the decoders read them back.
func TestPIRHelloGolden(t *testing.T) {
	p := goldenParams()
	digest := DigestPIRParams(p)
	want := goldenFrame(t, "pir_hello.hex")
	if got := written(t, func(w io.Writer) error { return WritePIRHello(w, &digest) }); !bytes.Equal(got, want) {
		t.Fatalf("hello written as %x, golden %x", got, want)
	}
	if have, err := DecodePIRHello(frameBody(t, want, TypePIRParams)); err != nil || have == nil || *have != digest {
		t.Fatalf("golden hello decodes to %x, %v", have, err)
	}

	want = goldenFrame(t, "pir_hello_unchanged.hex")
	if got := written(t, func(w io.Writer) error { return WritePIRHelloReply(w, p, &digest) }); !bytes.Equal(got, want) || len(got) != 23 {
		t.Fatalf("unchanged reply written as %x (%d bytes), golden %x", got, len(got), want)
	}
	if r, err := DecodePIRParamsReply(frameBody(t, want, TypePIRParams)); err != nil || !r.Hello || r.Changed || r.Digest != digest {
		t.Fatalf("golden unchanged reply decodes to %+v, %v", r, err)
	}

	want = goldenFrame(t, "pir_hello_changed.hex")
	for _, have := range []*ParamsDigest{nil, {1}} {
		if got := written(t, func(w io.Writer) error { return WritePIRHelloReply(w, p, have) }); !bytes.Equal(got, want) {
			t.Fatalf("changed reply to %x written as %x, golden %x", have, got, want)
		}
	}
	r, err := DecodePIRParamsReply(frameBody(t, want, TypePIRParams))
	if err != nil || !r.Hello || !r.Changed || r.Digest != digest || fmt.Sprint(r.Params) != fmt.Sprint(goldenParams()) {
		t.Fatalf("golden changed reply decodes to %+v, %v", r, err)
	}

	want = goldenFrame(t, "pir_batch_answer_packed.hex")
	ans := &pir.Answer{Gammas: []*big.Int{b(5), b(999), b(256)}}
	if got := written(t, func(w io.Writer) error { return WritePIRBatchAnswerPacked(w, 1, ans, b(1000)) }); !bytes.Equal(got, want) {
		t.Fatalf("packed answer written as %x, golden %x", got, want)
	}
	idx, got, err := DecodePIRBatchAnswer(frameBody(t, want, TypePIRBatchResponse))
	if err != nil || idx != 1 || fmt.Sprint(got.Gammas) != fmt.Sprint(ans.Gammas) {
		t.Fatalf("golden packed answer decodes to index %d, %v, %v", idx, got, err)
	}
}

// TestTableAloneDecodesWithoutDigest: the reply to the empty request,
// WritePIRParams' table alone, reads back through DecodePIRParamsReply as
// a changed mapping that carries no digest; and the changed reply to a
// hello names its table with DigestPIRParams' digest.
func TestTableAloneDecodesWithoutDigest(t *testing.T) {
	want := written(t, func(w io.Writer) error { return WritePIRParams(w, testParams()) })
	r, err := DecodePIRParamsReply(frameBody(t, want, TypePIRParams))
	if err != nil || r.Hello || !r.Changed || fmt.Sprint(r.Params) != fmt.Sprint(testParams()) {
		t.Fatalf("the table alone decodes as %+v, %v", r, err)
	}
	changed := written(t, func(w io.Writer) error { return WritePIRHelloReply(w, testParams(), nil) })
	r, err = DecodePIRParamsReply(frameBody(t, changed, TypePIRParams))
	if err != nil || !r.Hello || !r.Changed || r.Digest != DigestPIRParams(testParams()) {
		t.Fatalf("the changed reply decodes as %+v, %v; want digest %x", r, err, DigestPIRParams(testParams()))
	}
}

// TestPIRHelloDecodersRefuse: the hello decoder takes a single 0 or a
// 16-byte digest and nothing else; the reply decoder refuses a short
// digest, a changed flag past 1, trailing bytes after either reply, and a
// changed reply whose digest does not name its table.
func TestPIRHelloDecodersRefuse(t *testing.T) {
	for name, body := range map[string][]byte{
		"empty":            {},
		"a nonzero byte":   {0x81},
		"a 0 and a byte":   {0x80, 1},
		"15-byte digest":   make([]byte, 15),
		"17-byte digest":   make([]byte, 17),
		"overlong zero":    {0x00, 0x80},
		"a digest and a 0": append(make([]byte, 16), 0x80),
	} {
		if _, err := DecodePIRHello(body); err == nil {
			t.Errorf("hello %s accepted", name)
		}
	}
	p := goldenParams()
	digest := DigestPIRParams(p)
	unchanged := frameBody(t, written(t, func(w io.Writer) error { return WritePIRHelloReply(w, p, &digest) }), TypePIRParams)
	changed := frameBody(t, written(t, func(w io.Writer) error { return WritePIRHelloReply(w, p, nil) }), TypePIRParams)
	forged := bytes.Clone(changed)
	forged[1] ^= 1 // the digest's first byte
	flag := bytes.Clone(unchanged)
	flag[len(flag)-1] = 2
	for name, body := range map[string][]byte{
		"no digest":                 {0x80},
		"short digest":              unchanged[:10],
		"no changed flag":           unchanged[:len(unchanged)-1],
		"changed flag 2":            flag,
		"unchanged, trailing bytes": append(bytes.Clone(unchanged), 0x80),
		"changed, trailing bytes":   append(bytes.Clone(changed), 0x80),
		"changed, no table":         append(bytes.Clone(unchanged[:len(unchanged)-1]), 1),
		"digest names another":      forged,
	} {
		if _, err := DecodePIRParamsReply(body); err == nil {
			t.Errorf("reply %s accepted", name)
		}
	}
}

// packedAnswer writes a in the packed form under modulus n and returns the
// body after the type byte.
func packedAnswer(t *testing.T, a *pir.Answer, n *big.Int) []byte {
	t.Helper()
	return frameBody(t, written(t, func(w io.Writer) error { return WritePIRAnswerPacked(w, a, n) }), TypePIRResponse)
}

// TestPIRPackedAnswerRoundTrip: at moduli of one, seven, eight, nine,
// sixteen and 128 bytes, gammas from 1 to N-1 travel at exactly the
// modulus's width — head plus count × width, no byte more — and decode to
// themselves through DecodePIRAnswer and DecodePIRBatchAnswer alike.
func TestPIRPackedAnswerRoundTrip(t *testing.T) {
	for _, bits := range []int{7, 56, 64, 65, 128, 1024} {
		n := new(big.Int).Sub(new(big.Int).Lsh(b(1), uint(bits)), b(3))
		width := (bits + 7) / 8
		gammas := []*big.Int{b(1), b(2), new(big.Int).Sub(n, b(1)), new(big.Int).Rsh(n, 1), b(100)}
		a := &pir.Answer{Gammas: gammas}
		body := packedAnswer(t, a, n)
		head := vbyte.Len(0) + vbyte.Len(uint64(width)) + vbyte.Len(uint64(len(gammas)))
		if len(body) != head+len(gammas)*width {
			t.Fatalf("%d-bit modulus: a %d-byte body, want %d + %d × %d", bits, len(body), head, len(gammas), width)
		}
		got, err := DecodePIRAnswer(body)
		if err != nil {
			t.Fatalf("%d-bit modulus: %v", bits, err)
		}
		batch := frameBody(t, written(t, func(w io.Writer) error { return WritePIRBatchAnswerPacked(w, 7, a, n) }), TypePIRBatchResponse)
		idx, fromBatch, err := DecodePIRBatchAnswer(batch)
		if err != nil || idx != 7 {
			t.Fatalf("%d-bit modulus: batch answer index %d, %v", bits, idx, err)
		}
		for i, g := range gammas {
			if got.Gammas[i].Cmp(g) != 0 || fromBatch.Gammas[i].Cmp(g) != 0 {
				t.Fatalf("%d-bit modulus: gamma %d is %v and %v, want %v", bits, i, got.Gammas[i], fromBatch.Gammas[i], g)
			}
		}
	}
}

// TestPIRPackedAnswerRefusals: the writer refuses a gamma wider than the
// modulus and a modulus past the ceiling; the decoder refuses a width of 0
// or past maxPIRModulusBytes, a count of 0 or past the answer cap, and a
// count × width that is not exactly the rest of the body — a forged count
// before it allocates.
func TestPIRPackedAnswerRefusals(t *testing.T) {
	if _, err := appendPacked(nil, &pir.Answer{Gammas: []*big.Int{b(256)}}, b(255)); err == nil {
		t.Error("a gamma wider than the modulus written")
	}
	if _, err := appendPacked(nil, &pir.Answer{Gammas: []*big.Int{b(1)}}, new(big.Int).Lsh(b(1), 8*maxPIRModulusBytes)); err == nil {
		t.Error("a modulus past the ceiling written")
	}
	if _, err := appendPacked(nil, &pir.Answer{}, b(255)); err == nil {
		t.Error("an empty answer written")
	}
	packed := func(width, count uint64, gammas int) []byte {
		body := vbyte.Append(vbyte.Append(vbyte.Append(nil, 0), width), count)
		return append(body, make([]byte, gammas)...)
	}
	for name, body := range map[string][]byte{
		"width 0":         packed(0, 1, 0),
		"width past cap":  packed(maxPIRModulusBytes+1, 1, maxPIRModulusBytes+1),
		"count 0":         packed(8, 0, 0),
		"count past cap":  packed(1, 8*docstore.MaxBlockSize+1, 8*docstore.MaxBlockSize+1),
		"one byte short":  packed(8, 3, 23),
		"one byte over":   packed(8, 3, 25),
		"no width":        {0x80},
		"no count":        {0x80, 0x88},
		"forged count":    packed(8, 1<<20, 64),
		"overlong width":  {0x80, 0x08, 0x80, 0x81, 0},
		"truncated width": {0x80, 0x08},
	} {
		if _, err := DecodePIRAnswer(body); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A million 8-byte gammas would be ~40 MB of slabs.
	forged := packed(8, 1<<20, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = DecodePIRAnswer(forged)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("refusing a forged count allocated %d bytes", grew)
	}
}

// TestPackedGammasDoNotShareCapacity: the gammas of a packed answer lie
// side by side in one word slab, so growing one in place must not reach
// the next.
func TestPackedGammasDoNotShareCapacity(t *testing.T) {
	n := new(big.Int).Lsh(b(1), 100)
	got, err := DecodePIRAnswer(packedAnswer(t, &pir.Answer{Gammas: []*big.Int{b(7), b(9)}}, n))
	if err != nil {
		t.Fatal(err)
	}
	got.Gammas[0].Lsh(got.Gammas[0], 300)
	if got.Gammas[1].Cmp(b(9)) != 0 {
		t.Fatalf("a neighbour's arithmetic changed gamma 1 to %v", got.Gammas[1])
	}
}
