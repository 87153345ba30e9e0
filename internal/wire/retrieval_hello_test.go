package wire

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"embellish/internal/detrand"
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
	if r, err := DecodePIRParamsReply(frameBody(t, want, TypePIRParams)); err != nil || r.Changed || r.Digest != digest {
		t.Fatalf("golden unchanged reply decodes to %+v, %v", r, err)
	}

	want = goldenFrame(t, "pir_hello_changed.hex")
	for _, have := range []*ParamsDigest{nil, {1}} {
		if got := written(t, func(w io.Writer) error { return WritePIRHelloReply(w, p, have) }); !bytes.Equal(got, want) {
			t.Fatalf("changed reply to %x written as %x, golden %x", have, got, want)
		}
	}
	r, err := DecodePIRParamsReply(frameBody(t, want, TypePIRParams))
	if err != nil || !r.Changed || r.Digest != digest || fmt.Sprint(r.Params) != fmt.Sprint(goldenParams()) {
		t.Fatalf("golden changed reply decodes to %+v, %v", r, err)
	}

	want = goldenFrame(t, "pir_batch_answer_packed.hex")
	ans := imageOf(b(1000), b(5), b(999), b(256))
	if got := written(t, func(w io.Writer) error { return WritePIRBatchAnswerPacked(w, 1, ans, b(1000)) }); !bytes.Equal(got, want) {
		t.Fatalf("packed answer written as %x, golden %x", got, want)
	}
	idx, got, err := DecodePIRBatchAnswer(frameBody(t, want, TypePIRBatchResponse))
	if err != nil || idx != 1 || got.Width != ans.Width || !bytes.Equal(got.Image, ans.Image) {
		t.Fatalf("golden packed answer decodes to index %d, %v, %v", idx, got, err)
	}
}

// TestTableAloneDecodesWithoutDigest: the reply to the empty request,
// WritePIRParams' table alone, reads back through DecodePIRParams and
// carries no digest, so the reply decoder refuses it as no reply to the
// hello; and the changed reply to a hello names its table with
// DigestPIRParams' digest.
func TestTableAloneDecodesWithoutDigest(t *testing.T) {
	table := frameBody(t, written(t, func(w io.Writer) error { return WritePIRParams(w, testParams()) }), TypePIRParams)
	if p, err := DecodePIRParams(table); err != nil || fmt.Sprint(p) != fmt.Sprint(testParams()) {
		t.Fatalf("the table alone decodes as %+v, %v", p, err)
	}
	if r, err := DecodePIRParamsReply(table); err == nil {
		t.Fatalf("the table alone decodes as a reply to the hello: %+v", r)
	}
	changed := written(t, func(w io.Writer) error { return WritePIRHelloReply(w, testParams(), nil) })
	r, err := DecodePIRParamsReply(frameBody(t, changed, TypePIRParams))
	if err != nil || !r.Changed || r.Digest != DigestPIRParams(testParams()) {
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

// imageOf packs gammas into an answer at the byte length of modulus n.
func imageOf(n *big.Int, gammas ...*big.Int) *pir.Answer {
	width := (n.BitLen() + 7) / 8
	a := &pir.Answer{Width: width, Image: make([]byte, len(gammas)*width)}
	for i, g := range gammas {
		g.FillBytes(a.Image[i*width : (i+1)*width])
	}
	return a
}

// packedAnswer writes a as answer index of a batch, packed under modulus
// n, and returns the body after the type byte.
func packedAnswer(t *testing.T, index int, a *pir.Answer, n *big.Int) []byte {
	t.Helper()
	return frameBody(t, written(t, func(w io.Writer) error { return WritePIRBatchAnswerPacked(w, index, a, n) }), TypePIRBatchResponse)
}

// TestPIRPackedAnswerRoundTrip: at moduli of one, seven, eight, nine,
// sixteen and 128 bytes, gammas from 1 to N-1 travel at exactly the
// modulus's width — head plus count × width, no byte more — and decode to
// the image they were written from.
func TestPIRPackedAnswerRoundTrip(t *testing.T) {
	for _, bits := range []int{7, 56, 64, 65, 128, 1024} {
		n := new(big.Int).Sub(new(big.Int).Lsh(b(1), uint(bits)), b(3))
		width := (bits + 7) / 8
		gammas := []*big.Int{b(1), b(2), new(big.Int).Sub(n, b(1)), new(big.Int).Rsh(n, 1), b(100)}
		ans := imageOf(n, gammas...)
		body := packedAnswer(t, 7, ans, n)
		head := vbyte.Len(7) + vbyte.Len(0) + vbyte.Len(uint64(width)) + vbyte.Len(uint64(len(gammas)))
		if len(body) != head+len(gammas)*width {
			t.Fatalf("%d-bit modulus: a %d-byte body, want %d + %d × %d", bits, len(body), head, len(gammas), width)
		}
		idx, got, err := DecodePIRBatchAnswer(body)
		if err != nil || idx != 7 {
			t.Fatalf("%d-bit modulus: batch answer index %d, %v", bits, idx, err)
		}
		if got.Width != width || !bytes.Equal(got.Image, ans.Image) {
			t.Fatalf("%d-bit modulus: decoded %d-byte gammas %x, want %x", bits, got.Width, got.Image, ans.Image)
		}
	}
}

// TestServedAnswerIsTheOraclesImage: the type-13 body a server writes for
// an executor's answer carries the sequential oracle's image byte for
// byte, at a one-word (64-bit) and a two-word (96-bit) modulus, gammas
// whose top byte is zero among them.
func TestServedAnswerIsTheOraclesImage(t *testing.T) {
	const nCols, colBytes = 23, 256
	rng := rand.New(rand.NewSource(71))
	cols := make([][]byte, nCols)
	for j := range cols {
		cols[j] = make([]byte, colBytes)
		rng.Read(cols[j])
	}
	for _, bits := range []int{64, 96} {
		key, err := pir.GenerateKey(detrand.New("served-image"), bits)
		if err != nil {
			t.Fatal(err)
		}
		q, err := key.NewQuery(detrand.New("served-image-q"), nCols, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := pir.ProcessColumnsCtx(context.Background(), cols, colBytes, q)
		if err != nil {
			t.Fatal(err)
		}
		answers, _, err := pir.ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, []*pir.Query{q}, pir.Exec{Workers: 2, Patterns: new(pir.Transposition)})
		if err != nil {
			t.Fatal(err)
		}
		v, err := ViewPIRBatchAnswer(packedAnswer(t, 0, answers[0], key.N))
		if err != nil || v.Width != (bits+7)/8 || !bytes.Equal(v.Image, want.Image) {
			t.Fatalf("%d-bit modulus: the served %d-byte gammas are not the oracle's image (%v)", bits, v.Width, err)
		}
		zeroTop := 0
		for at := 0; at < len(v.Image); at += v.Width {
			if v.Image[at] == 0 {
				zeroTop++
			}
		}
		if zeroTop == 0 {
			t.Fatalf("%d-bit modulus: no gamma with a zero top byte among %d", bits, v.Count)
		}
	}
}

// TestPIRPackedWriterRefusals: the writer frames an image only in the
// shape the viewer accepts — the modulus's byte length, a whole number of
// gammas, at least one and at most the single-answer cap, under a modulus
// inside the ceiling — and refuses anything else with nothing written;
// what it writes views back to the image it was handed, byte for byte.
func TestPIRPackedWriterRefusals(t *testing.T) {
	byte1, byte2 := b(255), b(1000) // moduli of one and two bytes
	for _, c := range []struct {
		name string
		a    *pir.Answer
		n    *big.Int
	}{
		{"a nil answer", nil, byte1},
		{"a width past the modulus's", &pir.Answer{Width: 2, Image: make([]byte, 8)}, byte1},
		{"a width short of the modulus's", &pir.Answer{Width: 1, Image: make([]byte, 8)}, byte2},
		{"width 0", &pir.Answer{Image: make([]byte, 8)}, byte1},
		{"half a gamma", &pir.Answer{Width: 2, Image: make([]byte, 5)}, byte2},
		{"an empty image", &pir.Answer{Width: 1}, byte1},
		{"a count past the cap", &pir.Answer{Width: 1, Image: make([]byte, maxPackedGammas+1)}, byte1},
		{"a modulus past the ceiling", imageOf(b(1), b(1)), new(big.Int).Lsh(b(1), 8*maxPIRModulusBytes)},
	} {
		var buf bytes.Buffer
		if err := WritePIRBatchAnswerPacked(&buf, 0, c.a, c.n); err == nil || buf.Len() != 0 {
			t.Errorf("%s: error %v, %d bytes written", c.name, err, buf.Len())
		}
	}
	for _, a := range []*pir.Answer{imageOf(byte1, b(0), b(254), b(7)), {Width: 1, Image: make([]byte, maxPackedGammas)}} {
		v, err := ViewPIRBatchAnswer(packedAnswer(t, 3, a, byte1))
		if err != nil || v.Index != 3 || v.Width != a.Width || v.Count != a.Count() || !bytes.Equal(v.Image, a.Image) {
			t.Fatalf("a %d-gamma image views back as index %d, %d gammas of %d bytes (%v)", a.Count(), v.Index, v.Count, v.Width, err)
		}
	}
}

// TestPIRPackedAnswerRefusals: the decoder refuses a width of 0 or past
// maxPIRModulusBytes, a count of 0 or past the answer cap, and a count ×
// width that is not exactly the rest of the body — a forged count before
// it allocates — and an answer without the packed form's 0, the retired
// length-prefixed form.
func TestPIRPackedAnswerRefusals(t *testing.T) {
	packed := func(width, count uint64, gammas int) []byte {
		body := vbyte.Append(vbyte.Append(vbyte.Append(vbyte.Append(nil, 0), 0), width), count)
		return append(body, make([]byte, gammas)...)
	}
	for name, body := range map[string][]byte{
		"width 0":         packed(0, 1, 0),
		"width past cap":  packed(maxPIRModulusBytes+1, 1, maxPIRModulusBytes+1),
		"count 0":         packed(8, 0, 0),
		"count past cap":  packed(1, 8*docstore.MaxBlockSize+1, 8*docstore.MaxBlockSize+1),
		"one byte short":  packed(8, 3, 23),
		"one byte over":   packed(8, 3, 25),
		"no width":        {0x80, 0x80},
		"no count":        {0x80, 0x80, 0x88},
		"forged count":    packed(8, 1<<20, 64),
		"overlong width":  {0x80, 0x80, 0x08, 0x80, 0x81, 0},
		"truncated width": {0x80, 0x80, 0x08},
		"length-prefixed": appendPrefixed([]byte{0x80}, b(7), b(9)),
	} {
		if _, _, err := DecodePIRBatchAnswer(body); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A million 8-byte gammas would be ~40 MB of slabs.
	forged := packed(8, 1<<20, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _ = DecodePIRBatchAnswer(forged)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("refusing a forged count allocated %d bytes", grew)
	}
}

// TestPackedGammasDoNotShareCapacity: the gammas of a decoded answer lie
// in memory of their own, so overwriting the frame they were read from —
// what the next read into a reused buffer does — changes none of them.
func TestPackedGammasDoNotShareCapacity(t *testing.T) {
	n := new(big.Int).Lsh(b(1), 100)
	want := imageOf(n, b(7), b(9))
	body := packedAnswer(t, 0, want, n)
	_, got, err := DecodePIRBatchAnswer(body)
	if err != nil {
		t.Fatal(err)
	}
	clear(body)
	if !bytes.Equal(got.Image, want.Image) {
		t.Fatalf("clearing the frame changed the decoded gammas to %x", got.Image)
	}
}

// appendPrefixed appends a count and then every element of vs, a vbyte
// length and its magnitude each: the tail of the retired types 10 and 11
// and of the retired length-prefixed type-13 answer.
func appendPrefixed(body []byte, vs ...*big.Int) []byte {
	body = vbyte.Append(body, uint64(len(vs)))
	for _, v := range vs {
		body = appendBig(body, v)
	}
	return body
}
