package wire

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// rawElement frames a magnitude exactly as given — leading zeros and
// all — which appendBig, writing minimal magnitudes, never does.
func rawElement(mag []byte) []byte {
	return append(vbyte.Append(nil, uint64(len(mag))), mag...)
}

// hostileElement is one named group-element encoding.
type hostileElement struct {
	name string
	enc  []byte
}

// hostileElements are the group-element encodings a peer can send and
// the writers never would. The modulus they are judged against is
// slabTestModulus.
func hostileElements() []hostileElement {
	wide := bytes.Repeat([]byte{0xA5}, maxIntBytes)
	return []hostileElement{
		{"one byte", rawElement([]byte{7})},
		{"leading zero bytes", rawElement([]byte{0, 0, 5})},
		{"only zero bytes", rawElement([]byte{0, 0, 0})},
		{"empty magnitude", rawElement(nil)},
		{"word", rawElement([]byte{1, 2, 3, 4, 5, 6, 7, 8})},
		{"word, zero-led", rawElement([]byte{0, 2, 3, 4, 5, 6, 7, 8, 9})},
		{"word and a byte", rawElement([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})},
		{"two words", rawElement(bytes.Repeat([]byte{0xFF}, 16))},
		{"two words and a bit", rawElement(append([]byte{1}, make([]byte, 16)...))},
		{"zero-led word pair", rawElement(append(make([]byte, 9), 1, 2, 3))},
		{"the modulus", rawElement(slabTestModulus.Bytes())},
		{"modulus minus one", rawElement(new(big.Int).Sub(slabTestModulus, big.NewInt(1)).Bytes())},
		{"modulus plus one", rawElement(new(big.Int).Add(slabTestModulus, big.NewInt(1)).Bytes())},
		{"at the byte limit", rawElement(wide)},
		{"over the byte limit", rawElement(append(wide, 1))},
		{"forged length", vbyte.Append(nil, maxIntBytes+1)},
		{"truncated", rawElement([]byte{1, 2, 3, 4, 5})[:4]},
		{"bare prefix", []byte{0x05}},
		{"overlong prefix", []byte{0x00, 0x80, 9}},
		{"unterminated prefix", []byte{0x05, 0x06}},
	}
}

// slabTestModulus is a two-word modulus, so elements of one, two and
// three words fall on both sides of it.
var slabTestModulus, _ = new(big.Int).SetString("f123456789abcdef0123456789abcdef", 16)

// refDecodeBigs is the definition decodeBigs must match: one decodeBig
// per element, the range check after each.
func refDecodeBigs(buf []byte, count int, n *big.Int) ([]*big.Int, []byte, int, error) {
	out := make([]*big.Int, count)
	for i := range out {
		v, rest, err := decodeBig(buf)
		if err != nil {
			return nil, nil, i, err
		}
		if n != nil && (v.Sign() <= 0 || v.Cmp(n) >= 0) {
			return nil, nil, i, errOutsideGroup
		}
		out[i], buf = v, rest
	}
	return out, buf, 0, nil
}

// sameAsReference decodes count elements of body both ways and demands
// the same verdict: the same refusal at the same element, or the same
// values (normalised alike) and the same unread rest.
func sameAsReference(t *testing.T, label string, body []byte, count int, n *big.Int) {
	t.Helper()
	want, wantRest, wantAt, wantErr := refDecodeBigs(body, count, n)
	got := make([]*big.Int, count)
	rest, at, err := decodeBigs(body, got, n)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: slab decoder says %v, per-element decoder %v", label, err, wantErr)
	}
	if err != nil {
		if at != wantAt || err.Error() != wantErr.Error() {
			t.Fatalf("%s: refused element %d (%v), per-element decoder element %d (%v)", label, at, err, wantAt, wantErr)
		}
		return
	}
	if !bytes.Equal(rest, wantRest) {
		t.Fatalf("%s: %d bytes left unread, per-element decoder leaves %d", label, len(rest), len(wantRest))
	}
	for i := range want {
		if got[i].Cmp(want[i]) != 0 || len(got[i].Bits()) != len(want[i].Bits()) {
			t.Fatalf("%s: element %d is %x (%d words), per-element decoder %x (%d words)",
				label, i, got[i], len(got[i].Bits()), want[i], len(want[i].Bits()))
		}
	}
}

// TestDecodeBigsMatchesDecodeBig: the slab decoder against the
// per-element one on hostile elements — alone, behind and ahead of honest
// ones, with and without a modulus, and asked for one element more than
// the body holds — and on random runs of random widths.
func TestDecodeBigsMatchesDecodeBig(t *testing.T) {
	honest := rawElement([]byte{9, 8, 7})
	for _, h := range hostileElements() {
		el := h.enc
		for _, n := range []*big.Int{nil, slabTestModulus} {
			label := fmt.Sprintf("%s (modulus %v)", h.name, n != nil)
			sameAsReference(t, label+" alone", el, 1, n)
			sameAsReference(t, label+" asked twice", el, 2, n)
			run := bytes.Join([][]byte{honest, el, honest}, nil)
			sameAsReference(t, label+" between", run, 3, n)
			sameAsReference(t, label+" with a tail", append(run, 0xFF), 3, n)
			// An out-of-range element AHEAD of a malformed one is the first
			// refusal, whichever the slab decoder happens to notice first.
			sameAsReference(t, label+" after zero", bytes.Join([][]byte{rawElement(nil), el}, nil), 2, n)
		}
	}
	// The two decoders share their framing check, so its verdicts are
	// pinned here in their own right.
	refusals := map[string]string{
		"over the byte limit": "big integer of 65537 bytes exceeds limit",
		"forged length":       "big integer of 65537 bytes exceeds limit",
		"truncated":           "truncated big integer",
		"bare prefix":         "vbyte: truncated value",
		"overlong prefix":     "vbyte: non-canonical encoding",
		"unterminated prefix": "vbyte: truncated value",
		"empty magnitude":     errOutsideGroup.Error(),
		"only zero bytes":     errOutsideGroup.Error(),
		"the modulus":         errOutsideGroup.Error(),
		"modulus plus one":    errOutsideGroup.Error(),
		"at the byte limit":   errOutsideGroup.Error(),
		"two words":           errOutsideGroup.Error(),
		"two words and a bit": errOutsideGroup.Error(),
	}
	for _, h := range hostileElements() {
		_, _, err := decodeBigs(h.enc, make([]*big.Int, 1), slabTestModulus)
		if want, refused := refusals[h.name]; !refused {
			if err != nil {
				t.Errorf("%s: refused (%v)", h.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want a refusal saying %q", h.name, err, want)
		}
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		var body []byte
		count := rng.Intn(40)
		for i := 0; i < count; i++ {
			mag := make([]byte, rng.Intn(20))
			rng.Read(mag)
			if len(mag) > 0 && rng.Intn(4) == 0 {
				mag[0] = 0
			}
			body = append(body, rawElement(mag)...)
		}
		if rng.Intn(3) == 0 && len(body) > 0 {
			body = body[:rng.Intn(len(body))]
		}
		for _, n := range []*big.Int{nil, slabTestModulus} {
			sameAsReference(t, fmt.Sprintf("random run %d", trial), body, count, n)
		}
	}
	sameAsReference(t, "no elements", []byte{1, 2}, 0, nil)
}

// TestDecodedElementsDoNotShareCapacity: the elements of one frame lie
// side by side in one word slab, so growing one in place must not reach
// the next.
func TestDecodedElementsDoNotShareCapacity(t *testing.T) {
	body := bytes.Join([][]byte{rawElement([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}), rawElement(nil), rawElement([]byte{3})}, nil)
	out := make([]*big.Int, 3)
	if _, _, err := decodeBigs(body, out, nil); err != nil {
		t.Fatal(err)
	}
	out[0].Mul(out[0], out[0])
	out[1].SetUint64(^uint64(0))
	if out[2].Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("a neighbour's arithmetic changed element 2 to %v", out[2])
	}
}

// recursiveAnswer is an answer the size of one recursive block answer of
// the repository benchmark, 65,536 ciphertexts, and its 64-bit modulus.
func recursiveAnswer(tb testing.TB) (*pir.Answer, *big.Int) {
	tb.Helper()
	key, err := pir.GenerateKey(detrand.New("wire-rec-answer"), 64)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	gammas := make([]*big.Int, 65536)
	for i := range gammas {
		gammas[i] = new(big.Int).Rand(rng, key.N)
	}
	return imageOf(key.N, gammas...), key.N
}

// TestPIRAnswerCodecAllocations: a 65,536-ciphertext answer encodes and
// decodes in a handful of allocations — the frame and the image, not one
// or two per ciphertext.
func TestPIRAnswerCodecAllocations(t *testing.T) {
	ans, n := recursiveAnswer(t)
	write := func(w io.Writer) error { return WritePIRBatchAnswerPacked(w, 3, ans, n) }
	var frame bytes.Buffer
	if err := write(&frame); err != nil {
		t.Fatal(err)
	}
	_, body, err := ReadMessage(bytes.NewReader(frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := write(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("encoding the answer allocates %v times, want <= 8", n)
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, _, err := DecodePIRBatchAnswer(body); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("decoding the answer allocates %v times, want <= 8", n)
	}
	idx, got, err := DecodePIRBatchAnswer(body)
	if err != nil || idx != 3 || got.Width != ans.Width || !bytes.Equal(got.Image, ans.Image) {
		t.Fatalf("round trip: index %d, %d gammas, err %v", idx, got.Count(), err)
	}
}

// TestReadMessageBufReuses: a second frame no larger than the first lands
// in the first's buffer, and a larger one replaces it.
func TestReadMessageBufReuses(t *testing.T) {
	var stream bytes.Buffer
	for _, msg := range []string{"a long first frame", "short", "a frame longer than the first one"} {
		if err := WriteError(&stream, msg); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	_, first, err := ReadMessageBuf(&stream, &buf)
	if err != nil || string(first) != "a long first frame" {
		t.Fatalf("first frame %q, err %v", first, err)
	}
	held := &buf[0]
	_, second, err := ReadMessageBuf(&stream, &buf)
	if err != nil || string(second) != "short" || &buf[0] != held {
		t.Fatalf("second frame %q (buffer reused: %v), err %v", second, &buf[0] == held, err)
	}
	typ, third, err := ReadMessageBuf(&stream, &buf)
	if err != nil || typ != TypeError || string(third) != "a frame longer than the first one" {
		t.Fatalf("third frame %q, err %v", third, err)
	}
}

// BenchmarkPIRAnswerCodec encodes and decodes one recursive block answer
// of the repository benchmark, 65,536 one-word ciphertexts packed at the
// modulus's 8 bytes (~524 KB).
func BenchmarkPIRAnswerCodec(b *testing.B) {
	ans, n := recursiveAnswer(b)
	var frame bytes.Buffer
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame.Reset()
		if err := WritePIRBatchAnswerPacked(&frame, 0, ans, n); err != nil {
			b.Fatal(err)
		}
		_, body, err := ReadMessageBuf(&frame, &buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodePIRBatchAnswer(body); err != nil {
			b.Fatal(err)
		}
	}
}
