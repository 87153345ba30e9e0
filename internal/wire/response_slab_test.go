package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/core"
	"embellish/internal/detrand"
	"embellish/internal/index"
	"embellish/internal/vbyte"
)

// refDecodeResponse is the definition DecodeResponse must match: one
// decodeBig, and so one big.Int and one word slice, per candidate.
func refDecodeResponse(body []byte) ([]Candidate, ResponseStats, error) {
	var st ResponseStats
	n, used, err := vbyte.Decode(body)
	if err != nil || n > maxCandidates || n*minCandidateBytes > uint64(len(body)) {
		return nil, st, fmt.Errorf("wire: candidate count: %w", orRange(err))
	}
	body = body[used:]
	out := make([]Candidate, n)
	for i := range out {
		doc, used, err := vbyte.Decode(body)
		if err != nil || doc >= 1<<31 {
			return nil, st, fmt.Errorf("wire: candidate %d doc: %w", i, orRange(err))
		}
		enc, rest, err := decodeBig(body[used:])
		if err != nil {
			return nil, st, fmt.Errorf("wire: candidate %d score: %w", i, err)
		}
		body = rest
		out[i] = Candidate{Doc: index.DocID(doc), Enc: enc}
	}
	st, body, err = decodeResponseStats(body)
	if err != nil {
		return nil, st, fmt.Errorf("wire: stats: %w", err)
	}
	if len(body) != 0 {
		return nil, st, fmt.Errorf("wire: trailing bytes after response")
	}
	return out, st, nil
}

// sameResponse decodes body both ways and demands the same verdict: the
// same refusal, or the same candidates, value for value and word for word.
func sameResponse(t *testing.T, label string, body []byte) []Candidate {
	t.Helper()
	want, wantSt, wantErr := refDecodeResponse(body)
	got, st, err := DecodeResponse(body)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: slab decoder says %v, per-candidate decoder %v", label, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if st != wantSt || len(got) != len(want) {
		t.Fatalf("%s: %d candidates with stats %+v, per-candidate decoder %d with %+v", label, len(got), st, len(want), wantSt)
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || got[i].Enc.Cmp(want[i].Enc) != 0 || len(got[i].Enc.Bits()) != len(want[i].Enc.Bits()) {
			t.Fatalf("%s: candidate %d is doc %d, %x, per-candidate decoder doc %d, %x", label, i, got[i].Doc, got[i].Enc, want[i].Doc, want[i].Enc)
		}
	}
	return got
}

// responseBody is a response of count ciphertexts under a key of the
// given width, as WriteResponse frames it (type byte stripped).
func responseBody(t *testing.T, keyBits, count int) ([]byte, *core.Response) {
	t.Helper()
	src := detrand.New(fmt.Sprintf("response-slab-%d", keyBits))
	k, err := benaloh.GenerateKey(src, keyBits, benaloh.Pow3(6))
	if err != nil {
		t.Fatal(err)
	}
	resp := &core.Response{Docs: make([]core.DocScore, count)}
	for i := range resp.Docs {
		enc, err := k.EncryptInt(src, int64(i%700))
		if err != nil {
			t.Fatal(err)
		}
		resp.Docs[i] = core.DocScore{Doc: index.DocID(i * 131), Enc: enc}
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp, core.Stats{Postings: count * 3}); err != nil {
		t.Fatal(err)
	}
	_, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp
}

// TestResponseSlabMatchesPerCandidateDecode: honest responses across key
// widths and candidate counts, single and batched, and every hostile
// ciphertext encoding — alone, between honest candidates and truncated —
// decode as the per-candidate decoder decodes them.
func TestResponseSlabMatchesPerCandidateDecode(t *testing.T) {
	for _, keyBits := range []int{128, 256, 257, 512} {
		var resps []*core.Response
		for _, count := range []int{0, 1, 588} {
			label := fmt.Sprintf("%d-bit key, %d candidates", keyBits, count)
			body, resp := responseBody(t, keyBits, count)
			got := sameResponse(t, label, body)
			for i, d := range resp.Docs {
				if got[i].Doc != d.Doc || got[i].Enc.Cmp(d.Enc) != 0 {
					t.Fatalf("%s: candidate %d does not round-trip", label, i)
				}
			}
			resps = append(resps, resp)
		}
		var buf bytes.Buffer
		if err := WriteBatchResponse(&buf, resps, make([]core.Stats, len(resps))); err != nil {
			t.Fatal(err)
		}
		_, body, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		batch, _, err := DecodeBatchResponse(body)
		if err != nil || len(batch) != len(resps) {
			t.Fatalf("%d-bit batch: %d results (%v)", keyBits, len(batch), err)
		}
		for qi, resp := range resps {
			if len(batch[qi]) != len(resp.Docs) {
				t.Fatalf("%d-bit batch result %d: %d candidates, want %d", keyBits, qi, len(batch[qi]), len(resp.Docs))
			}
			for i, d := range resp.Docs {
				if batch[qi][i].Doc != d.Doc || batch[qi][i].Enc.Cmp(d.Enc) != 0 {
					t.Fatalf("%d-bit batch result %d: candidate %d does not round-trip", keyBits, qi, i)
				}
			}
		}
	}
	honest := append([]byte{0x85}, rawElement([]byte{9, 8, 7})...)
	stats := []byte{0x81, 0x82, 0x83}
	for _, h := range hostileElements() {
		el := append([]byte{0x87}, h.enc...)
		sameResponse(t, h.name+" alone", bytes.Join([][]byte{{0x81}, el, stats}, nil))
		body := bytes.Join([][]byte{{0x83}, honest, el, honest, stats}, nil)
		sameResponse(t, h.name+" between", body)
		sameResponse(t, h.name+" with a tail", append(body, 0xFF))
		for cut := range body {
			sameResponse(t, fmt.Sprintf("%s cut at %d", h.name, cut), body[:cut])
		}
	}
	sameResponse(t, "doc id past int32", bytes.Join([][]byte{{0x81}, vbyte.Append(nil, 1<<31), rawElement([]byte{1}), stats}, nil))
}

// TestDecodedCandidatesDoNotShareCapacity: a response's ciphertexts lie
// side by side in one word slab, so growing one in place must not reach
// its neighbours.
func TestDecodedCandidatesDoNotShareCapacity(t *testing.T) {
	body, resp := responseBody(t, 256, 3)
	cands, _, err := DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	cands[1].Enc.Mul(cands[1].Enc, cands[1].Enc)
	cands[1].Enc.Lsh(cands[1].Enc, 640)
	for _, i := range []int{0, 2} {
		if cands[i].Enc.Cmp(resp.Docs[i].Enc) != 0 {
			t.Fatalf("a neighbour's arithmetic changed candidate %d", i)
		}
	}
}

// forgedCountFrames are the minimal bodies carrying each ranking
// decoder's maximum element count: a valid key where the decoder wants
// one, then the count and nothing behind it.
func forgedCountFrames() map[byte][]byte {
	key := bytes.Join([][]byte{rawElement([]byte{7}), rawElement([]byte{3}), rawElement([]byte{5})}, nil)
	return map[byte][]byte{
		TypeQuery:         vbyte.Append(bytes.Clone(key), maxEntries),
		TypeBatchQuery:    vbyte.Append(append(bytes.Clone(key), 0x81), maxEntries),
		TypeResponse:      vbyte.Append(nil, maxCandidates),
		TypeBatchResponse: vbyte.Append([]byte{0x81}, maxCandidates),
	}
}

// TestRankingDecodersRefuseForgedCounts: a count the body cannot hold is
// refused before anything is sized by it — the 64 MiB of entries (256 MiB
// of candidates) a dozen bytes used to cost the decoding side.
func TestRankingDecodersRefuseForgedCounts(t *testing.T) {
	decoders := map[byte]func([]byte) error{
		TypeQuery:         func(b []byte) error { _, err := DecodeQuery(b); return err },
		TypeBatchQuery:    func(b []byte) error { _, err := DecodeBatchQuery(b); return err },
		TypeResponse:      func(b []byte) error { _, _, err := DecodeResponse(b); return err },
		TypeBatchResponse: func(b []byte) error { _, _, err := DecodeBatchResponse(b); return err },
	}
	for typ, body := range forgedCountFrames() {
		decode := decoders[typ]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(body)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "count: value out of range") {
			t.Errorf("type %d: a %d-byte body forging the maximum count got %v, want the count refusal", typ, len(body), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<10 {
			t.Errorf("type %d: refusing a %d-byte body allocated %d bytes", typ, len(body), grew)
		}
	}
	// The floors are exact: the densest bodies the element loops accept
	// still decode — one-byte flags, and zero ciphertexts of a bare length
	// byte each.
	q := bytes.Join([][]byte{rawElement([]byte{7}), rawElement([]byte{3}), rawElement([]byte{5}), {0x82, 0x81, 0x81, 6, 0x82, 0x81, 5}}, nil)
	if got, err := DecodeQuery(q); err != nil || len(got.Entries) != 2 {
		t.Errorf("densest query: %v", err)
	}
	r := []byte{0x83, 0x81, 0x80, 0x82, 0x80, 0x83, 0x80, 0x80, 0x80, 0x80}
	if got, _, err := DecodeResponse(r); err != nil || len(got) != 3 || got[2].Enc.Sign() != 0 {
		t.Errorf("densest response: %v", err)
	}
}

// TestResponseDecodeAllocations: a response costs the candidate slice and
// the two slabs, whatever its candidate count.
func TestResponseDecodeAllocations(t *testing.T) {
	body, _ := responseBody(t, 256, 588)
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := DecodeResponse(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("decoding a 588-candidate response allocates %.0f times, want the candidate slice and two slabs", allocs)
	}
}

var benchCands []Candidate

func BenchmarkDecodeResponse(b *testing.B) {
	src := detrand.New("bench-response")
	k, err := benaloh.GenerateKey(src, 256, benaloh.Pow3(6))
	if err != nil {
		b.Fatal(err)
	}
	resp := &core.Response{}
	for i := 0; i < 588; i++ {
		enc, err := k.EncryptInt(src, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		resp.Docs = append(resp.Docs, core.DocScore{Doc: index.DocID(i * 3), Enc: enc})
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp, core.Stats{}); err != nil {
		b.Fatal(err)
	}
	_, body, err := ReadMessage(&buf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if benchCands, _, err = DecodeResponse(body); err != nil {
			b.Fatal(err)
		}
	}
}
