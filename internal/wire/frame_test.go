package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/core"
	"embellish/internal/detrand"
	"embellish/internal/index"
	"embellish/internal/simio"
	"embellish/internal/vbyte"
)

// writeCounter counts the Write calls a frame costs and keeps the bytes.
type writeCounter struct {
	writes int
	buf    bytes.Buffer
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// refFrame is the definition of a frame's bytes: the 4-byte
// little-endian length of type and body, the type byte, the body.
func refFrame(typ byte, body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(1+len(body)))
	return append(append(out, typ), body...)
}

// refCandidates is the definition of a candidate set's bytes: the count,
// then per candidate its id and its ciphertext's minimal big-endian
// magnitude behind a vbyte length, then the three stats figures.
func refCandidates(body []byte, cands []Candidate, st ResponseStats) []byte {
	body = vbyte.Append(body, uint64(len(cands)))
	for _, c := range cands {
		mag := c.Enc.Bytes()
		body = append(vbyte.Append(vbyte.Append(body, uint64(c.Doc)), uint64(len(mag))), mag...)
	}
	for _, v := range []int{st.Postings, st.Seeks, st.IOBytes} {
		body = vbyte.Append(body, uint64(v))
	}
	return body
}

// edgeValues are magnitudes whose words hold zero bytes, end exactly on a
// word, or start a new one.
func edgeValues() []*big.Int {
	one := big.NewInt(1)
	out := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(255), big.NewInt(256)}
	for _, bits := range []int{8, 63, 64, 65, 127, 128, 129, 256, 257, 512} {
		p := new(big.Int).Lsh(one, uint(bits))
		out = append(out, p, new(big.Int).Sub(p, one), new(big.Int).Add(p, one))
	}
	return out
}

// TestAppendBigFromWords: appendBig writes a magnitude from its words as
// big.Int's own Bytes does, at every width up to nine words, and
// putMagnitude writes it zero-padded to a wider slot.
func TestAppendBigFromWords(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vs := edgeValues()
	for bits := 1; bits <= 9*64; bits++ {
		vs = append(vs, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits))))
	}
	for _, v := range vs {
		mag := v.Bytes()
		want := append(vbyte.Append([]byte{0xee}, uint64(len(mag))), mag...)
		if got := appendBig([]byte{0xee}, v); !bytes.Equal(got, want) {
			t.Fatalf("appendBig(%x) = %x, want %x", v, got, want)
		}
		if got := bigSize(v); got != len(want)-1 {
			t.Fatalf("bigSize(%x) = %d, appendBig spends %d", v, got, len(want)-1)
		}
		width := (v.BitLen()+7)/8 + rng.Intn(4)
		got := make([]byte, width)
		if putMagnitude(got, v.Bits()); !bytes.Equal(got, v.FillBytes(make([]byte, width))) {
			t.Fatalf("%x zero-padded to %d bytes = %x", v, width, got)
		}
	}
}

// TestRankingFramesOneWrite: every ranking reply and its router
// re-framing is the reference bytes, in one Write, at every key width,
// for an empty, a one-candidate and a W2k-sized candidate set; and so is
// a frame of every other writer.
func TestRankingFramesOneWrite(t *testing.T) {
	check := func(t *testing.T, label string, want []byte, write func(io.Writer) error) {
		t.Helper()
		var w writeCounter
		if err := write(&w); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if w.writes != 1 || !bytes.Equal(w.buf.Bytes(), want) {
			t.Fatalf("%s: %d writes of %x, want one of %x", label, w.writes, w.buf.Bytes(), want)
		}
	}
	for _, keyBits := range []int{128, 256, 257, 512} {
		var resps []*core.Response
		var stats []core.Stats
		var cands [][]Candidate
		var rstats []ResponseStats
		batch := vbyte.Append(nil, 4)
		for i, count := range []int{0, 1, 588} {
			_, resp := responseBody(t, keyBits, count)
			if count == 1 {
				resp.Docs[0].Enc = edgeValues()[i+3] // a magnitude with zero bytes
			}
			st := core.Stats{Postings: 714 * i, IO: simio.Accounting{Seeks: 3, Bytes: 1 << 20}}
			rst := ResponseStats{Postings: st.Postings, Seeks: st.IO.Seeks, IOBytes: st.IO.Bytes}
			want := refCandidates(nil, resp.Docs, rst)
			label := fmt.Sprintf("%d-bit key, %d candidates", keyBits, count)
			check(t, label, refFrame(TypeResponse, want), func(w io.Writer) error { return WriteResponse(w, resp, st) })
			check(t, label+" (router)", refFrame(TypeResponse, want), func(w io.Writer) error { return WriteCandidateResponse(w, resp.Docs, rst) })
			resps, stats = append(resps, resp), append(stats, st)
			cands, rstats = append(cands, resp.Docs), append(rstats, rst)
			batch = append(batch, want...)
		}
		resps, stats = append(resps, resps[2]), append(stats, stats[2])
		cands, rstats = append(cands, cands[2]), append(rstats, rstats[2])
		batch = refCandidates(batch, cands[2], rstats[2])
		label := fmt.Sprintf("%d-bit batch", keyBits)
		check(t, label, refFrame(TypeBatchResponse, batch), func(w io.Writer) error { return WriteBatchResponse(w, resps, stats) })
		check(t, label+" (router)", refFrame(TypeBatchResponse, batch), func(w io.Writer) error { return WriteCandidateBatchResponse(w, cands, rstats) })
	}

	k := sampleKey(t)
	q := sampleQuery(t, k)
	frames := map[string]func(io.Writer) error{
		"query":       func(w io.Writer) error { return WriteQuery(w, q) },
		"batch query": func(w io.Writer) error { return WriteBatchQuery(w, []*core.Query{q, q}) },
		"error":       func(w io.Writer) error { return WriteError(w, "refused") },
		"raw":         func(w io.Writer) error { return WriteRaw(w, 42, []byte("body")) },
		"add docs":    func(w io.Writer) error { return WriteAddDocs(w, []DocText{{ID: 1, Text: "a b"}}) },
		"delete docs": func(w io.Writer) error { return WriteDeleteDocs(w, []uint32{1, 300}) },
		"admin ok":    func(w io.Writer) error { return WriteAdminOK(w, 10, 2) },
		"WAL pull":    func(w io.Writer) error { return WriteWALPull(w, 1<<40) },
		"WAL chunk": func(w io.Writer) error {
			return WriteWALChunk(w, WALChunk{PrimarySeq: 9, LastSeq: 7, More: true, Records: []byte{1, 2}})
		},
		"cluster map": func(w io.Writer) error {
			return WriteClusterMap(w, ClusterMap{Base: 5, Partitions: [][]string{{"a:1"}}})
		},
		"map request":  WriteClusterMapRequest,
		"lexicon sync": func(w io.Writer) error { return WriteLexiconSync(w, 3) },
		"lexicon":      func(w io.Writer) error { return WriteLexicon(w, Lexicon{Version: 3, Current: true}) },
		"risk audit":   func(w io.Writer) error { return WriteRiskAudit(w, RiskAudit{Queries: 4}) },
		"stats":        func(w io.Writer) error { return WriteStats(w, Stats{1, 2, 3}) },
		"hello":        func(w io.Writer) error { return WritePIRHello(w, nil) },
	}
	for name, write := range frames {
		var w writeCounter
		if err := write(&w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := w.buf.Bytes()
		typ, body, err := ReadMessage(bytes.NewReader(raw))
		if err != nil || w.writes != 1 || !bytes.Equal(raw, refFrame(typ, body)) {
			t.Fatalf("%s: %d writes of %x (%v), want one frame", name, w.writes, raw, err)
		}
	}
}

// BenchmarkWriteResponse encodes a W2k ranking reply — 588 candidates of
// 32-byte ciphertexts under a 256-bit key — and reports the Write calls
// one frame costs.
func BenchmarkWriteResponse(b *testing.B) {
	src := detrand.New("bench-write-response")
	k, err := benaloh.GenerateKey(src, 256, benaloh.Pow3(6))
	if err != nil {
		b.Fatal(err)
	}
	resp := &core.Response{}
	for i := range 588 {
		enc, err := k.EncryptInt(src, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		resp.Docs = append(resp.Docs, core.DocScore{Doc: index.DocID(i * 3), Enc: enc})
	}
	st := core.Stats{Postings: 714, IO: simio.Accounting{Seeks: 3, Bytes: 1 << 20}}
	var w writeCounter
	b.ReportAllocs()
	for b.Loop() {
		w.buf.Reset()
		if err := WriteResponse(&w, resp, st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.writes)/float64(b.N), "writes/op")
}
