package wire

import (
	"bytes"
	"math/big"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/core"
	"embellish/internal/index"
	"embellish/internal/simio"
	"embellish/internal/vbyte"
)

func TestBatchQueryRoundTrip(t *testing.T) {
	k := sampleKey(t)
	qs := []*core.Query{sampleQuery(t, k), sampleQuery(t, k), sampleQuery(t, k)}
	var buf bytes.Buffer
	if err := WriteBatchQuery(&buf, qs); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeBatchQuery {
		t.Fatalf("type = %d", typ)
	}
	got, err := DecodeBatchQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("decoded %d queries, want %d", len(got), len(qs))
	}
	for qi, q := range got {
		if q.Pub.N.Cmp(k.N) != 0 || q.Pub.G.Cmp(k.G) != 0 || q.Pub.R.Cmp(k.R) != 0 {
			t.Fatalf("query %d: public key mangled", qi)
		}
		if len(q.Entries) != len(qs[qi].Entries) {
			t.Fatalf("query %d: %d entries, want %d", qi, len(q.Entries), len(qs[qi].Entries))
		}
		for i, e := range q.Entries {
			want := qs[qi].Entries[i]
			if e.Term != want.Term || e.Flag.Cmp(want.Flag) != 0 {
				t.Fatalf("query %d entry %d mangled", qi, i)
			}
		}
	}
}

func TestBatchQueryRejectsMixedKeys(t *testing.T) {
	k1 := sampleKey(t)
	k2, err := benaloh.GenerateKey(nil, 192, benaloh.Pow3(8))
	if err != nil {
		t.Fatal(err)
	}
	qs := []*core.Query{sampleQuery(t, k1), sampleQuery(t, k2)}
	var buf bytes.Buffer
	if err := WriteBatchQuery(&buf, qs); err == nil {
		t.Fatal("mixed-key batch accepted")
	}
}

func TestBatchQueryRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatchQuery(&buf, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	k := sampleKey(t)
	mkResp := func(seed int64) (*core.Response, core.Stats) {
		resp := &core.Response{}
		for i := int64(0); i < 4; i++ {
			resp.Docs = append(resp.Docs, core.DocScore{
				Doc: index.DocID(seed*10 + i),
				Enc: new(big.Int).Add(k.N, big.NewInt(-seed-i-1)),
			})
		}
		var st core.Stats
		st.Postings = int(100 + seed)
		st.IO = simio.Accounting{Seeks: int(seed + 1), Bytes: int(1000 * (seed + 1))}
		return resp, st
	}
	var resps []*core.Response
	var stats []core.Stats
	for s := int64(0); s < 3; s++ {
		r, st := mkResp(s)
		resps = append(resps, r)
		stats = append(stats, st)
	}
	var buf bytes.Buffer
	if err := WriteBatchResponse(&buf, resps, stats); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeBatchResponse {
		t.Fatalf("type = %d", typ)
	}
	cands, rstats, err := DecodeBatchResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 || len(rstats) != 3 {
		t.Fatalf("decoded %d/%d, want 3/3", len(cands), len(rstats))
	}
	for qi := range cands {
		if len(cands[qi]) != len(resps[qi].Docs) {
			t.Fatalf("response %d: %d candidates, want %d", qi, len(cands[qi]), len(resps[qi].Docs))
		}
		for i, c := range cands[qi] {
			want := resps[qi].Docs[i]
			if c.Doc != want.Doc || c.Enc.Cmp(want.Enc) != 0 {
				t.Fatalf("response %d candidate %d mangled", qi, i)
			}
		}
		if rstats[qi].Postings != stats[qi].Postings ||
			rstats[qi].Seeks != stats[qi].IO.Seeks ||
			rstats[qi].IOBytes != stats[qi].IO.Bytes {
			t.Fatalf("response %d stats mangled: %+v", qi, rstats[qi])
		}
	}
}

func TestBatchQueryTruncated(t *testing.T) {
	k := sampleKey(t)
	qs := []*core.Query{sampleQuery(t, k)}
	var buf bytes.Buffer
	if err := WriteBatchQuery(&buf, qs); err != nil {
		t.Fatal(err)
	}
	_, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(body); cut += 7 {
		if _, err := DecodeBatchQuery(body[:len(body)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
}

// TestDecodeRejectsInt32Overflow: a term or doc id of exactly 2^31
// wraps a wordnet.TermID/index.DocID (both int32) negative, which would
// panic the server on a negative slice index — decoders must reject it.
func TestDecodeRejectsInt32Overflow(t *testing.T) {
	k := sampleKey(t)
	q := sampleQuery(t, k)
	encode := func(term uint64) []byte {
		var body []byte
		for _, v := range []*big.Int{k.N, k.G, k.R} {
			b := v.Bytes()
			body = vbyte.Append(body, uint64(len(b)))
			body = append(body, b...)
		}
		body = vbyte.Append(body, 1) // one entry
		body = vbyte.Append(body, term)
		fb := q.Entries[0].Flag.Bytes()
		body = vbyte.Append(body, uint64(len(fb)))
		body = append(body, fb...)
		return body
	}
	if _, err := DecodeQuery(encode(1 << 31)); err == nil {
		t.Fatal("DecodeQuery accepted term 2^31 (wraps negative int32)")
	}
	if _, err := DecodeQuery(encode(1<<31 - 1)); err != nil {
		t.Fatalf("DecodeQuery rejected max valid term: %v", err)
	}

	// Same bound in the batch decoder: splice the hostile entry into a
	// single-query batch body.
	var batch []byte
	for _, v := range []*big.Int{k.N, k.G, k.R} {
		b := v.Bytes()
		batch = vbyte.Append(batch, uint64(len(b)))
		batch = append(batch, b...)
	}
	batch = vbyte.Append(batch, 1) // one query
	batch = vbyte.Append(batch, 1) // one entry
	batch = vbyte.Append(batch, 1<<31)
	fb := q.Entries[0].Flag.Bytes()
	batch = vbyte.Append(batch, uint64(len(fb)))
	batch = append(batch, fb...)
	if _, err := DecodeBatchQuery(batch); err == nil {
		t.Fatal("DecodeBatchQuery accepted term 2^31 (wraps negative int32)")
	}
}

// TestQueryDecodersRefuseBoundaries: both ranking-query decoders read the
// body through one key parser and one entry parser, and both refuse a
// zero N, G or R, a zero flag and a flag equal to n — the edges of
// "positive" and of (0, n) — while the flag n−1 decodes. The zero-N case
// has no entries, so the key check alone must refuse it.
func TestQueryDecodersRefuseBoundaries(t *testing.T) {
	k := sampleKey(t)
	decoders := map[string]func(q *core.Query) error{
		"DecodeQuery": func(q *core.Query) error {
			var buf bytes.Buffer
			if err := WriteQuery(&buf, q); err != nil {
				return err
			}
			_, body, err := ReadMessage(&buf)
			if err == nil {
				_, err = DecodeQuery(body)
			}
			return err
		},
		"DecodeBatchQuery": func(q *core.Query) error {
			var buf bytes.Buffer
			if err := WriteBatchQuery(&buf, []*core.Query{q}); err != nil {
				return err
			}
			_, body, err := ReadMessage(&buf)
			if err == nil {
				_, err = DecodeBatchQuery(body)
			}
			return err
		},
	}
	zero := new(big.Int)
	for _, c := range []struct {
		name string
		edit func(q *core.Query)
		ok   bool
	}{
		{"as drawn", func(*core.Query) {}, true},
		{"flag n-1", func(q *core.Query) { q.Entries[0].Flag = new(big.Int).Sub(k.N, big.NewInt(1)) }, true},
		{"zero N", func(q *core.Query) { q.Pub.N, q.Entries = zero, nil }, false},
		{"zero G", func(q *core.Query) { q.Pub.G = zero }, false},
		{"zero R", func(q *core.Query) { q.Pub.R = zero }, false},
		{"zero flag", func(q *core.Query) { q.Entries[0].Flag = zero }, false},
		{"flag n", func(q *core.Query) { q.Entries[0].Flag = k.N }, false},
	} {
		for name, decode := range decoders {
			q := sampleQuery(t, k)
			pub := *q.Pub
			q.Pub = &pub
			c.edit(q)
			if err := decode(q); (err == nil) != c.ok {
				t.Errorf("%s, %s: error %v, want accepted %v", name, c.name, err, c.ok)
			}
		}
	}
}
