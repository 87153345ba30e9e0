package wire

import (
	"bytes"
	"strings"
	"testing"

	"embellish/internal/vbyte"
)

func TestLexiconSyncRoundTrip(t *testing.T) {
	for _, version := range []uint64{0, 1, 1 << 40} {
		var buf bytes.Buffer
		if err := WriteLexiconSync(&buf, version); err != nil {
			t.Fatal(err)
		}
		typ, body, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != TypeLexiconSync {
			t.Fatalf("type = %d, want %d", typ, TypeLexiconSync)
		}
		got, err := DecodeLexiconSync(body)
		if err != nil {
			t.Fatal(err)
		}
		if got != version {
			t.Fatalf("version = %d, want %d", got, version)
		}
	}
	if _, err := DecodeLexiconSync([]byte{0x80, 0x99}); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeLexiconSync(nil); err == nil {
		t.Error("empty body accepted")
	}
}

func TestLexiconRoundTrip(t *testing.T) {
	in := Lexicon{
		Version:    42,
		ScoreSpace: 12,
		KeyBits:    256,
		Stopwords:  true,
		Org:        []byte("EBKT payload bytes for the organization"),
		Lex:        []byte("ELEX payload bytes for the synset db"),
	}
	var buf bytes.Buffer
	if err := WriteLexicon(&buf, in); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeLexicon {
		t.Fatalf("type = %d, want %d", typ, TypeLexicon)
	}
	out, err := DecodeLexicon(body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != in.Version || out.Current || out.ScoreSpace != in.ScoreSpace ||
		out.KeyBits != in.KeyBits || out.Stopwords != in.Stopwords ||
		!bytes.Equal(out.Org, in.Org) || !bytes.Equal(out.Lex, in.Lex) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestLexiconCurrentRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLexicon(&buf, Lexicon{Version: 9, Current: true}); err != nil {
		t.Fatal(err)
	}
	_, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeLexicon(body)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Current || out.Version != 9 || out.Org != nil || out.Lex != nil {
		t.Fatalf("current round trip mismatch: %+v", out)
	}
}

func TestLexiconHostileInputs(t *testing.T) {
	// A forged section length must be rejected BEFORE any allocation:
	// claim maxLexiconSection bytes with a near-empty body.
	var body []byte
	body = vbyte.Append(body, 1)   // version
	body = append(body, 1)         // full payload flag
	body = vbyte.Append(body, 12)  // score space
	body = vbyte.Append(body, 256) // key bits
	body = append(body, 0)         // stopwords
	forged := vbyte.Append(body, maxLexiconSection)
	forged = append(forged, 'x')
	if _, err := DecodeLexicon(forged); err == nil {
		t.Error("forged org length accepted")
	}
	// Oversized score-space claim.
	var ss []byte
	ss = vbyte.Append(ss, 1)
	ss = append(ss, 1)
	ss = vbyte.Append(ss, 1<<20)
	if _, err := DecodeLexicon(ss); err == nil {
		t.Error("oversized score space accepted")
	}
	// Out-of-range key bits.
	for _, kb := range []uint64{8, 1 << 20} {
		var b []byte
		b = vbyte.Append(b, 1)
		b = append(b, 1)
		b = vbyte.Append(b, 12)
		b = vbyte.Append(b, kb)
		if _, err := DecodeLexicon(b); err == nil {
			t.Errorf("key bits %d accepted", kb)
		}
	}
	// Zero-length section.
	zero := vbyte.Append(body, 0)
	if _, err := DecodeLexicon(zero); err == nil {
		t.Error("zero-length org section accepted")
	}
	// Bad flags and truncation.
	for _, b := range [][]byte{nil, {0x80}, {0x80, 2}, {0x80, 1, 0x8c, 2}} {
		if _, err := DecodeLexicon(b); err == nil {
			t.Errorf("hostile body %v accepted", b)
		}
	}
	// Trailing bytes after a complete payload.
	good := body
	good = vbyte.Append(good, 3)
	good = append(good, "org"...)
	good = vbyte.Append(good, 3)
	good = append(good, "lex"...)
	if _, err := DecodeLexicon(good); err != nil {
		t.Fatalf("well-formed body rejected: %v", err)
	}
	if _, err := DecodeLexicon(append(append([]byte{}, good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Writer-side refusals: empty sections and oversized sections.
	if err := WriteLexicon(&bytes.Buffer{}, Lexicon{Version: 1, ScoreSpace: 1, Lex: []byte("x")}); err == nil {
		t.Error("writer accepted missing org section")
	}
}

func TestDecoyQueryFramesLikeQuery(t *testing.T) {
	// The decoy frame must be byte-identical to the query frame except
	// for the type byte — that is the indistinguishability contract.
	query := sampleQuery(t, sampleKey(t))
	var dec, q bytes.Buffer
	if err := WriteQueryDecoy(&dec, query); err != nil {
		t.Fatal(err)
	}
	if err := WriteQuery(&q, query); err != nil {
		t.Fatal(err)
	}
	db, qb := dec.Bytes(), q.Bytes()
	if len(db) != len(qb) {
		t.Fatalf("frame lengths differ: %d vs %d", len(db), len(qb))
	}
	if db[4] != TypeDecoyQuery || qb[4] != TypeQuery {
		t.Fatalf("type bytes: %d / %d", db[4], qb[4])
	}
	if !bytes.Equal(db[5:], qb[5:]) {
		t.Fatal("decoy body diverges from query body")
	}
}

func TestRiskAuditRoundTrip(t *testing.T) {
	in := RiskAudit{
		Queries: 10, Decoys: 40, Audited: 9, Skipped: 1,
		RiskSumMicros: 1234567, MaxRiskMicros: 400000,
		Rounds: 10, RoundHits: 3,
		CoherenceGenuineSumMicros: 9_500_000, CoherenceDecoySumMicros: 31_000_000,
	}
	var buf bytes.Buffer
	if err := WriteRiskAudit(&buf, in); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeRiskAudit {
		t.Fatalf("type = %d, want %d", typ, TypeRiskAudit)
	}
	out, err := DecodeRiskAudit(body)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

// TestRiskAuditSchemaEvolution pins the append-only contract: an older
// peer's shorter field list decodes (missing fields zero), a newer
// peer's longer list decodes (extras ignored), and absurd claimed
// counts are refused before any work.
func TestRiskAuditSchemaEvolution(t *testing.T) {
	var short []byte
	short = vbyte.Append(short, 2)
	short = vbyte.Append(short, 5)
	short = vbyte.Append(short, 20)
	a, err := DecodeRiskAudit(short)
	if err != nil {
		t.Fatal(err)
	}
	if a.Queries != 5 || a.Decoys != 20 || a.Audited != 0 {
		t.Fatalf("short decode: %+v", a)
	}

	var long []byte
	long = vbyte.Append(long, 12)
	for i := 0; i < 12; i++ {
		long = vbyte.Append(long, uint64(i+1))
	}
	a, err = DecodeRiskAudit(long)
	if err != nil {
		t.Fatal(err)
	}
	if a.Queries != 1 || a.CoherenceDecoySumMicros != 10 {
		t.Fatalf("long decode: %+v", a)
	}

	var forged []byte
	forged = vbyte.Append(forged, 1<<30)
	if _, err := DecodeRiskAudit(forged); err == nil {
		t.Error("forged field count accepted")
	}
	if _, err := DecodeRiskAudit(nil); err == nil {
		t.Error("empty body accepted")
	}
	var trailing []byte
	trailing = vbyte.Append(trailing, 1)
	trailing = vbyte.Append(trailing, 7)
	trailing = append(trailing, 0x99)
	if _, err := DecodeRiskAudit(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestRiskAuditRequestIsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRiskAuditRequest(&buf); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeRiskAudit || len(body) != 0 {
		t.Fatalf("request frame: type %d, %d body bytes", typ, len(body))
	}
}

func TestStaleLexiconRefusalFrozen(t *testing.T) {
	// The prefix is matched by clients; a rewording is a wire break.
	if StaleLexiconRefusal != "client lexicon is stale" {
		t.Fatalf("StaleLexiconRefusal changed: %q", StaleLexiconRefusal)
	}
	if strings.ContainsAny(StaleLexiconRefusal, "\n\r") {
		t.Fatal("refusal prefix must be single-line")
	}
}
