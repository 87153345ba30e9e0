package embellish

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"embellish/internal/detrand"
)

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	e, c := testEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != e.NumDocs() ||
		loaded.NumSearchableTerms() != e.NumSearchableTerms() ||
		loaded.NumBuckets() != e.NumBuckets() {
		t.Fatalf("shape mismatch after load: %d/%d docs, %d/%d terms, %d/%d buckets",
			loaded.NumDocs(), e.NumDocs(),
			loaded.NumSearchableTerms(), e.NumSearchableTerms(),
			loaded.NumBuckets(), e.NumBuckets())
	}
	// The searchable dictionary keeps its Algorithm 1 sequence order,
	// which PrivacyAudit samples from.
	if !slices.Equal(loaded.SearchableLemmas(), e.SearchableLemmas()) {
		t.Fatal("searchable dictionary order changed across Save and LoadEngine")
	}

	// A query embellished against the ORIGINAL engine must process
	// identically on the LOADED engine: that is the operational point of
	// persistence (client and server share one organization).
	query := e.lex.db.Lemma(e.searchable[2]) + " " + e.lex.db.Lemma(e.searchable[7])
	q, err := c.Embellish(query)
	if err != nil {
		t.Fatal(err)
	}
	respA, err := e.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	respB, err := loaded.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := c.Decode(respA, 10)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.Decode(respB, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("result sizes differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, ra[i], rb[i])
		}
	}

	// And a fresh client against the loaded engine still satisfies
	// Claim 1 end to end.
	c2, err := loaded.NewClient(detrand.New("persist-client"))
	if err != nil {
		t.Fatal(err)
	}
	private, err := c2.Search(query, 10)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := loaded.PlaintextSearch(query, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if private[i] != plain[i] {
			t.Fatalf("loaded engine rank %d: %+v vs %+v", i, private[i], plain[i])
		}
	}
}

func TestLoadEngineRejectsGarbage(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("not an engine")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadEngine(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadEngineRejectsCorruptSection(t *testing.T) {
	e, _ := testEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Damage a byte inside the first (lexicon) section payload.
	data[64] ^= 0xaa
	if _, err := LoadEngine(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt engine file accepted")
	}
}

func TestLoadEngineRejectsTruncation(t *testing.T) {
	e, _ := testEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, 30, buf.Len() / 2} {
		if _, err := LoadEngine(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestV1EngineFilesStillLoad writes the legacy single-index format and
// checks it loads through the compat path as a one-segment live engine
// with identical rankings — the upgrade guarantee for files produced
// before the segmented index existed.
func TestV1EngineFilesStillLoad(t *testing.T) {
	e, c := testEngine(t)
	var buf bytes.Buffer
	if err := e.saveV1(&buf); err != nil {
		t.Fatalf("saveV1: %v", err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadEngine(v1): %v", err)
	}
	if loaded.NumSegments() != 1 {
		t.Fatalf("v1 engine loaded as %d segments, want 1", loaded.NumSegments())
	}
	if loaded.NumDocs() != e.NumDocs() || loaded.NextDocID() != e.NextDocID() {
		t.Fatalf("v1 shape mismatch: %d/%d docs, next %d/%d",
			loaded.NumDocs(), e.NumDocs(), loaded.NextDocID(), e.NextDocID())
	}
	query := e.lex.db.Lemma(e.searchable[2]) + " " + e.lex.db.Lemma(e.searchable[7])
	q, err := c.Embellish(query)
	if err != nil {
		t.Fatal(err)
	}
	respA, err := e.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	respB, err := loaded.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := c.Decode(respA, 10)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.Decode(respB, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("result sizes differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	// A v1-loaded engine accepts online updates immediately.
	if err := loaded.AddDocuments([]Document{{ID: loaded.NextDocID(), Text: query}}); err != nil {
		t.Fatalf("AddDocuments on v1-loaded engine: %v", err)
	}
}

// TestSaveLoadLiveStateRoundTrip persists an engine mid-life — several
// segments and tombstones — and checks the loaded engine reproduces the
// exact corpus state and rankings, and keeps accepting updates.
func TestSaveLoadLiveStateRoundTrip(t *testing.T) {
	e, c := liveTestEngine(t, -1)
	if err := e.AddDocuments(moreDocs(e, 10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddDocuments(moreDocs(e, 5, 8)); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteDocuments([]int{2, 121, 130}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A mid-life engine cannot go back to v1.
	if err := e.saveV1(&bytes.Buffer{}); err == nil {
		t.Fatal("saveV1 accepted a multi-segment engine")
	}

	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadEngine(v2): %v", err)
	}
	if loaded.NumSegments() != e.NumSegments() || loaded.NumDocs() != e.NumDocs() || loaded.NextDocID() != e.NextDocID() {
		t.Fatalf("live shape mismatch: segments %d/%d, docs %d/%d, next %d/%d",
			loaded.NumSegments(), e.NumSegments(), loaded.NumDocs(), e.NumDocs(),
			loaded.NextDocID(), e.NextDocID())
	}
	query := liveQueries(e)[2]
	want, err := e.PlaintextSearch(query, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PlaintextSearch(query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("plaintext sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Queries embellished against the original engine process
	// identically on the loaded one, and deleted ids stay dead.
	q, err := c.Embellish(query)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := loaded.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Decode(resp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res[i].DocID != want[i].DocID || res[i].Score != want[i].Score {
			t.Fatalf("loaded private rank %d: %+v vs %+v", i, res[i], want[i])
		}
	}
	if err := loaded.DeleteDocuments([]int{121}); err == nil {
		t.Fatal("loaded engine resurrected a deleted id")
	}
	if err := loaded.AddDocuments([]Document{{ID: loaded.NextDocID(), Text: query}}); err != nil {
		t.Fatalf("AddDocuments on loaded engine: %v", err)
	}
}
