package embellish

import (
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"embellish/internal/corpus"
	"embellish/internal/detrand"
	"embellish/internal/wngen"
)

// liveTestEngine builds a fresh (uncached) engine the live tests can
// mutate freely.
func liveTestEngine(t testing.TB, maxSegments int) (*Engine, *Client) {
	t.Helper()
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.MaxSegments = maxSegments
	e, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	c, err := e.NewClient(detrand.New("live-test"))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return e, c
}

// moreDocs generates documents continuing the engine's id sequence,
// drawn from the searchable vocabulary so they actually score.
func moreDocs(e *Engine, n int, salt int) []Document {
	lemmas := e.SearchableLemmas()
	base := e.NextDocID()
	docs := make([]Document, n)
	for i := range docs {
		var b strings.Builder
		for j := 0; j < 25; j++ {
			b.WriteString(lemmas[(salt+7*i+3*j)%len(lemmas)])
			b.WriteByte(' ')
		}
		docs[i] = Document{ID: base + i, Text: b.String()}
	}
	return docs
}

// claim1Holds reports whether a private ranking equals the plaintext
// one: the same documents and scores in order, then only zero-score
// decoy candidates.
func claim1Holds(got, want []Result) bool {
	if len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
		return false
	}
	for _, r := range got[len(want):] {
		if r.Score != 0 {
			return false
		}
	}
	return true
}

// assertClaim1 checks that the private ranking equals the plaintext
// ranking — documents AND scores — on the engine's current corpus.
func assertClaim1(t *testing.T, e *Engine, c *Client, query string) {
	t.Helper()
	private, err := c.Search(query, 0)
	if err != nil {
		t.Fatalf("Search(%q): %v", query, err)
	}
	plain, err := e.PlaintextSearch(query, 0)
	if err != nil {
		t.Fatalf("PlaintextSearch(%q): %v", query, err)
	}
	if !claim1Holds(private, plain) {
		t.Fatalf("query %q: private %v, plaintext %v", query, private, plain)
	}
}

func liveQueries(e *Engine) []string {
	lemmas := e.SearchableLemmas()
	return []string{
		lemmas[1],
		lemmas[3] + " " + lemmas[11],
		lemmas[5] + " " + lemmas[17] + " " + lemmas[29],
	}
}

func TestAddDocumentsSearchableLive(t *testing.T) {
	e, c := liveTestEngine(t, 0)
	before := e.NumDocs()
	if err := e.AddDocuments(moreDocs(e, 15, 1)); err != nil {
		t.Fatalf("AddDocuments: %v", err)
	}
	if e.NumDocs() != before+15 {
		t.Fatalf("NumDocs = %d, want %d", e.NumDocs(), before+15)
	}
	if e.NumSegments() != 2 {
		t.Fatalf("NumSegments = %d, want 2 (no rebuild)", e.NumSegments())
	}
	for _, q := range liveQueries(e) {
		assertClaim1(t, e, c, q)
	}
	// Added documents are actually retrievable: at least one query must
	// rank a new doc.
	found := false
	for _, q := range liveQueries(e) {
		res, err := e.PlaintextSearch(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.DocID >= before {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no query ranked any added document")
	}
}

func TestDeleteDocumentsLive(t *testing.T) {
	e, c := liveTestEngine(t, 0)
	q := liveQueries(e)[1]
	res, err := e.PlaintextSearch(q, 1)
	if err != nil || len(res) == 0 {
		t.Fatalf("no plaintext hits to delete: %v", err)
	}
	victim := res[0].DocID
	if err := e.DeleteDocuments([]int{victim}); err != nil {
		t.Fatalf("DeleteDocuments: %v", err)
	}
	after, err := c.Search(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.DocID == victim {
			t.Fatalf("deleted doc %d still a candidate", victim)
		}
	}
	for _, qq := range liveQueries(e) {
		assertClaim1(t, e, c, qq)
	}
	// The write path surfaces the tombstone skips in the stats.
	eq, err := c.Embellish(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Process(eq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.TombstonesSkipped == 0 {
		t.Fatal("ProcessStats.TombstonesSkipped = 0 after deleting a scoring doc")
	}
}

func TestUpdateValidation(t *testing.T) {
	e, _ := liveTestEngine(t, 0)
	next := e.NextDocID()
	if err := e.AddDocuments(nil); err == nil {
		t.Fatal("empty add accepted")
	}
	if err := e.AddDocuments([]Document{{ID: next + 1, Text: "gap"}}); err == nil {
		t.Fatal("id gap accepted")
	}
	if err := e.AddDocuments([]Document{{ID: next - 1, Text: "reuse"}}); err == nil {
		t.Fatal("id reuse accepted")
	}
	if err := e.DeleteDocuments(nil); err == nil {
		t.Fatal("empty delete accepted")
	}
	if err := e.DeleteDocuments([]int{-1}); err == nil {
		t.Fatal("negative id accepted")
	}
	if bits.UintSize == 64 {
		// An id past int32 would wrap to some other (live) document if
		// it reached the DocID conversion.
		big := int64(1) << 33
		if err := e.DeleteDocuments([]int{int(big) + 2}); err == nil {
			t.Fatal("id past int32 accepted")
		}
	}
	if err := e.DeleteDocuments([]int{next}); err == nil {
		t.Fatal("unassigned id accepted")
	}
	if err := e.DeleteDocuments([]int{2}); err != nil {
		t.Fatalf("valid delete rejected: %v", err)
	}
	if err := e.DeleteDocuments([]int{2}); err == nil {
		t.Fatal("double delete accepted")
	}
	// Failed updates leave the engine unchanged and working.
	if e.NextDocID() != next {
		t.Fatalf("NextDocID moved to %d on failed adds", e.NextDocID())
	}
	if _, err := e.PlaintextSearch(liveQueries(e)[0], 5); err != nil {
		t.Fatalf("engine broken after rejected updates: %v", err)
	}
}

func TestMergePolicyBoundsEngineSegments(t *testing.T) {
	e, c := liveTestEngine(t, 2)
	for round := 0; round < 5; round++ {
		if err := e.AddDocuments(moreDocs(e, 3, 10+round)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.NumSegments() > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("merge policy left %d segments", e.NumSegments())
		}
		time.Sleep(time.Millisecond)
	}
	for _, q := range liveQueries(e) {
		assertClaim1(t, e, c, q)
	}
}

// TestIncrementalAddBeatsRebuild is the acceptance benchmark: adding
// 10% new documents to a 1,200-document world must not rebuild the full
// index, and must run at least 5x faster than a rebuild (in practice it
// is orders of magnitude faster: the segment build touches only the new
// documents and none of the bucket machinery).
func TestIncrementalAddBeatsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 1,200-doc world in -short mode")
	}
	world := syntheticWorldDocs(t, 2500, 1320, 1)
	base, extra := world[:1200], world[1200:]
	opts := DefaultOptions()
	opts.KeyBits = 256
	lex := SyntheticLexicon(2500, 1)
	e, err := NewEngine(lex, base, opts)
	if err != nil {
		t.Fatalf("NewEngine(base): %v", err)
	}

	t0 := time.Now()
	if err := e.AddDocuments(extra); err != nil {
		t.Fatalf("AddDocuments: %v", err)
	}
	addTime := time.Since(t0)
	if e.NumSegments() != 2 {
		t.Fatalf("add rebuilt the index: %d segments", e.NumSegments())
	}

	// A rebuild reuses its lexicon, so generation stays untimed.
	lex2 := SyntheticLexicon(2500, 1)
	t0 = time.Now()
	if _, err := NewEngine(lex2, world, opts); err != nil {
		t.Fatalf("NewEngine(full): %v", err)
	}
	rebuildTime := time.Since(t0)

	ratio := float64(rebuildTime) / float64(addTime)
	t.Logf("add %d docs: %v; full rebuild: %v; speedup %.1fx", len(extra), addTime, rebuildTime, ratio)
	if ratio < 5 {
		t.Fatalf("incremental add only %.1fx faster than rebuild (want >= 5x)", ratio)
	}
}

// syntheticWorldDocs generates a deterministic corpus over the
// synthetic lexicon, shared by the incremental-add test and benchmarks.
func syntheticWorldDocs(t testing.TB, synsets, numDocs int, seed int64) []Document {
	t.Helper()
	db := wngen.Generate(wngen.ScaledConfig(synsets, seed))
	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = numDocs
	ccfg.Seed = seed + 1
	corp := corpus.Generate(db, ccfg)
	docs := make([]Document, len(corp.Docs))
	for i, d := range corp.Docs {
		docs[i] = Document{ID: d.ID, Text: strings.Join(d.Tokens, " ")}
	}
	return docs
}
