package embellish

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"embellish/internal/detrand"
)

// demoDocs builds a small corpus over the mini lexicon's vocabulary so
// facade tests exercise realistic multi-word terms.
func demoDocs(t testing.TB) []Document {
	t.Helper()
	lex := MiniLexicon()
	var lemmas []string
	for _, tm := range lex.db.AllTerms() {
		lemmas = append(lemmas, lex.db.Lemma(tm))
	}
	rng := rand.New(rand.NewSource(17))
	docs := make([]Document, 120)
	for i := range docs {
		var b strings.Builder
		n := 30 + rng.Intn(40)
		for j := 0; j < n; j++ {
			b.WriteString(lemmas[rng.Intn(len(lemmas))])
			b.WriteByte(' ')
		}
		docs[i] = Document{ID: i, Text: b.String()}
	}
	return docs
}

var (
	cachedEngine *Engine
	cachedClient *Client
)

func testEngine(t *testing.T) (*Engine, *Client) {
	t.Helper()
	if cachedEngine == nil {
		opts := DefaultOptions()
		opts.BucketSize = 4
		opts.KeyBits = 256
		opts.ScoreSpace = 10
		e, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		c, err := e.NewClient(detrand.New("facade-test"))
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		cachedEngine, cachedClient = e, c
	}
	return cachedEngine, cachedClient
}

func TestNewEngineValidation(t *testing.T) {
	docs := []Document{{ID: 0, Text: "osteosarcoma therapy"}}
	if _, err := NewEngine(nil, docs, DefaultOptions()); err == nil {
		t.Fatal("nil lexicon accepted")
	}
	if _, err := NewEngine(MiniLexicon(), nil, DefaultOptions()); err == nil {
		t.Fatal("no documents accepted")
	}
	bad := DefaultOptions()
	bad.BucketSize = 1
	if _, err := NewEngine(MiniLexicon(), docs, bad); err == nil {
		t.Fatal("BucketSize=1 accepted")
	}
	// A single tiny document cannot yield enough searchable terms.
	if _, err := NewEngine(MiniLexicon(), docs, DefaultOptions()); err == nil {
		t.Fatal("starved dictionary accepted")
	}
}

func TestEngineAccessors(t *testing.T) {
	e, _ := testEngine(t)
	if e.NumDocs() != 120 {
		t.Fatalf("NumDocs = %d", e.NumDocs())
	}
	if e.NumSearchableTerms() < 8 {
		t.Fatalf("searchable dictionary too small: %d", e.NumSearchableTerms())
	}
	if e.NumBuckets() < 2 {
		t.Fatalf("NumBuckets = %d", e.NumBuckets())
	}
}

func TestBucketLookup(t *testing.T) {
	e, _ := testEngine(t)
	// Find any searchable lemma via its bucket.
	lemma := e.lex.db.Lemma(e.searchable[0])
	decoys, ok := e.Bucket(lemma)
	if !ok {
		t.Fatalf("Bucket(%q) not found", lemma)
	}
	if len(decoys) < 2 {
		t.Fatalf("bucket of %q has %d terms", lemma, len(decoys))
	}
	found := false
	for _, d := range decoys {
		if d == lemma {
			found = true
		}
	}
	if !found {
		t.Fatalf("bucket of %q does not contain it: %v", lemma, decoys)
	}
	if _, ok := e.Bucket("no-such-term-xyz"); ok {
		t.Fatal("unknown lemma reported a bucket")
	}
}

func TestEmbellishHidesQueryAmongDecoys(t *testing.T) {
	e, c := testEngine(t)
	lemma := e.lex.db.Lemma(e.searchable[3])
	q, err := c.Embellish(lemma)
	if err != nil {
		t.Fatal(err)
	}
	terms := q.Terms()
	if len(terms) != e.opts.BucketSize {
		t.Fatalf("embellished query has %d terms, want BucketSize=%d", len(terms), e.opts.BucketSize)
	}
	found := false
	for _, tm := range terms {
		if tm == lemma {
			found = true
		}
	}
	if !found {
		t.Fatalf("genuine term %q missing from embellished query %v", lemma, terms)
	}
	if q.Bytes() <= 0 {
		t.Fatal("query bytes not accounted")
	}
}

func TestEmbellishSkipsUnknownWords(t *testing.T) {
	e, c := testEngine(t)
	lemma := e.lex.db.Lemma(e.searchable[0])
	q, err := c.Embellish(lemma + " zzzunknownzzz")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Skipped) != 1 || q.Skipped[0] != "zzzunknownzzz" {
		t.Fatalf("Skipped = %v", q.Skipped)
	}
}

func TestEmbellishAllUnknownFails(t *testing.T) {
	_, c := testEngine(t)
	if _, err := c.Embellish("zzz yyy xxx"); err == nil {
		t.Fatal("fully unknown query accepted")
	}
	if _, err := c.Embellish(""); err == nil {
		t.Fatal("empty query accepted")
	}
}

// TestClaim1EndToEnd verifies the paper's Claim 1 through the public
// API: the private search ranking equals the plaintext ranking.
func TestClaim1EndToEnd(t *testing.T) {
	e, c := testEngine(t)
	for i := 0; i < 4; i++ {
		lemma := e.lex.db.Lemma(e.searchable[i*5])
		lemma2 := e.lex.db.Lemma(e.searchable[i*5+2])
		query := lemma + " " + lemma2

		private, err := c.Search(query, 10)
		if err != nil {
			t.Fatalf("query %q: %v", query, err)
		}
		plain, err := e.PlaintextSearch(query, 10)
		if err != nil {
			t.Fatalf("plaintext %q: %v", query, err)
		}
		if len(private) < len(plain) {
			t.Fatalf("query %q: private returned %d docs, plaintext %d", query, len(private), len(plain))
		}
		for j := range plain {
			if private[j].DocID != plain[j].DocID || private[j].Score != plain[j].Score {
				t.Fatalf("query %q rank %d: private (%d,%d) vs plaintext (%d,%d)",
					query, j, private[j].DocID, private[j].Score, plain[j].DocID, plain[j].Score)
			}
		}
	}
}

func TestProcessStatsPopulated(t *testing.T) {
	e, c := testEngine(t)
	q, err := c.Embellish(e.lex.db.Lemma(e.searchable[1]))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	st := resp.Stats
	if st.BucketsFetched != 1 {
		t.Fatalf("BucketsFetched = %d, want 1 for a single-term query", st.BucketsFetched)
	}
	if st.PostingsScanned == 0 || st.SimulatedIOms <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Candidates == 0 || resp.Bytes() <= 0 {
		t.Fatalf("response empty: %+v", st)
	}
}

func TestProcessNilQuery(t *testing.T) {
	e, _ := testEngine(t)
	if _, err := e.Process(nil); err == nil {
		t.Fatal("nil query accepted")
	}
}

func TestDecodeNilResponse(t *testing.T) {
	_, c := testEngine(t)
	if _, err := c.Decode(nil, 5); err == nil {
		t.Fatal("nil response accepted")
	}
}

func TestPrivacyAudit(t *testing.T) {
	e, _ := testEngine(t)
	a, err := e.PrivacyAudit(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trials != 40 {
		t.Fatalf("Trials = %d", a.Trials)
	}
	if a.SpecificitySpread >= a.RandomSpecificitySpread {
		t.Fatalf("bucket spread %.2f not below random %.2f",
			a.SpecificitySpread, a.RandomSpecificitySpread)
	}
	if a.ClosestCover > a.FarthestCover {
		t.Fatalf("closest %.2f above farthest %.2f", a.ClosestCover, a.FarthestCover)
	}
	if _, err := e.PrivacyAudit(0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestCustomLexiconWorkflow(t *testing.T) {
	// A user-built lexicon: a small hierarchy plus an antonym pair.
	lex := NewLexicon()
	root, err := lex.AddSynset([]string{"entity"}, "root")
	if err != nil {
		t.Fatal(err)
	}
	var leaves []SynsetID
	var lemmas []string
	for i := 0; i < 24; i++ {
		lemma := fmt.Sprintf("thing%02d", i)
		lemmas = append(lemmas, lemma)
		ss, err := lex.AddSynset([]string{lemma}, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := lex.AddRelation(root, ss, Hyponym); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, ss)
	}
	if err := lex.AddRelation(leaves[0], leaves[1], Antonym); err != nil {
		t.Fatal(err)
	}
	if lex.NumTerms() != 25 || lex.NumSynsets() != 25 {
		t.Fatalf("lexicon size: %d terms, %d synsets", lex.NumTerms(), lex.NumSynsets())
	}

	rng := rand.New(rand.NewSource(5))
	docs := make([]Document, 60)
	for i := range docs {
		var b strings.Builder
		for j := 0; j < 25; j++ {
			b.WriteString(lemmas[rng.Intn(len(lemmas))])
			b.WriteByte(' ')
		}
		docs[i] = Document{ID: i, Text: b.String()}
	}
	opts := DefaultOptions()
	opts.BucketSize = 3
	opts.KeyBits = 192
	opts.ScoreSpace = 9
	eng, err := NewEngine(lex, docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The lexicon is frozen now.
	if _, err := lex.AddSynset([]string{"late"}, ""); err == nil {
		t.Fatal("frozen lexicon accepted a synset")
	}
	if err := lex.AddRelation(root, leaves[0], Meronym); err == nil {
		t.Fatal("frozen lexicon accepted a relation")
	}
	if s, ok := lex.Specificity("thing00"); !ok || s != 1 {
		t.Fatalf("Specificity(thing00) = %d,%v want 1,true", s, ok)
	}

	c, err := eng.NewClient(detrand.New("custom"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Search("thing00 thing05", 5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.PlaintextSearch("thing00 thing05", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if res[i].DocID != plain[i].DocID {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

func TestLexiconValidation(t *testing.T) {
	lex := NewLexicon()
	if _, err := lex.AddSynset(nil, ""); err == nil {
		t.Fatal("empty synset accepted")
	}
	a, _ := lex.AddSynset([]string{"x"}, "")
	b, _ := lex.AddSynset([]string{"y"}, "")
	if err := lex.AddRelation(a, b, RelationType(99)); err == nil {
		t.Fatal("unknown relation type accepted")
	}
	if _, ok := lex.Specificity("x"); ok {
		t.Fatal("specificity available before freeze")
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []Options{
		{BucketSize: 0, KeyBits: 256, ScoreSpace: 9, QuantLevels: 255},
		{BucketSize: 4, KeyBits: 8, ScoreSpace: 9, QuantLevels: 255},
		{BucketSize: 4, KeyBits: 256, ScoreSpace: 0, QuantLevels: 255},
		{BucketSize: 4, KeyBits: 256, ScoreSpace: 9, QuantLevels: 0},
	}
	for i, o := range cases {
		if err := o.validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, o)
		}
	}
	if err := DefaultOptions().validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
}

func TestSyntheticLexiconScale(t *testing.T) {
	lex := SyntheticLexicon(800, 3)
	if lex.NumSynsets() < 700 || lex.NumTerms() < lex.NumSynsets() {
		t.Fatalf("synthetic lexicon: %d synsets, %d terms", lex.NumSynsets(), lex.NumTerms())
	}
	if s, ok := lex.Specificity("entity"); !ok || s != 0 {
		t.Fatalf("entity specificity = %d,%v", s, ok)
	}
}

// TestClaim1UnderBM25 verifies the Appendix B generality claim through
// the public API: with Okapi BM25 scoring the private ranking still
// equals the plaintext ranking.
func TestClaim1UnderBM25(t *testing.T) {
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.Scoring = BM25
	e, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.NewClient(detrand.New("bm25-test"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		query := e.lex.db.Lemma(e.searchable[i*4]) + " " + e.lex.db.Lemma(e.searchable[i*4+1])
		private, err := c.Search(query, 10)
		if err != nil {
			t.Fatalf("query %q: %v", query, err)
		}
		plain, err := e.PlaintextSearch(query, 10)
		if err != nil {
			t.Fatal(err)
		}
		for j := range plain {
			if private[j] != plain[j] {
				t.Fatalf("BM25 query %q rank %d: %+v vs %+v", query, j, private[j], plain[j])
			}
		}
	}
	// Scoring survives engine persistence.
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.opts.Scoring != BM25 {
		t.Fatalf("scoring not persisted: %d", loaded.opts.Scoring)
	}
}

func TestOptionsRejectUnknownScoring(t *testing.T) {
	o := DefaultOptions()
	o.Scoring = Scoring(9)
	if err := o.validate(); err == nil {
		t.Fatal("unknown scoring accepted")
	}
}

func TestParallelEngineMatchesSequential(t *testing.T) {
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	e, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.NewClient(detrand.New("parallel-test"))
	if err != nil {
		t.Fatal(err)
	}
	query := e.lex.db.Lemma(e.searchable[0]) + " " + e.lex.db.Lemma(e.searchable[6])
	private, err := c.Search(query, 10)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.PlaintextSearch(query, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if private[i] != plain[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, private[i], plain[i])
		}
	}
}
