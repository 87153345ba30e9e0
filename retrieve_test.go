package embellish

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"embellish/internal/detrand"
)

// storeWorld builds a retrieval-enabled engine over a corpus of SMALL
// deterministic documents (PIR fetch cost scales with total stored
// bytes, so the world stays tiny) and returns the id -> exact bytes
// map the tests treat as ground truth. The engine journals to d.Dir
// when it is set (durableOpts) and lives in memory when d is zero.
func storeWorld(t testing.TB, nDocs, blockSize int, d Durability) (*Engine, *Client, map[int]string) {
	t.Helper()
	lemmas := miniLemmas()
	texts := make(map[int]string, nDocs)
	docs := make([]Document, nDocs)
	for i := range docs {
		texts[i] = storeDocText(i, lemmas)
		docs[i] = Document{ID: i, Text: texts[i]}
	}
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.StoreDocuments = true
	opts.BlockSize = blockSize
	opts.RetrievalKeyBits = 96
	opts.Durability = d
	e, err := NewEngine(MiniLexicon(), docs, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	c, err := e.NewClient(detrand.New("store-test"))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return e, c, texts
}

func miniLemmas() []string {
	lex := MiniLexicon()
	var lemmas []string
	for _, tm := range lex.db.AllTerms() {
		lemmas = append(lemmas, lex.db.Lemma(tm))
	}
	return lemmas
}

// storeDocText is the deterministic ground-truth document body for any
// id, including ids added after construction: a few indexable lemmas
// plus an id marker that makes every document's bytes unique.
func storeDocText(id int, lemmas []string) string {
	var b strings.Builder
	for j := 0; j < 3+id%3; j++ {
		b.WriteString(lemmas[1+(id*5+j*3)%24])
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "#doc-%d", id)
	return b.String()
}

func TestFetchValidation(t *testing.T) {
	e, c, _ := storeWorld(t, 30, 32, Durability{})
	if !e.StoresDocuments() {
		t.Fatal("StoresDocuments = false on a storing engine")
	}
	if _, _, err := c.FetchDocuments(nil); err == nil {
		t.Fatal("empty fetch accepted")
	}
	if _, _, err := c.FetchDocuments([]int{e.NextDocID()}); err == nil {
		t.Fatal("unassigned id fetched")
	}
	if err := e.DeleteDocuments([]int{3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FetchDocuments([]int{3}); err == nil {
		t.Fatal("tombstoned id fetched")
	}
	if _, err := e.Document(3); err == nil {
		t.Fatal("tombstoned id readable")
	}

	// Engines without a store refuse every retrieval entry point.
	plain, pc := liveTestEngine(t, 0)
	if plain.StoresDocuments() {
		t.Fatal("StoresDocuments = true without Options.StoreDocuments")
	}
	if _, err := plain.Document(0); err == nil {
		t.Fatal("store-less Document succeeded")
	}
	if _, _, err := pc.FetchDocuments([]int{0}); err == nil {
		t.Fatal("store-less fetch succeeded")
	}
	if _, err := plain.Snapshot().Document(0); err == nil {
		t.Fatal("store-less snapshot Document succeeded")
	}
}

// TestSnapshotPinsDocuments: a Snapshot keeps serving a document's
// bytes after its deletion, mirroring PlaintextSearch's pinning.
func TestSnapshotPinsDocuments(t *testing.T) {
	e, _, texts := storeWorld(t, 20, 32, Durability{})
	pinned := e.Snapshot()
	if err := e.DeleteDocuments([]int{5}); err != nil {
		t.Fatal(err)
	}
	got, err := pinned.Document(5)
	if err != nil || string(got) != texts[5] {
		t.Fatalf("pinned snapshot lost doc 5: %q, %v", got, err)
	}
	if _, err := e.Snapshot().Document(5); err == nil {
		t.Fatal("fresh snapshot serves a tombstoned document")
	}
}

// TestLoadRejectsStoreTombstoneDesync: a file whose doc-store Deleted
// flags disagree with the index tombstones is refused at load — such
// an engine would rank documents it cannot fetch and fail deletes
// halfway.
func TestLoadRejectsStoreTombstoneDesync(t *testing.T) {
	e, _, _ := storeWorld(t, 20, 32, Durability{})
	// Desynchronize deliberately through the internal handle: tombstone
	// the store WITHOUT the index.
	if err := e.store.Delete(4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "disagree") {
		t.Fatalf("desynchronized store/tombstones loaded: %v", err)
	}
}
