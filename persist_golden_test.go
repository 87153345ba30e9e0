package embellish

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/index"
)

// Golden-file persistence tests: tiny v1/v2/v3 engine files are
// checked in under testdata/, and every future format change must keep
// loading them with EXACTLY the semantics asserted here — shapes,
// rankings and stored bytes. A format bump that silently breaks compat
// fails these tests, not a customer's deployment.
//
// Regenerate (after a DELIBERATE format change only) with:
//
//	go test -run TestGolden -update-golden .

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden engine files")

const (
	goldenBaseDocs  = 30
	goldenAddedDocs = 5
	goldenBlockSize = 32
)

var goldenDeletes = []int{2, 31}

// goldenEngine deterministically rebuilds the world the golden files
// were generated from: goldenBaseDocs base documents, one online add
// batch, two deletions. withStore toggles the PIR document store (the
// v3 payload); mutate toggles the add/delete history (v1 files can
// only express the pristine state).
func goldenEngine(t testing.TB, withStore, mutate bool) *Engine {
	t.Helper()
	lemmas := miniLemmas()
	docs := make([]Document, goldenBaseDocs)
	for i := range docs {
		docs[i] = Document{ID: i, Text: storeDocText(i, lemmas)}
	}
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.StoreDocuments = withStore
	opts.BlockSize = goldenBlockSize
	e, err := NewEngine(MiniLexicon(), docs, opts)
	if err != nil {
		t.Fatalf("golden engine: %v", err)
	}
	if mutate {
		added := make([]Document, goldenAddedDocs)
		for i := range added {
			id := goldenBaseDocs + i
			added[i] = Document{ID: id, Text: storeDocText(id, lemmas)}
		}
		if err := e.AddDocuments(added); err != nil {
			t.Fatal(err)
		}
		if err := e.DeleteDocuments(goldenDeletes); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func goldenPath(version int) string {
	return filepath.Join("testdata", fmt.Sprintf("engine_v%d.bin", version))
}

// goldenWriters writes each golden format version.
var goldenWriters = map[int]func(*Engine, *bytes.Buffer) error{
	1: func(e *Engine, buf *bytes.Buffer) error { return e.saveV1(buf) },
	2: func(e *Engine, buf *bytes.Buffer) error { return e.saveV2(buf) },
	3: func(e *Engine, buf *bytes.Buffer) error { return e.Save(buf) },
}

func maybeUpdateGolden(t *testing.T) {
	t.Helper()
	if !*updateGolden {
		return
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for version, write := range goldenWriters {
		e := goldenEngine(t, version == 3, version != 1)
		var buf bytes.Buffer
		if err := write(e, &buf); err != nil {
			t.Fatalf("writing v%d golden: %v", version, err)
		}
		if err := os.WriteFile(goldenPath(version), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath(version), buf.Len())
	}
}

func loadGolden(t *testing.T, version int) *Engine {
	t.Helper()
	data, err := os.ReadFile(goldenPath(version))
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update-golden): %v", err)
	}
	e, err := LoadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("loading v%d golden: %v", version, err)
	}
	return e
}

// assertGoldenRanking pins the loaded engine's ranking to the freshly
// rebuilt reference world: same documents, same scores, rank by rank.
func assertGoldenRanking(t *testing.T, got, ref *Engine) {
	t.Helper()
	lemmas := miniLemmas()
	for _, query := range []string{lemmas[1] + " " + lemmas[6], lemmas[11]} {
		want, err := ref.PlaintextSearch(query, 0)
		if err != nil {
			t.Fatalf("reference %q: %v", query, err)
		}
		have, err := got.PlaintextSearch(query, 0)
		if err != nil {
			t.Fatalf("loaded %q: %v", query, err)
		}
		if len(have) != len(want) {
			t.Fatalf("query %q: %d results, want %d", query, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("query %q rank %d: %+v, want %+v", query, i, have[i], want[i])
			}
		}
	}
}

func TestGoldenV1EngineFile(t *testing.T) {
	maybeUpdateGolden(t)
	e := loadGolden(t, 1)
	if e.NumSegments() != 1 || e.NumDocs() != goldenBaseDocs || e.NextDocID() != goldenBaseDocs {
		t.Fatalf("v1 shape: %d segments, %d docs, next %d", e.NumSegments(), e.NumDocs(), e.NextDocID())
	}
	if e.StoresDocuments() {
		t.Fatal("v1 file loaded with a document store")
	}
	assertGoldenRanking(t, e, goldenEngine(t, false, false))
	// A v1-loaded engine accepts updates immediately.
	if err := e.AddDocuments([]Document{{ID: e.NextDocID(), Text: "golden compat doc"}}); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenV2EngineFile(t *testing.T) {
	maybeUpdateGolden(t)
	e := loadGolden(t, 2)
	wantDocs := goldenBaseDocs + goldenAddedDocs - len(goldenDeletes)
	if e.NumDocs() != wantDocs || e.NextDocID() != goldenBaseDocs+goldenAddedDocs {
		t.Fatalf("v2 shape: %d docs, next %d", e.NumDocs(), e.NextDocID())
	}
	if e.NumSegments() != 2 {
		t.Fatalf("v2 loaded as %d segments, want 2", e.NumSegments())
	}
	if e.StoresDocuments() {
		t.Fatal("v2 file loaded with a document store")
	}
	// Tombstones survived the round trip: the deleted ids stay dead.
	if err := e.DeleteDocuments(goldenDeletes[:1]); err == nil {
		t.Fatal("v2 load resurrected a deleted id")
	}
	assertGoldenRanking(t, e, goldenEngine(t, false, true))
}

func TestGoldenV3EngineFile(t *testing.T) {
	maybeUpdateGolden(t)
	e := loadGolden(t, 3)
	wantDocs := goldenBaseDocs + goldenAddedDocs - len(goldenDeletes)
	if e.NumDocs() != wantDocs {
		t.Fatalf("v3 shape: %d docs, want %d", e.NumDocs(), wantDocs)
	}
	if !e.StoresDocuments() {
		t.Fatal("v3 file lost its document store")
	}
	assertGoldenRanking(t, e, goldenEngine(t, true, true))

	// Byte-exact stored documents: every live id reads its ground-truth
	// bytes, every tombstoned id errors — through the direct path AND
	// through a real PIR fetch.
	lemmas := miniLemmas()
	deleted := map[int]bool{}
	for _, id := range goldenDeletes {
		deleted[id] = true
	}
	for id := 0; id < e.NextDocID(); id++ {
		got, err := e.Document(id)
		if deleted[id] {
			if err == nil {
				t.Fatalf("deleted doc %d readable after load", id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("doc %d: %v", id, err)
		}
		if want := storeDocText(id, lemmas); string(got) != want {
			t.Fatalf("doc %d = %q, want %q", id, got, want)
		}
	}
	c, err := e.NewClient(detrand.New("golden-fetch"))
	if err != nil {
		t.Fatal(err)
	}
	fetched, _, err := c.FetchDocuments([]int{0, 17})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []int{0, 17} {
		if want := storeDocText(id, lemmas); string(fetched[i]) != want {
			t.Fatalf("PIR fetch %d = %q, want %q", id, fetched[i], want)
		}
	}
	if _, _, err := c.FetchDocuments([]int{goldenDeletes[0]}); err == nil {
		t.Fatal("PIR fetch of a deleted id succeeded after load")
	}

	// A loaded v3 engine keeps updating AND storing: new documents are
	// fetchable.
	id := e.NextDocID()
	if err := e.AddDocuments([]Document{{ID: id, Text: "post-load stored doc"}}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Document(id)
	if err != nil || string(got) != "post-load stored doc" {
		t.Fatalf("post-load add not stored: %q, %v", got, err)
	}
}

// TestGoldenFilesSaveBackByteIdentical: every golden file, loaded at one
// shard and at four (its segments cut into as many runs), saves back
// byte for byte in its own format, and so does the world rebuilt at
// four shards: the file never depends on the cut. (Four, not three: the
// golden corpus's three-way cut happens to keep every list in impact
// order, which would let a writer that ignores the cut pass.)
func TestGoldenFilesSaveBackByteIdentical(t *testing.T) {
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		for version := 1; version <= 3; version++ {
			want, err := os.ReadFile(goldenPath(version))
			if err != nil {
				t.Fatal(err)
			}
			for name, e := range map[string]*Engine{
				"loaded":  loadGolden(t, version),
				"rebuilt": goldenEngine(t, version == 3, version != 1),
			} {
				snap := e.live.Snapshot()
				if snap.Runs != procs {
					t.Fatalf("v%d %s at GOMAXPROCS %d: %d shards", version, name, procs, snap.Runs)
				}
				if procs > 1 && !cutReorders(snap) {
					t.Fatalf("v%d %s: cutting into %d runs kept every list in impact order", version, name, procs)
				}
				var got bytes.Buffer
				if err := goldenWriters[version](e, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("v%d %s at GOMAXPROCS %d saves %d bytes unlike the golden file's %d", version, name, procs, got.Len(), len(want))
				}
			}
		}
	}
}

// cutReorders reports whether some list of the snapshot is laid out
// out of impact order.
func cutReorders(snap *index.Snapshot) bool {
	for _, seg := range snap.Segs {
		for ti := range seg.NumTerms() {
			list := seg.List(ti)
			for i := 1; i < len(list); i++ {
				if list[i].Impact > list[i-1].Impact {
					return true
				}
			}
		}
	}
	return false
}

// TestGoldenRoundTripCurrentFormat guards the CURRENT writer against
// the loader: a mid-life engine with a store survives Save/Load with
// identical stored bytes (the non-golden complement of the fixtures).
func TestGoldenRoundTripCurrentFormat(t *testing.T) {
	e := goldenEngine(t, true, true)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range loaded.Snapshot().LiveDocIDs() {
		want, err := e.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Document(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("doc %d after round trip: %q (%v), want %q", id, got, err, want)
		}
	}
	// saveV2 drops the store deliberately; the result still loads.
	buf.Reset()
	if err := e.saveV2(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if v2.StoresDocuments() {
		t.Fatal("saveV2 kept the store")
	}
}
