package embellish

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/docstore"
)

// storeWorld builds a retrieval-enabled engine over a corpus of SMALL
// deterministic documents (PIR fetch cost scales with total stored
// bytes, so the world stays tiny) and returns the id -> exact bytes
// map the tests treat as ground truth.
func storeWorld(t testing.TB, nDocs, blockSize int) (*Engine, *Client, map[int]string) {
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

// fillerDocText is churn fodder: it reuses ONE lemma the test queries
// never mention, so filler documents cannot be ranked for those
// queries and deleting them mid-test can never invalidate a result a
// fetcher is about to retrieve.
func fillerDocText(id int, lemmas []string) string {
	return fmt.Sprintf("%s %s #filler-%d", lemmas[30], lemmas[30], id)
}

func TestFetchDocumentsLocal(t *testing.T) {
	e, c, texts := storeWorld(t, 40, 32)
	if !e.StoresDocuments() {
		t.Fatal("StoresDocuments = false on a storing engine")
	}
	lemmas := miniLemmas()
	res, err := c.Search(lemmas[1]+" "+lemmas[6], 5)
	if err != nil {
		t.Fatal(err)
	}
	var winners []int
	for _, r := range res {
		if r.Score > 0 {
			winners = append(winners, r.DocID)
		}
	}
	if len(winners) == 0 {
		t.Fatal("query matched nothing; test world broken")
	}
	got, st, err := c.FetchDocuments(winners)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range winners {
		if string(got[i]) != texts[id] {
			t.Fatalf("doc %d fetched %q, want %q", id, got[i], texts[id])
		}
		direct, err := e.Document(id)
		if err != nil || !bytes.Equal(direct, got[i]) {
			t.Fatalf("doc %d: direct read %q (%v) != PIR fetch %q", id, direct, err, got[i])
		}
	}
	if st.Runs == 0 || st.QueryBytes == 0 || st.AnswerBytes == 0 {
		t.Fatalf("fetch stats not accounted: %+v", st)
	}
}

func TestFetchValidation(t *testing.T) {
	e, c, _ := storeWorld(t, 30, 32)
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
	e, _, texts := storeWorld(t, 20, 32)
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
	e, _, _ := storeWorld(t, 20, 32)
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

// TestPIRFetchPropertyUnderChurn is the property test: for a random
// corpus and a random interleaving of adds, deletes, merges and
// compactions — with a concurrent PIR fetcher running throughout — the
// bytes privately fetched for every live document equal the direct
// store read AND the originally indexed text, and every tombstoned id
// errors from both paths. The corpus holds an empty document, which has
// no column, and one longer than the tallest view, whose two columns
// travel as a vector and its rotation. Run it with -race: the fetcher
// shares the engine with the mutator.
func TestPIRFetchPropertyUnderChurn(t *testing.T) {
	lemmas := miniLemmas()
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e, _, texts := storeWorld(t, 30, 32)
			long, empty := e.NextDocID(), e.NextDocID()+1
			texts[long] = storeDocText(long, lemmas)
			for len(texts[long]) <= docstore.Heights(32)*32+100 {
				texts[long] += " " + lemmas[2+len(texts[long])%20]
			}
			texts[empty] = ""
			if err := e.AddDocuments([]Document{{ID: long, Text: texts[long]}, {ID: empty}}); err != nil {
				t.Fatal(err)
			}
			sn, err := e.storeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, k := sn.Layout().Place(long); k != 2 {
				t.Fatalf("the long document fills %d columns, want 2", k)
			}
			rng := rand.New(rand.NewSource(seed))
			var mu sync.Mutex // guards texts + deleted
			deleted := map[int]bool{}

			// stableLive returns live ids the mutator will never delete
			// (non-filler), safe for the concurrent fetcher.
			stableLive := func() []int {
				mu.Lock()
				defer mu.Unlock()
				var ids []int
				for id := range texts {
					if !deleted[id] && !strings.Contains(texts[id], "#filler-") {
						ids = append(ids, id)
					}
				}
				return ids
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // concurrent fetcher with its own client
				defer wg.Done()
				fc, err := e.NewClient(detrand.New("churn-fetcher"))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					ids := stableLive()
					id := ids[i%len(ids)]
					got, _, err := fc.FetchDocuments([]int{id})
					if err != nil {
						t.Errorf("concurrent fetch %d: %v", id, err)
						return
					}
					mu.Lock()
					want := texts[id]
					mu.Unlock()
					if string(got[0]) != want {
						t.Errorf("concurrent fetch %d = %q, want %q", id, got[0], want)
						return
					}
				}
			}()

			// Mutator: random interleaving of adds, deletes, merges.
			for op := 0; op < 12; op++ {
				switch rng.Intn(4) {
				case 0, 1: // add a small batch (mix of real and filler docs)
					base := e.NextDocID()
					n := 1 + rng.Intn(3)
					docs := make([]Document, n)
					mu.Lock()
					for i := range docs {
						id := base + i
						if rng.Intn(2) == 0 {
							texts[id] = fillerDocText(id, lemmas)
						} else {
							texts[id] = storeDocText(id, lemmas)
						}
						docs[i] = Document{ID: id, Text: texts[id]}
					}
					// mu stays held until the add is acknowledged: the
					// fetcher picks its ids from texts, and one published
					// ahead of the add "does not exist" yet.
					err := e.AddDocuments(docs)
					mu.Unlock()
					if err != nil {
						t.Fatalf("op %d add: %v", op, err)
					}
				case 2: // delete one random live filler doc
					mu.Lock()
					var cands []int
					for id := range texts {
						if !deleted[id] && strings.Contains(texts[id], "#filler-") {
							cands = append(cands, id)
						}
					}
					mu.Unlock()
					if len(cands) == 0 {
						continue
					}
					id := cands[rng.Intn(len(cands))]
					if err := e.DeleteDocuments([]int{id}); err != nil {
						t.Fatalf("op %d delete %d: %v", op, id, err)
					}
					mu.Lock()
					deleted[id] = true
					mu.Unlock()
				case 3: // force the index to churn segments
					if rng.Intn(2) == 0 {
						e.Compact()
					} else {
						e.live.MergeNow()
					}
				}
			}
			close(stop)
			wg.Wait()
			if t.Failed() {
				return
			}

			// Final sweep: every id ever assigned, via a fresh client.
			fc, err := e.NewClient(detrand.New("sweep-fetcher"))
			if err != nil {
				t.Fatal(err)
			}
			snap := e.Snapshot()
			live := map[int]bool{}
			for _, d := range snap.LiveDocIDs() {
				live[d] = true
			}
			if len(live) != e.NumDocs() {
				t.Fatalf("LiveDocIDs returned %d ids for %d live docs", len(live), e.NumDocs())
			}
			for id := 0; id < e.NextDocID(); id++ {
				if deleted[id] != !live[id] {
					t.Fatalf("doc %d: test ledger deleted=%v, index live=%v", id, deleted[id], live[id])
				}
				if deleted[id] {
					if _, _, err := fc.FetchDocuments([]int{id}); err == nil {
						t.Fatalf("tombstoned doc %d fetched", id)
					}
					if _, err := e.Document(id); err == nil {
						t.Fatalf("tombstoned doc %d readable", id)
					}
					continue
				}
				got, _, err := fc.FetchDocuments([]int{id})
				if err != nil {
					t.Fatalf("sweep fetch %d: %v", id, err)
				}
				direct, err := snap.Document(id)
				if err != nil {
					t.Fatalf("sweep direct read %d: %v", id, err)
				}
				if string(got[0]) != texts[id] || !bytes.Equal(direct, got[0]) {
					t.Fatalf("doc %d: PIR %q, direct %q, want %q", id, got[0], direct, texts[id])
				}
			}
		})
	}
}
