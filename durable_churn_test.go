package embellish

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"embellish/internal/detrand"
)

// TestDurableChurnRecovery is the durable-path extension of
// TestPIRFetchPropertyUnderChurn: a random interleaving of adds,
// deletes, merges, compactions and CHECKPOINTS runs against a durable
// engine — with a concurrent private searcher-and-fetcher, and with a
// concurrent "crash" that freezes the durable directory at a random
// moment mid-churn (capturing whatever half-written journal tail is in
// flight). Recovery from the frozen directory must yield the state
// after some prefix of the operation log: every live document's PIR
// bytes == snapshot bytes == the originally indexed text, every
// tombstoned id errors from both paths, and the private ranking equals
// PlaintextSearch. Run with -race.
func TestDurableChurnRecovery(t *testing.T) {
	lemmas := miniLemmas()
	for _, seed := range []int64{5, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			e, texts := durableStoreWorld(t, dir, 30, 32)
			defer e.Close()
			rng := rand.New(rand.NewSource(seed))
			var mu sync.Mutex // guards texts + deleted + ledger
			deleted := map[int]bool{}
			// ledger[seq] = expected corpus after operation seq; entries
			// are appended as each operation is ACKNOWLEDGED, so by the
			// time the churn stops, every sequence the frozen directory
			// can recover to has its expectation recorded.
			ledger := map[uint64]ledgerState{0: snapshotLedger(texts, e.NextDocID())}
			recordLedger := func() {
				st, _ := e.WALStatus()
				live := make(map[int]string)
				for id, txt := range texts {
					if !deleted[id] {
						live[id] = txt
					}
				}
				ledger[st.Seq] = ledgerState{texts: live, nextDoc: e.NextDocID()}
			}

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
			go func() { // concurrent private fetcher, as in the in-memory test
				defer wg.Done()
				fc, err := e.NewClient(detrand.New("durable-churn-fetcher"))
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

			// The crash: freeze the directory at a random moment while
			// the mutator below keeps running — exactly what a power cut
			// would capture, including a torn record mid-append.
			crashAfter := time.Duration(1+rng.Intn(40)) * time.Millisecond
			crashed := make(chan string, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(crashAfter)
				crashed <- copyDurableDir(t, dir)
			}()

			// Mutator: random interleaving of adds, deletes, structural
			// churn and checkpoints.
			for op := 0; op < 16; op++ {
				switch rng.Intn(6) {
				case 0, 1: // add a small batch
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
					if err == nil {
						recordLedger()
					}
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
					recordLedger()
					mu.Unlock()
				case 3: // structural churn: segment folds never touch the journal
					if rng.Intn(2) == 0 {
						e.Compact()
					} else {
						e.live.MergeNow()
					}
				case 4, 5: // fold the journal into a checkpoint mid-churn
					if err := e.Checkpoint(); err != nil {
						t.Fatalf("op %d checkpoint: %v", op, err)
					}
				}
			}
			close(stop)
			frozen := <-crashed
			wg.Wait()
			if t.Failed() {
				return
			}

			// Recover the frozen directory and sweep it against the
			// ledger entry for the recovered prefix.
			r, err := OpenDurable(frozen, Options{})
			if err != nil {
				t.Fatalf("recovery from mid-churn freeze: %v", err)
			}
			defer r.Close()
			rst, ok := r.WALStatus()
			if !ok {
				t.Fatal("recovered engine is not durable")
			}
			state, ok := ledger[rst.Seq]
			if !ok {
				t.Fatalf("recovered to seq %d, which the ledger never recorded (max ops %d)", rst.Seq, len(ledger)-1)
			}
			fc, err := r.NewClient(detrand.New("durable-churn-sweep"))
			if err != nil {
				t.Fatal(err)
			}
			snap := r.Snapshot()
			if r.NextDocID() != state.nextDoc {
				t.Fatalf("recovered NextDocID %d, ledger %d at seq %d", r.NextDocID(), state.nextDoc, rst.Seq)
			}
			for id := 0; id < state.nextDoc; id++ {
				want, live := state.texts[id]
				if !live {
					if _, _, err := fc.FetchDocuments([]int{id}); err == nil {
						t.Fatalf("tombstoned doc %d PIR-fetchable after recovery", id)
					}
					if _, err := r.Document(id); err == nil {
						t.Fatalf("tombstoned doc %d readable after recovery", id)
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
				if string(got[0]) != want || !bytes.Equal(direct, got[0]) {
					t.Fatalf("doc %d: PIR %q, direct %q, want %q", id, got[0], direct, want)
				}
			}
			// And the recovered engine still upholds Claim 1.
			assertCorpusEquals(t, r, state.texts)
		})
	}
}
