// Core conformance battery: the package computes Algorithm 4 two ways —
// the serving plan (processSharded: document shards, a worker pool,
// Montgomery-form word arithmetic, optional fixed-base tables) and the
// oracle (ProcessCtx: one goroutine, math/big) — and at every shard
// count, worker count, window, index shape and key width the plan must
// return the oracle's response ciphertext for ciphertext and the
// oracle's counts.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"embellish/internal/benaloh"
	"embellish/internal/index"
	"embellish/internal/scanclock"
	"embellish/internal/testenv"
	"embellish/internal/wordnet"
)

// conformanceKeys returns the public keys of the battery by modulus
// width: generated keys at 128, 256 and 512 bits, and at "257" a
// hand-built modulus one bit into a fifth word — no factorization is
// needed, the server fold is arithmetic modulo whatever n the query names.
func conformanceKeys(t *testing.T) map[int]*benaloh.PublicKey {
	t.Helper()
	keys := make(map[int]*benaloh.PublicKey)
	for _, bits := range []int{128, 256, 512} {
		k, err := benaloh.GenerateKey(testenv.NewDetRand(fmt.Sprint("core-conformance-", bits)), bits, benaloh.Pow3(9))
		if err != nil {
			t.Fatalf("%d-bit key: %v", bits, err)
		}
		keys[bits] = &k.PublicKey
	}
	n := new(big.Int).Lsh(big.NewInt(1), 256)
	n.Add(n, new(big.Int).Rand(rand.New(rand.NewSource(257)), new(big.Int).Lsh(big.NewInt(1), 200)))
	n.SetBit(n, 0, 1)
	if n.BitLen() != 257 || len(n.Bits()) != 5 {
		t.Fatalf("hand-built modulus has %d bits in %d words", n.BitLen(), len(n.Bits()))
	}
	keys[257] = &benaloh.PublicKey{N: n, G: big.NewInt(2), R: benaloh.Pow3(9)}
	return keys
}

// conformanceIndex builds the world's corpus either as one static
// segment or as four segments (90 + 3 x 20 documents) for the caller to
// tombstone.
func conformanceIndex(t *testing.T, w *testenv.World, segments int) *index.Live {
	t.Helper()
	if segments == 1 {
		return index.NewLive(w.Index)
	}
	docs := w.Corp.Docs[:150]
	b := index.NewBuilder()
	for _, d := range docs[:90] {
		b.Add(index.DocID(d.ID), d.Tokens)
	}
	live := index.NewLive(b.Build())
	for lo := 90; lo < 150; lo += 20 {
		b := index.NewBuilder()
		b.Scale = live.Scale()
		for i, d := range docs[lo : lo+20] {
			b.Add(index.DocID(i), d.Tokens)
		}
		if _, err := live.Append(b.Build()); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	return live
}

// requantize returns q under another key: the same terms, each flag an
// arbitrary unit-sized residue of pk.N drawn from rng. The fold's
// contract is arithmetic, so the flags need not encrypt anything.
func requantize(q *Query, pk *benaloh.PublicKey, rng *rand.Rand) *Query {
	out := &Query{Pub: pk, Entries: make([]QueryEntry, len(q.Entries))}
	for i, e := range q.Entries {
		flag := new(big.Int).Rand(rng, new(big.Int).Sub(pk.N, big.NewInt(1)))
		out.Entries[i] = QueryEntry{Term: e.Term, Flag: flag.Add(flag, big.NewInt(1))}
	}
	return out
}

func sameResponse(t *testing.T, name string, got, want *Response, gotSt, wantSt Stats) {
	t.Helper()
	if gotSt != wantSt {
		t.Fatalf("%s: stats %+v, oracle %+v", name, gotSt, wantSt)
	}
	if len(got.Docs) != len(want.Docs) || got.Bytes() != want.Bytes() {
		t.Fatalf("%s: %d candidates in %d bytes, oracle %d in %d", name, len(got.Docs), got.Bytes(), len(want.Docs), want.Bytes())
	}
	for i, ds := range got.Docs {
		if ds.Doc != want.Docs[i].Doc || ds.Enc.Cmp(want.Docs[i].Enc) != 0 {
			t.Fatalf("%s: candidate %d = doc %d %v, oracle doc %d %v", name, i, ds.Doc, ds.Enc, want.Docs[i].Doc, want.Docs[i].Enc)
		}
	}
}

func TestPlanConformsToOracle(t *testing.T) {
	w, k := world(t)
	keys := conformanceKeys(t)
	rng := rand.New(rand.NewSource(2101))
	c := NewClient(w.Org, k, 2102)
	c.CryptoRand = testenv.NewDetRand("core-conformance-client")
	base, _, err := c.Embellish(pickGenuine(w, rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, segments := range []int{1, 4} {
		live := conformanceIndex(t, w, segments)
		srv := NewLiveServer(live, w.Org, w.DB)
		if segments > 1 {
			// Tombstone documents the query scores, so the skip runs
			// inside the fold and not only in the counts.
			var victims []index.DocID
			seen := make(map[index.DocID]bool)
			for _, e := range base.Entries {
				for i, p := range srv.ListFor(e.Term) {
					if i%3 == 0 && len(victims) < 12 && !seen[p.Doc] {
						seen[p.Doc] = true
						victims = append(victims, p.Doc)
					}
				}
			}
			if err := live.Delete(victims); err != nil {
				t.Fatal(err)
			}
		}
		for _, bits := range []int{128, 256, 257, 512} {
			q := requantize(base, keys[bits], rng)
			for _, window := range []uint{0, benaloh.DefaultWindow, 2} {
				srv.SetPrecompute(window)
				want, wantSt, err := srv.Process(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Docs) == 0 || wantSt.ModMuls == 0 || (segments > 1) != (wantSt.Tombstoned > 0) {
					t.Fatalf("oracle run exercises nothing: %d candidates, %+v", len(want.Docs), wantSt)
				}
				for _, shards := range []int{1, 3} {
					srv.Live.SetSharding(shards)
					for _, workers := range []int{1, 3} {
						name := fmt.Sprintf("segments=%d bits=%d window=%d shards=%d workers=%d", segments, bits, window, shards, workers)
						got, gotSt, err := srv.ProcessParallel(q, workers)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sameResponse(t, name, got, want, gotSt, wantSt)
					}
				}
			}
		}
	}
}

// TestPlanRefusesWithoutWordForm: a modulus with no Montgomery form and
// a flag outside [0, n) are refused by the serving plan before any work
// (an error, no response, zero Stats), while the oracle still answers
// both.
func TestPlanRefusesWithoutWordForm(t *testing.T) {
	w, k := world(t)
	c := NewClient(w.Org, k, 2111)
	c.CryptoRand = testenv.NewDetRand("core-refusal-client")
	q, _, err := c.Embellish(pickGenuine(w, rand.New(rand.NewSource(2112)), 2))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w.Index, w.Org, w.DB)
	srv.SetPrecompute(benaloh.DefaultWindow)
	srv.Live.SetSharding(3)

	even := new(big.Int).Lsh(k.N, 1)
	wide := &Query{Pub: &k.PublicKey, Entries: append([]QueryEntry(nil), q.Entries...)}
	wide.Entries[0].Flag = new(big.Int).Add(q.Entries[0].Flag, k.N)
	for name, q := range map[string]*Query{
		"even modulus":       requantize(q, &benaloh.PublicKey{N: even, G: k.G, R: k.R}, rand.New(rand.NewSource(2113))),
		"non-canonical flag": wide,
	} {
		if _, _, err := srv.Process(q); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		resp, st, err := srv.ProcessParallel(q, 3)
		if err == nil || resp != nil || st != (Stats{}) {
			t.Fatalf("%s: served %v with %+v (err %v), want a refusal with no work", name, resp, st, err)
		}
	}
}

// TestPlanCancelsMidFold: a deadline that passes while the fold is
// running stops it at the next poll, with the work done so far in the
// stats and no response. The clock is the scan's own poll clock, so the
// crossing is counted in polls, not raced. A cancellation that meets a
// worker waiting at the barrier between the phases returns the same.
func TestPlanCancelsMidFold(t *testing.T) {
	w, k := world(t)
	c := NewClient(w.Org, k, 2121)
	c.CryptoRand = testenv.NewDetRand("core-cancel-client")
	q, _, err := c.Embellish(pickGenuine(w, rand.New(rand.NewSource(2122)), 40))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w.Index, w.Org, w.DB)
	srv.SetPrecompute(benaloh.DefaultWindow)
	_, full, err := srv.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Postings < 8*cancelCheckPostings {
		t.Fatalf("query scans %d postings, too few to cancel inside", full.Postings)
	}
	for _, cfg := range []struct{ shards, workers int }{{1, 1}, {3, 3}} {
		srv.Live.SetSharding(cfg.shards)
		deadline := time.Now().Add(time.Hour)
		var polls atomic.Int64
		restore := scanclock.Set(func() time.Time {
			if polls.Add(1) > 2 {
				return deadline
			}
			return deadline.Add(-time.Minute)
		})
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		resp, st, err := srv.ProcessParallelCtx(ctx, q, cfg.workers)
		restore()
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || resp != nil {
			t.Fatalf("%+v: response %v, error %v; want no response and DeadlineExceeded", cfg, resp, err)
		}
		if st.Postings == 0 || st.Postings >= full.Postings || st.ModMuls == 0 || st.ModMuls >= full.ModMuls || st.Candidates != 0 || st.IO != full.IO {
			t.Fatalf("%+v: partial stats %+v against the full run's %+v", cfg, st, full)
		}
		if cfg.workers == 1 && st.Postings != 2*cancelCheckPostings {
			t.Fatalf("one worker stopped after %d postings, want the third poll's %d", st.Postings, 2*cancelCheckPostings)
		}
	}
	// Cancelled at the barrier: the worker that claims entry 0 is held
	// until another has planned every other entry and reached the
	// barrier, which cancels the query there. No worker folds a posting.
	srv.Live.SetSharding(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	planHooks.claimed = func(entry int) {
		if entry == 0 {
			<-ctx.Done()
		}
	}
	planHooks.barrier = cancel
	resp, st, err := srv.ProcessParallelCtx(ctx, q, 3)
	planHooks.claimed, planHooks.barrier = nil, nil
	if !errors.Is(err, context.Canceled) || resp != nil {
		t.Fatalf("cancelled at the barrier: response %v, error %v; want no response and Canceled", resp, err)
	}
	if st.Postings != 0 || st.Candidates != 0 || st.ModMuls == 0 || st.IO != full.IO {
		t.Fatalf("cancelled at the barrier: stats %+v, want the tables' setup only", st)
	}
}

// TestPlanReturnsDocumentOrder: the serving plan builds its response in
// document order — row by row, and within a row shard by shard — with no
// sort. At every run count, over a live set whose NextDoc (173) is a
// multiple of none of them but 1, with tombstoned candidates, shards
// that score nothing and a candidate at NextDoc−1, the response's
// documents strictly increase and are the oracle's, ciphertext for
// ciphertext, with equal Stats. A deadline that passes in the fold still
// returns no response.
func TestPlanReturnsDocumentOrder(t *testing.T) {
	w, k := world(t)
	docs := w.Corp.Docs
	b := index.NewBuilder()
	for _, d := range docs[:150] {
		b.Add(index.DocID(d.ID), d.Tokens)
	}
	live := index.NewLive(b.Build())
	b = index.NewBuilder()
	b.Scale = live.Scale()
	for i := range 23 {
		b.Add(index.DocID(i), docs[i*7%150].Tokens)
	}
	if _, err := live.Append(b.Build()); err != nil {
		t.Fatal(err)
	}
	last := live.Snapshot().NextDoc - 1
	if last != 172 {
		t.Fatalf("NextDoc is %d, want 173", last+1)
	}
	// The genuine terms are two of the last document's.
	lemmas := make(map[string]bool)
	for _, tok := range docs[22*7%150].Tokens {
		lemmas[tok] = true
	}
	var genuine []wordnet.TermID
	for _, term := range w.Searchable {
		if lemmas[w.DB.Lemma(term)] && len(genuine) < 2 {
			genuine = append(genuine, term)
		}
	}
	c := NewClient(w.Org, k, 2131)
	c.CryptoRand = testenv.NewDetRand("core-order-client")
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewLiveServer(live, w.Org, w.DB)
	srv.SetPrecompute(benaloh.DefaultWindow)
	before, _, err := srv.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	var victims []index.DocID
	for i, ds := range before.Docs {
		if i%5 == 1 && ds.Doc != last {
			victims = append(victims, ds.Doc)
		}
	}
	if err := live.Delete(victims); err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := srv.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	if wantSt.Tombstoned == 0 || want.Docs[len(want.Docs)-1].Doc != last {
		t.Fatalf("oracle run exercises no tombstone or no candidate at NextDoc-1: %+v, last candidate %d", wantSt, want.Docs[len(want.Docs)-1].Doc)
	}
	for _, runs := range []int{1, 2, 3, 8, 64} {
		live.SetSharding(runs)
		empty := runs
		for s := range runs {
			for _, ds := range want.Docs {
				if int(ds.Doc)%runs == s {
					empty--
					break
				}
			}
		}
		if runs == 64 && empty == 0 {
			t.Fatal("every one of 64 shards scores a candidate; the battery needs an empty one")
		}
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("runs=%d workers=%d", runs, workers)
			got, gotSt, err := srv.ProcessParallel(q, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := 1; i < len(got.Docs); i++ {
				if got.Docs[i-1].Doc >= got.Docs[i].Doc {
					t.Fatalf("%s: candidate %d is doc %d after doc %d", name, i, got.Docs[i].Doc, got.Docs[i-1].Doc)
				}
			}
			sameResponse(t, name, got, want, gotSt, wantSt)
		}
		deadline := time.Now().Add(time.Hour)
		restore := scanclock.Set(func() time.Time { return deadline })
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		resp, st, err := srv.ProcessParallelCtx(ctx, q, 3)
		restore()
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || resp != nil || st.Candidates != 0 {
			t.Fatalf("runs=%d: a deadline in the fold returned %v with %+v (err %v), want no response", runs, resp, st, err)
		}
	}
}
