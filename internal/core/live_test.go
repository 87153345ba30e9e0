package core

import (
	"math/rand"
	"testing"

	"embellish/internal/index"
	"embellish/internal/testenv"
)

// liveWorld rebuilds the cached world's corpus as a two-segment live
// set: the first 120 documents as the base segment, the remaining 30
// appended online with the pinned quantization scale.
func liveWorld(t *testing.T) (*testenv.World, *index.Live) {
	t.Helper()
	w, _ := world(t)
	if len(w.Corp.Docs) < 150 {
		t.Fatalf("world has %d docs, want >= 150", len(w.Corp.Docs))
	}
	b := index.NewBuilder()
	for _, d := range w.Corp.Docs[:120] {
		b.Add(index.DocID(d.ID), d.Tokens)
	}
	live := index.NewLive(b.Build())
	b2 := index.NewBuilder()
	b2.Scale = live.Scale()
	for i, d := range w.Corp.Docs[120:] {
		b2.Add(index.DocID(i), d.Tokens)
	}
	if _, err := live.Append(b2.Build()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	return w, live
}

// TestLivePlansAgreeAfterUpdates drives the same embellished query
// through every execution plan on a multi-segment live server with
// tombstones, and checks each decrypted ranking against the snapshot's
// plaintext quantized ranking (Claim 1 on the live corpus).
func TestLivePlansAgreeAfterUpdates(t *testing.T) {
	w, live := liveWorld(t)
	_, k := world(t)
	srv := NewLiveServer(live, w.Org, w.DB)
	srv.window = 4

	c := NewClient(w.Org, k, 7)
	c.CryptoRand = testenv.NewDetRand("core-live-client")
	genuine := pickGenuine(w, rand.New(rand.NewSource(3)), 4)
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}

	// Tombstone a few documents that the first genuine term actually
	// scores, so the skip path is exercised.
	victims := []index.DocID{}
	for _, p := range srv.ListFor(genuine[0]) {
		victims = append(victims, p.Doc)
		if len(victims) == 3 {
			break
		}
	}
	if len(victims) == 0 {
		t.Fatal("first genuine term scores no documents; pick another seed")
	}
	if err := live.Delete(victims); err != nil {
		t.Fatal(err)
	}

	lemmas := make([]string, len(genuine))
	for i, g := range genuine {
		lemmas[i] = w.DB.Lemma(g)
	}
	want := live.Snapshot().QuantizedTopK(lemmas, 0)
	if len(want) == 0 {
		t.Fatal("plaintext ranking empty")
	}

	check := func(name string, resp *Response, st Stats) {
		t.Helper()
		ranked, err := c.PostFilter(resp, 0)
		if err != nil {
			t.Fatalf("%s: decrypt: %v", name, err)
		}
		if len(ranked) < len(want) {
			t.Fatalf("%s: %d candidates for %d plaintext hits", name, len(ranked), len(want))
		}
		for i, exp := range want {
			if ranked[i].Doc != exp.Doc || ranked[i].Score != int64(exp.Score) {
				t.Fatalf("%s: rank %d = doc %d score %d, want doc %d score %g",
					name, i, ranked[i].Doc, ranked[i].Score, exp.Doc, exp.Score)
			}
		}
		for _, rk := range ranked[len(want):] {
			if rk.Score != 0 {
				t.Fatalf("%s: unexpected non-zero extra candidate %+v", name, rk)
			}
		}
		for _, v := range victims {
			for _, rk := range ranked {
				if rk.Doc == v {
					t.Fatalf("%s: tombstoned doc %d is a candidate (score %d)", name, v, rk.Score)
				}
			}
		}
	}

	resp, st, err := srv.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tombstoned == 0 {
		t.Fatal("sequential plan skipped no tombstones")
	}
	check("sequential", resp, st)

	resp, st, err = srv.ProcessParallel(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("one shard", resp, st)

	srv.Live.SetSharding(3)
	resp, st, err = srv.ProcessParallel(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tombstoned == 0 {
		t.Fatal("sharded plan skipped no tombstones")
	}
	check("sharded", resp, st)

	// A merge rewrites tombstoned postings away; rankings are unchanged
	// and the skip counter drops to zero.
	live.Compact()
	resp, st, err = srv.ProcessParallel(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tombstoned != 0 {
		t.Fatalf("post-compact plan still skipped %d tombstones", st.Tombstoned)
	}
	check("sharded post-compact", resp, st)
}
