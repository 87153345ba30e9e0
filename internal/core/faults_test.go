package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/index"
	"embellish/internal/testenv"
)

// Failure-injection tests: the scheme's behaviour when ciphertexts are
// tampered with in flight, when the client's key does not match the
// query's, and under other fault conditions a deployment would hit.

func TestTamperedFlagChangesOnlyThatTermsContribution(t *testing.T) {
	// A malicious (or faulty) channel replacing one flag ciphertext with
	// a fresh encryption of 1 turns a decoy genuine: the affected
	// documents' scores change, but nothing else breaks — decryption
	// still succeeds and other terms are unaffected. This documents the
	// scheme's (intended) lack of ciphertext integrity: integrity is
	// delegated to the transport, as the paper assumes.
	w, k := world(t)
	c, s := newPair(t, 60)
	genuine := pickGenuine(w, rand.New(rand.NewSource(61)), 1)
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one decoy flag to 1.
	var victim int = -1
	for i, e := range q.Entries {
		if m, _ := k.DecryptInt(e.Flag); m == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Skip("no decoy entry")
	}
	forged, err := k.EncryptInt(testenv.NewDetRand("forge"), 1)
	if err != nil {
		t.Fatal(err)
	}
	q.Entries[victim].Flag = forged

	resp, _, err := s.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := c.PostFilter(resp, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Documents containing the forged term now score positive even
	// without the genuine term.
	forgedDocs := map[int64]bool{}
	for _, p := range s.ListFor(q.Entries[victim].Term) {
		forgedDocs[int64(p.Doc)] = true
	}
	genuineDocs := map[int64]bool{}
	for _, p := range s.ListFor(genuine[0]) {
		genuineDocs[int64(p.Doc)] = true
	}
	sawForgedContribution := false
	for _, r := range ranked {
		if forgedDocs[int64(r.Doc)] && !genuineDocs[int64(r.Doc)] && r.Score > 0 {
			sawForgedContribution = true
		}
	}
	if !sawForgedContribution {
		t.Fatal("forged genuine flag had no observable effect; test world too sparse")
	}
}

// TestPostFilterRanksUnitsAndRefusesNonUnits: Benaloh decryption has no
// integrity — every unit of Z_n decrypts to some m in [0, r) — so a flag
// replaced by an arbitrary unit, and a response of arbitrary units (what
// a foreign key's ciphertexts look like), rank without error, every
// score in [0, r). Integrity is delegated to the transport, as the paper
// assumes. What decryption refuses is a non-unit: a score of 0 or a
// multiple of p1 fails PostFilter, naming the lowest failing candidate.
func TestPostFilterRanksUnitsAndRefusesNonUnits(t *testing.T) {
	w, k := world(t)
	c, s := newPair(t, 62)
	q, _, err := c.Embellish(pickGenuine(w, rand.New(rand.NewSource(63)), 1))
	if err != nil {
		t.Fatal(err)
	}
	q.Entries[0].Flag = big.NewInt(7)
	garbled, _, err := s.ProcessParallel(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	units := &Response{Docs: make([]DocScore, 3*postFilterGrain)}
	for i := range units.Docs {
		u := new(big.Int).Rand(rng, k.N)
		for new(big.Int).GCD(nil, nil, u, k.N).Cmp(big.NewInt(1)) != 0 {
			u.Rand(rng, k.N)
		}
		units.Docs[i] = DocScore{Doc: index.DocID(i), Enc: u}
	}
	for name, resp := range map[string]*Response{"a garbled flag": garbled, "arbitrary units": units} {
		ranked, err := c.PostFilter(resp, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ranked) != len(resp.Docs) || len(ranked) == 0 {
			t.Fatalf("%s: ranked %d of %d candidates", name, len(ranked), len(resp.Docs))
		}
		for _, r := range ranked {
			if r.Score < 0 || r.Score >= k.R.Int64() {
				t.Fatalf("%s: doc %d scores %d, outside [0, %v)", name, r.Doc, r.Score, k.R)
			}
		}
	}

	n := len(units.Docs)
	for name, nonUnit := range map[string]*big.Int{"zero": new(big.Int), "a multiple of p1": new(big.Int).Mul(k.P1, big.NewInt(6))} {
		for _, at := range [][2]int{{0, n - 1}, {postFilterChunk - 1, postFilterChunk}, {n - 2, n - 1}} {
			bad := &Response{Docs: slices.Clone(units.Docs)}
			bad.Docs[at[0]].Enc = nonUnit
			bad.Docs[at[1]].Enc = new(big.Int)
			_, err := c.PostFilter(bad, 0)
			if !errors.Is(err, benaloh.ErrNotUnit) || !strings.Contains(err.Error(), fmt.Sprintf("doc %d:", bad.Docs[at[0]].Doc)) {
				t.Fatalf("%s at %d, zero at %d: error %v, want ErrNotUnit naming doc %d", name, at[0], at[1], err, bad.Docs[at[0]].Doc)
			}
		}
	}
}

// TestProcessUnknownTermsOnly: a query whose every term has no live
// postings — here one organization term whose documents are all
// tombstoned — yields an empty candidate set, not an error, on the
// oracle and the plan alike.
func TestProcessUnknownTermsOnly(t *testing.T) {
	w, k := world(t)
	_, s := newPair(t, 66)
	term := w.Searchable[0]
	var docs []index.DocID
	for _, p := range s.ListFor(term) {
		docs = append(docs, p.Doc)
	}
	if len(docs) == 0 {
		t.Fatal("the term has no postings to tombstone")
	}
	if err := s.Live.Delete(docs); err != nil {
		t.Fatal(err)
	}
	if n := len(s.ListFor(term)); n != 0 {
		t.Fatalf("%d live postings after tombstoning every holder", n)
	}
	flag, err := k.EncryptInt(testenv.NewDetRand("abs"), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Entries: []QueryEntry{{Term: term, Flag: flag}}, Pub: &k.PublicKey}
	oracle, ost, err := s.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, pst, err := s.ProcessParallel(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Docs) != 0 || len(plan.Docs) != 0 || ost.Candidates != 0 || pst.Candidates != 0 {
		t.Fatalf("tombstoned-term query returned %d (oracle) and %d (plan) candidates", len(oracle.Docs), len(plan.Docs))
	}
	if ost.Tombstoned != len(docs) || pst.Tombstoned != len(docs) {
		t.Fatalf("tombstones skipped: oracle %d, plan %d, want %d", ost.Tombstoned, pst.Tombstoned, len(docs))
	}
}

func TestScoreOverflowWrapsModR(t *testing.T) {
	// Scores accumulate modulo r. A pathological query whose scores
	// exceed r-1 wraps — the documented reason Options.ScoreSpace must
	// exceed the maximum achievable score. Verify the wrap is modular,
	// not corrupt.
	_, k := world(t)
	r := k.R.Int64()
	c1, err := k.EncryptInt(testenv.NewDetRand("wrap1"), r-1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := k.EncryptInt(testenv.NewDetRand("wrap2"), 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := k.Add(c1, c2)
	m, err := k.DecryptInt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 { // (r-1 + 2) mod r = 1
		t.Fatalf("wrap decrypted to %d, want 1", m)
	}
}
