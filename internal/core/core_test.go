package core

import (
	"math/rand"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/index"
	"embellish/internal/testenv"
	"embellish/internal/wordnet"
)

var (
	cachedWorld *testenv.World
	cachedKey   *benaloh.PrivateKey
)

func world(t *testing.T) (*testenv.World, *benaloh.PrivateKey) {
	t.Helper()
	if cachedWorld == nil {
		cachedWorld = testenv.BuildWorld(testenv.Options{Seed: 11, BktSz: 4})
		k, err := benaloh.GenerateKey(testenv.NewDetRand("core-test"), 256, benaloh.Pow3(9))
		if err != nil {
			t.Fatalf("key generation: %v", err)
		}
		cachedKey = k
	}
	return cachedWorld, cachedKey
}

func newPair(t *testing.T, seed int64) (*Client, *Server) {
	w, k := world(t)
	c := NewClient(w.Org, k, seed)
	c.CryptoRand = testenv.NewDetRand("client-rand")
	s := NewServer(w.Index, w.Org, w.DB)
	return c, s
}

func pickGenuine(w *testenv.World, rng *rand.Rand, n int) []wordnet.TermID {
	out := make([]wordnet.TermID, 0, n)
	seen := map[wordnet.TermID]bool{}
	for len(out) < n {
		t := w.Searchable[rng.Intn(len(w.Searchable))]
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func TestEmbellishAddsWholeBuckets(t *testing.T) {
	w, _ := world(t)
	c, _ := newPair(t, 1)
	genuine := pickGenuine(w, rand.New(rand.NewSource(2)), 3)
	q, skipped, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped %v", skipped)
	}
	// The query must contain exactly the union of the genuine terms'
	// buckets.
	want := map[wordnet.TermID]bool{}
	for _, g := range genuine {
		b, _ := w.Org.BucketOf(g)
		for _, term := range w.Org.Bucket(b) {
			want[term] = true
		}
	}
	got := map[wordnet.TermID]bool{}
	for _, e := range q.Entries {
		if got[e.Term] {
			t.Fatalf("term %d duplicated in query", e.Term)
		}
		got[e.Term] = true
	}
	if len(got) != len(want) {
		t.Fatalf("query has %d terms, want %d", len(got), len(want))
	}
	for term := range want {
		if !got[term] {
			t.Fatalf("bucket term %d missing from query", term)
		}
	}
}

func TestEmbellishedFlagsEncryptCorrectBits(t *testing.T) {
	w, k := world(t)
	c, _ := newPair(t, 3)
	genuine := pickGenuine(w, rand.New(rand.NewSource(4)), 2)
	isGenuine := map[wordnet.TermID]bool{}
	for _, g := range genuine {
		isGenuine[g] = true
	}
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range q.Entries {
		m, err := k.DecryptInt(e.Flag)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if isGenuine[e.Term] {
			want = 1
		}
		if m != want {
			t.Fatalf("term %d flag decrypts to %d, want %d", e.Term, m, want)
		}
	}
}

func TestEmbellishPermutes(t *testing.T) {
	w, _ := world(t)
	c, _ := newPair(t, 5)
	genuine := pickGenuine(w, rand.New(rand.NewSource(6)), 4)
	q1, _, _ := c.Embellish(genuine)
	q2, _, _ := c.Embellish(genuine)
	same := len(q1.Entries) == len(q2.Entries)
	if same {
		for i := range q1.Entries {
			if q1.Entries[i].Term != q2.Entries[i].Term {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two embellishments of the same query have identical term order")
	}
}

func TestEmbellishSharedBucketOnce(t *testing.T) {
	// Two genuine terms in the same bucket: the bucket appears once, with
	// both flags encrypting 1.
	w, k := world(t)
	c, _ := newPair(t, 7)
	b0 := w.Org.Bucket(0)
	genuine := []wordnet.TermID{b0[0], b0[1]}
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Entries) != len(b0) {
		t.Fatalf("query has %d entries, want %d (one bucket)", len(q.Entries), len(b0))
	}
	ones := 0
	for _, e := range q.Entries {
		if m, _ := k.DecryptInt(e.Flag); m == 1 {
			ones++
		}
	}
	if ones != 2 {
		t.Fatalf("%d genuine flags, want 2", ones)
	}
}

func TestEmbellishSkipsUnknownTerms(t *testing.T) {
	w, _ := world(t)
	c, _ := newPair(t, 8)
	known := pickGenuine(w, rand.New(rand.NewSource(9)), 1)
	// Choose a dictionary term that is NOT searchable (not in the org).
	var unknown wordnet.TermID = -1
	for i := 0; i < w.DB.NumTerms(); i++ {
		if _, ok := w.Org.BucketOf(wordnet.TermID(i)); !ok {
			unknown = wordnet.TermID(i)
			break
		}
	}
	if unknown == -1 {
		t.Skip("every dictionary term is searchable in this world")
	}
	q, skipped, err := c.Embellish([]wordnet.TermID{known[0], unknown})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != unknown {
		t.Fatalf("skipped = %v, want [%d]", skipped, unknown)
	}
	for _, e := range q.Entries {
		if e.Term == unknown {
			t.Fatal("unknown term leaked into the query")
		}
	}
}

func TestEmbellishAllUnknownErrors(t *testing.T) {
	c, _ := newPair(t, 10)
	if _, _, err := c.Embellish([]wordnet.TermID{wordnet.TermID(1 << 20)}); err == nil {
		t.Fatal("expected error for fully unknown query")
	}
}

// TestClaim1RankPreservation is the paper's Claim 1: the PR scheme's
// decrypted ranking equals the plaintext engine's ranking over the
// genuine terms alone (on quantized impacts).
func TestClaim1RankPreservation(t *testing.T) {
	w, _ := world(t)
	c, s := newPair(t, 20)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		genuine := pickGenuine(w, rng, 2+rng.Intn(3))
		q, _, err := c.Embellish(genuine)
		if err != nil {
			t.Fatal(err)
		}
		resp, _, err := s.Process(q)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := c.PostFilter(resp, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Plaintext reference over genuine terms only.
		var qt []int
		for _, g := range genuine {
			if ti, ok := w.Index.LookupTerm(w.DB.Lemma(g)); ok {
				qt = append(qt, ti)
			}
		}
		want := w.Index.QuantizedTopK(qt, 10)
		if len(want) == 0 {
			continue
		}
		if len(ranked) < len(want) {
			t.Fatalf("trial %d: PR returned %d ranked docs, plaintext %d", trial, len(ranked), len(want))
		}
		for i := range want {
			if ranked[i].Doc != want[i].Doc || ranked[i].Score != int64(want[i].Score) {
				t.Fatalf("trial %d rank %d: PR (%d, %d) vs plaintext (%d, %.0f)",
					trial, i, ranked[i].Doc, ranked[i].Score, want[i].Doc, want[i].Score)
			}
		}
	}
}

func TestDecoysDoNotPerturbScores(t *testing.T) {
	// Candidates that contain only decoy terms must decrypt to zero.
	w, _ := world(t)
	c, s := newPair(t, 30)
	genuine := pickGenuine(w, rand.New(rand.NewSource(31)), 1)
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := s.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := c.PostFilter(resp, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Docs containing the genuine term.
	genuineDocs := map[index.DocID]bool{}
	for _, p := range s.ListFor(genuine[0]) {
		genuineDocs[p.Doc] = true
	}
	zeros := 0
	for _, r := range ranked {
		if genuineDocs[r.Doc] {
			if r.Score <= 0 {
				t.Fatalf("doc %d contains the genuine term but scored %d", r.Doc, r.Score)
			}
		} else {
			if r.Score != 0 {
				t.Fatalf("decoy-only doc %d scored %d, want 0", r.Doc, r.Score)
			}
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("no decoy-only candidates; test world too small to be meaningful")
	}
}

func TestServerStatsAccounting(t *testing.T) {
	w, _ := world(t)
	c, s := newPair(t, 40)
	genuine := pickGenuine(w, rand.New(rand.NewSource(41)), 3)
	q, _, _ := c.Embellish(genuine)
	resp, st, err := s.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != len(resp.Docs) {
		t.Fatalf("Candidates = %d, |R| = %d", st.Candidates, len(resp.Docs))
	}
	buckets := w.Org.BucketsFor(termsOf(q))
	if st.IO.Seeks != len(buckets) {
		t.Fatalf("IO.Seeks = %d, want %d (one per distinct bucket)", st.IO.Seeks, len(buckets))
	}
	if st.Postings == 0 || st.ModMuls == 0 {
		t.Fatalf("no work recorded: %+v", st)
	}
	if q.Bytes() <= 0 || resp.Bytes() <= 0 {
		t.Fatal("traffic accounting empty")
	}
	// Query traffic = entries × (4 + ciphertext bytes).
	if q.Bytes() != len(q.Entries)*(4+q.Pub.CiphertextBytes()) {
		t.Fatal("query bytes formula drifted")
	}
}

func termsOf(q *Query) []wordnet.TermID {
	out := make([]wordnet.TermID, len(q.Entries))
	for i, e := range q.Entries {
		out[i] = e.Term
	}
	return out
}

func TestProcessEmptyQuery(t *testing.T) {
	_, s := newPair(t, 50)
	if _, _, err := s.Process(&Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestMulsForExponent(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 2, 255: 14, 256: 8}
	for e, want := range cases {
		if got := mulsForExponent(e); got != want {
			t.Errorf("mulsForExponent(%d) = %d, want %d", e, got, want)
		}
	}
}

func TestMaxScoreGuard(t *testing.T) {
	_, k := world(t)
	c := NewClient(cachedWorld.Org, k, 1)
	if c.MaxScore().Int64() != k.R.Int64()-1 {
		t.Fatal("MaxScore mismatch")
	}
}

// TestPostFilterAllocsPerCandidate holds Algorithm 5 to no allocation per
// decryption: what a call allocates — the result, and a Decryptor and a
// goroutine per worker — does not grow with the candidate set.
func TestPostFilterAllocsPerCandidate(t *testing.T) {
	_, k := world(t)
	c := NewClient(cachedWorld.Org, k, 70)
	resp := candidateSet(t, k, 588)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.PostFilter(resp, 10); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1
	if per := allocs / float64(len(resp.Docs)); per > ceiling {
		t.Errorf("PostFilter allocates %.2f times per candidate over %d candidates, ceiling %d", per, len(resp.Docs), ceiling)
	} else {
		t.Logf("%.0f allocations over %d candidates", allocs, len(resp.Docs))
	}
}
