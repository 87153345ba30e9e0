package pirsearch

import (
	"math/rand"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/core"
	"embellish/internal/index"
	"embellish/internal/pir"
	"embellish/internal/testenv"
	"embellish/internal/wire"
	"embellish/internal/wordnet"
)

var (
	cachedWorld *testenv.World
	cachedKey   *pir.ClientKey
)

func world(t *testing.T) (*testenv.World, *pir.ClientKey) {
	t.Helper()
	if cachedWorld == nil {
		cachedWorld = testenv.BuildWorld(testenv.Options{Seed: 91, BktSz: 4})
		k, err := pir.GenerateKey(testenv.NewDetRand("pirsearch-test"), 256)
		if err != nil {
			t.Fatalf("key generation: %v", err)
		}
		cachedKey = k
	}
	return cachedWorld, cachedKey
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	list := []index.Posting{
		{Doc: 3, Quantized: 17},
		{Doc: 999, Quantized: 1},
		{Doc: 0, Quantized: 255},
	}
	colBytes := 4 + len(list)*postingWire + 24 // extra padding
	buf := encodeList(list, colBytes)
	if len(buf) != colBytes {
		t.Fatalf("encoded %d bytes, want %d", len(buf), colBytes)
	}
	got, err := decodeList(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(list) {
		t.Fatalf("decoded %d postings, want %d", len(got), len(list))
	}
	for i := range list {
		if got[i] != list[i] {
			t.Fatalf("posting %d: got %+v, want %+v", i, got[i], list[i])
		}
	}
}

func TestDecodeListCorruption(t *testing.T) {
	if _, err := decodeList(nil); err == nil {
		t.Fatal("nil column accepted")
	}
	if _, err := decodeList([]byte{0, 0}); err == nil {
		t.Fatal("short column accepted")
	}
	// Header claims more postings than the column holds.
	bad := make([]byte, 12)
	bad[3] = 200
	if _, err := decodeList(bad); err == nil {
		t.Fatal("oversized posting count accepted")
	}
}

func TestEmptyListEncodes(t *testing.T) {
	buf := encodeList(nil, 4)
	got, err := decodeList(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty list decoded to %d postings", len(got))
	}
}

func TestServerMatrixShape(t *testing.T) {
	w, _ := world(t)
	srv := NewServer(w.Index, w.Org, w.DB)
	if len(srv.buckets) != w.Org.NumBuckets() {
		t.Fatalf("%d column stores, want %d buckets", len(srv.buckets), w.Org.NumBuckets())
	}
	for b := 0; b < w.Org.NumBuckets(); b++ {
		bc := &srv.buckets[b]
		if len(bc.cols) != len(w.Org.Bucket(b)) {
			t.Fatalf("bucket %d: %d cols, want %d terms", b, len(bc.cols), len(w.Org.Bucket(b)))
		}
		for j, col := range bc.cols {
			if len(col) != bc.colBytes {
				t.Fatalf("bucket %d column %d: %d bytes, want %d", b, j, len(col), bc.colBytes)
			}
		}
		if srv.Rows(b) != bc.colBytes*8 {
			t.Fatalf("bucket %d: %d rows, want %d bits", b, srv.Rows(b), bc.colBytes*8)
		}
		// Padded length covers the longest list in the bucket.
		for _, tm := range w.Org.Bucket(b) {
			if ti, ok := w.Index.LookupTerm(w.DB.Lemma(tm)); ok {
				need := 4 + len(w.Index.List(ti))*postingWire
				if need > bc.colBytes {
					t.Fatalf("bucket %d: column %d bytes exceed padded %d", b, need, bc.colBytes)
				}
			}
		}
	}
}

func TestRetrieveBucketOutOfRange(t *testing.T) {
	w, k := world(t)
	srv := NewServer(w.Index, w.Org, w.DB)
	q, err := k.NewQuery(testenv.NewDetRand("q"), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Retrieve(-1, []*pir.Query{q}); err == nil {
		t.Fatal("negative bucket accepted")
	}
	if _, _, err := srv.Retrieve(w.Org.NumBuckets(), []*pir.Query{q}); err == nil {
		t.Fatal("out-of-range bucket accepted")
	}
}

// TestPIRFetchMatchesPlaintextList verifies that a single PIR run recovers
// exactly the target term's inverted list.
func TestPIRFetchMatchesPlaintextList(t *testing.T) {
	w, k := world(t)
	srv := NewServer(w.Index, w.Org, w.DB)
	c := NewClient(w.Org, k)
	c.CryptoRand = testenv.NewDetRand("fetch")

	rng := rand.New(rand.NewSource(3))
	target := pickGenuine(w, rng, 1)[0]
	ranked, _, err := c.Search(srv, []wordnet.TermID{target}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ti, ok := w.Index.LookupTerm(w.DB.Lemma(target))
	if !ok {
		t.Fatal("target not in index")
	}
	want := map[index.DocID]int64{}
	for _, p := range w.Index.List(ti) {
		want[p.Doc] = int64(p.Quantized)
	}
	if len(ranked) != len(want) {
		t.Fatalf("fetched %d docs, want %d", len(ranked), len(want))
	}
	for _, r := range ranked {
		if want[r.Doc] != r.Score {
			t.Fatalf("doc %d: score %d, want %d", r.Doc, r.Score, want[r.Doc])
		}
	}
}

// TestPIRSearchMatchesPR runs the same queries through the PR scheme and
// the PIR baseline and requires identical rankings — the precondition for
// the Figure 7/8 comparison to be apples-to-apples.
func TestPIRSearchMatchesPR(t *testing.T) {
	w, k := world(t)
	srv := NewServer(w.Index, w.Org, w.DB)
	c := NewClient(w.Org, k)
	c.CryptoRand = testenv.NewDetRand("match")

	bk, err := benaloh.GenerateKey(testenv.NewDetRand("benaloh"), 256, benaloh.Pow3(9))
	if err != nil {
		t.Fatal(err)
	}
	prClient := core.NewClient(w.Org, bk, 7)
	prClient.CryptoRand = testenv.NewDetRand("pr-rand")
	prServer := core.NewServer(w.Index, w.Org, w.DB)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		genuine := pickGenuine(w, rng, 2+rng.Intn(2))
		pirRanked, _, err := c.Search(srv, genuine, 10)
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := prClient.Embellish(genuine)
		if err != nil {
			t.Fatal(err)
		}
		resp, _, err := prServer.Process(q)
		if err != nil {
			t.Fatal(err)
		}
		prRanked, err := prClient.PostFilter(resp, 10)
		if err != nil {
			t.Fatal(err)
		}
		// PR may rank extra zero-score decoy docs; compare the positive
		// prefix, which must agree exactly.
		for i := range pirRanked {
			if pirRanked[i].Score == 0 {
				break
			}
			if i >= len(prRanked) || prRanked[i].Doc != pirRanked[i].Doc || prRanked[i].Score != pirRanked[i].Score {
				t.Fatalf("trial %d rank %d: PIR (%d,%d) vs PR (%v)", trial, i,
					pirRanked[i].Doc, pirRanked[i].Score, prRanked[i])
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	w, k := world(t)
	srv := NewServer(w.Index, w.Org, w.DB)
	c := NewClient(w.Org, k)
	c.CryptoRand = testenv.NewDetRand("stats")

	rng := rand.New(rand.NewSource(11))
	genuine := pickGenuine(w, rng, 3)
	_, st, err := c.Search(srv, genuine, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != len(genuine) {
		t.Fatalf("Runs = %d, want one per genuine term = %d", st.Runs, len(genuine))
	}
	if st.QueryBytes <= 0 || st.AnswerBytes <= 0 {
		t.Fatalf("traffic accounting empty: %+v", st)
	}
	if st.ModMuls <= 0 || st.IO.Seeks != countBuckets(w, genuine) {
		t.Fatalf("work accounting off: %+v", st)
	}
	if c.QRTests != st.RowsReturned {
		t.Fatalf("QRTests = %d, rows = %d", c.QRTests, st.RowsReturned)
	}
}

// countBuckets: PIR seeks once per bucket a query names — the runs
// against one bucket share one scan of its columns.
func countBuckets(w *testenv.World, genuine []wordnet.TermID) int {
	return len(w.Org.BucketsFor(genuine))
}

func TestUnknownGenuineTermSkipped(t *testing.T) {
	w, k := world(t)
	srv := NewServer(w.Index, w.Org, w.DB)
	c := NewClient(w.Org, k)
	c.CryptoRand = testenv.NewDetRand("unknown")
	ranked, st, err := c.Search(srv, []wordnet.TermID{wordnet.TermID(1 << 20)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 0 || st.Runs != 0 {
		t.Fatalf("out-of-dictionary query ran %d protocols, returned %d docs", st.Runs, len(ranked))
	}
}

// TestMultipleGenuineTermsSameBucket verifies the protocol's documented
// weakness: two genuine terms in one bucket need two protocol runs, two
// seeded vectors up and two padded columns down — in one scan of the
// bucket.
func TestMultipleGenuineTermsSameBucket(t *testing.T) {
	w, k := world(t)
	srv := NewServer(w.Index, w.Org, w.DB)
	c := NewClient(w.Org, k)
	c.CryptoRand = testenv.NewDetRand("samebucket")
	b0 := w.Org.Bucket(0)
	genuine := []wordnet.TermID{b0[0], b0[1]}
	_, st, err := c.Search(srv, genuine, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 2 {
		t.Fatalf("Runs = %d, want 2 (one per genuine term even when co-bucketed)", st.Runs)
	}
	if st.IO.Seeks != 1 {
		t.Fatalf("Seeks = %d, want 1 (one scan answers the bucket's runs)", st.IO.Seeks)
	}
	if want := 2 * wire.SeededEntryBytes(len(b0), 1, 0); st.QueryBytes != want {
		t.Fatalf("QueryBytes = %d, want %d (two seeded vectors)", st.QueryBytes, want)
	}
	if want := 2 * k.AnswerBytes(srv.Rows(0)); st.AnswerBytes != want {
		t.Fatalf("AnswerBytes = %d, want %d (two padded columns)", st.AnswerBytes, want)
	}
}

func TestTrafficGrowsWithBucketRows(t *testing.T) {
	// Answer traffic is KeyLen × max list length in the bucket — padding
	// means a bucket with one long list charges every retrieval for it.
	w, k := world(t)
	srv := NewServer(w.Index, w.Org, w.DB)
	c := NewClient(w.Org, k)
	c.CryptoRand = testenv.NewDetRand("traffic")
	genuine := pickGenuine(w, rand.New(rand.NewSource(17)), 1)
	b, _ := w.Org.BucketOf(genuine[0])
	_, st, err := c.Search(srv, genuine, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.AnswerBytes != k.AnswerBytes(srv.Rows(b)) {
		t.Fatalf("AnswerBytes = %d, want %d", st.AnswerBytes, k.AnswerBytes(srv.Rows(b)))
	}
}
