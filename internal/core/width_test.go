package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"embellish/internal/index"
	"embellish/internal/testenv"
	"embellish/internal/wordnet"
)

// TestWidthRule: a fan-out of n units takes ⌈n/grain⌉ workers, at least
// one and at most GOMAXPROCS, at the run's GOMAXPROCS (CI runs it at 1, 2
// and 4).
func TestWidthRule(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	const p = rankGrain
	for _, c := range []struct{ work, grain, want int }{
		{0, p, 1},
		{p - 1, p, 1},
		{p, p, 1},
		{p + 1, p, 2},
		{2 * p, p, 2},
		{2*p + 1, p, 3},
		{100 * p, p, 100},
		// search-session's 588 candidates keep PostFilter's two workers.
		{588, postFilterGrain, 5},
		{postFilterGrain, postFilterGrain, 1},
	} {
		if got, want := width(c.work, c.grain), min(c.want, procs); got != want {
			t.Errorf("width(%d, %d) = %d at GOMAXPROCS %d, want %d", c.work, c.grain, got, procs, want)
		}
	}
}

// widthWorld indexes 2·rankGrain small documents over the test world's
// organization so that the first four of the returned terms hold exactly
// rankGrain−1, rankGrain, rankGrain+1 and 2·rankGrain postings; the fifth
// is in no document.
func widthWorld(t *testing.T) (*Server, []wordnet.TermID) {
	t.Helper()
	w, _ := world(t)
	lens := []int{rankGrain - 1, rankGrain, rankGrain + 1, 2 * rankGrain, 0}
	terms := make([]wordnet.TermID, 0, len(lens))
	seen := make(map[string]bool)
	for _, term := range w.Searchable {
		if l := w.DB.Lemma(term); !seen[l] && len(terms) < len(lens) {
			seen[l] = true
			terms = append(terms, term)
		}
	}
	b := index.NewBuilder()
	for d := range 2 * rankGrain {
		tokens := []string{"filler"}
		for i, term := range terms {
			for range 1 + (d+i)%3 {
				if d < lens[i] {
					tokens = append(tokens, w.DB.Lemma(term))
				}
			}
		}
		b.Add(index.DocID(d), tokens)
	}
	srv := NewLiveServer(index.NewLive(b.Build()), w.Org, w.DB)
	for i, term := range terms {
		if got := len(srv.ListFor(term)); got != lens[i] {
			t.Fatalf("term %d holds %d postings, want %d", i, got, lens[i])
		}
	}
	return srv, terms
}

// servedWidth runs the served default, ProcessParallel(q, 0), and returns
// its response and stats with the number of workers that reached the
// barrier between the phases: the width the plan picked.
func servedWidth(t *testing.T, srv *Server, q *Query) (*Response, Stats, int) {
	t.Helper()
	var workers atomic.Int32
	planHooks.barrier = func() { workers.Add(1) }
	defer func() { planHooks.barrier = nil }()
	resp, st, err := srv.ProcessParallel(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp, st, int(workers.Load())
}

// responseBytes is a response as the wire carries it: each candidate's
// document id, then its ciphertext at the key's fixed width.
func responseBytes(r *Response) []byte {
	var out []byte
	for _, ds := range r.Docs {
		out = binary.BigEndian.AppendUint32(out, uint32(ds.Doc))
		out = append(out, ds.Enc.FillBytes(make([]byte, r.ctxBytes))...)
	}
	return out
}

// conformsToOracle holds a served response to the oracle's, byte for
// byte, with equal Stats.
func conformsToOracle(t *testing.T, name string, srv *Server, q *Query, got *Response, gotSt Stats) {
	t.Helper()
	want, wantSt, err := srv.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResponse(t, name, got, want, gotSt, wantSt)
	if !bytes.Equal(responseBytes(got), responseBytes(want)) {
		t.Fatalf("%s: response bytes differ from the oracle's", name)
	}
}

// TestWidthOfServedQueries: the served default picks min(GOMAXPROCS,
// shards, ⌈postings/rankGrain⌉) workers, at least one, from the query's
// postings — 0, P−1, P, P+1, 2P and 5P for P = rankGrain — at one shard
// (the shard cap), three and eight (the GOMAXPROCS cap at 5P), and
// answers the oracle's response at each width.
func TestWidthOfServedQueries(t *testing.T) {
	_, k := world(t)
	srv, terms := widthWorld(t)
	rng := rand.New(rand.NewSource(2141))
	query := func(idx ...int) *Query {
		q := &Query{Pub: &k.PublicKey}
		for _, i := range idx {
			q.Entries = append(q.Entries, QueryEntry{Term: terms[i]})
		}
		return requantize(q, &k.PublicKey, rng)
	}
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		postings int
		q        *Query
	}{
		{0, query(4)},
		{rankGrain - 1, query(0, 4)},
		{rankGrain, query(1)},
		{rankGrain + 1, query(2)},
		{2 * rankGrain, query(3, 4)},
		{5 * rankGrain, query(0, 1, 2, 3)},
	} {
		for _, shards := range []int{1, 3, 8} {
			srv.Live.SetSharding(shards)
			name := fmt.Sprintf("postings=%d shards=%d GOMAXPROCS=%d", c.postings, shards, procs)
			resp, st, workers := servedWidth(t, srv, c.q)
			if st.Postings != c.postings {
				t.Fatalf("%s: the query walked %d postings", name, st.Postings)
			}
			if want := min(procs, shards, max(1, (c.postings+rankGrain-1)/rankGrain)); workers != want {
				t.Fatalf("%s: %d workers, want %d", name, workers, want)
			}
			conformsToOracle(t, name, srv, c.q, resp, st)
		}
	}
}

// TestWidthDefaultConformsToOracle: on bench/'s W2k ranking shape, whose
// three-term query falls below rankGrain, and on the 4x world's, whose
// query rises above it, the served default answers the oracle's response
// byte for byte with equal Stats, on the width the rule picks.
func TestWidthDefaultConformsToOracle(t *testing.T) {
	_, k := world(t)
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		docs  int
		above bool
	}{{1960, false}, {7840, true}} {
		w := testenv.BuildWorld(testenv.Options{Synsets: 2500, NumDocs: c.docs, BktSz: 8, MeanLen: 180, Seed: 3})
		cl := NewClient(w.Org, k, 2151)
		cl.CryptoRand = testenv.NewDetRand("core-width-client")
		srv := NewServer(w.Index, w.Org, w.DB)
		srv.Live.SetSharding(4)
		q, _, err := cl.Embellish(pickGenuine(w, rand.New(rand.NewSource(2152)), 3))
		if err != nil {
			t.Fatal(err)
		}
		resp, st, workers := servedWidth(t, srv, q)
		name := fmt.Sprintf("docs=%d GOMAXPROCS=%d", c.docs, procs)
		if (st.Postings > rankGrain) != c.above {
			t.Fatalf("%s: the query walks %d postings against rankGrain %d", name, st.Postings, rankGrain)
		}
		if want := min(procs, 4, (st.Postings+rankGrain-1)/rankGrain); workers != want {
			t.Fatalf("%s: %d postings on %d workers, want %d", name, st.Postings, workers, want)
		}
		conformsToOracle(t, name, srv, q, resp, st)
	}
}
