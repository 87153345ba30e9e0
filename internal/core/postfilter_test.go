package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/index"
	"embellish/internal/testenv"
)

// candidateSet returns a response of n candidates with random scores
// under key, in shuffled document order — PostFilter's input without a
// server behind it, at any size.
func candidateSet(tb testing.TB, k *benaloh.PrivateKey, n int) *Response {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	src := testenv.NewDetRand(fmt.Sprintf("candidates-%d", n))
	resp := &Response{Docs: make([]DocScore, n)}
	for i, d := range rng.Perm(n) {
		enc, err := k.EncryptInt(src, rng.Int63n(k.R.Int64()))
		if err != nil {
			tb.Fatal(err)
		}
		resp.Docs[i] = DocScore{Doc: index.DocID(d), Enc: enc}
	}
	return resp
}

// scoredSet returns a response whose candidate at position i scores
// scores[i], under the document ids docs[i].
func scoredSet(tb testing.TB, k *benaloh.PrivateKey, docs []index.DocID, scores []int64) *Response {
	tb.Helper()
	src := testenv.NewDetRand(fmt.Sprintf("scored-%d", len(scores)))
	resp := &Response{Docs: make([]DocScore, len(scores))}
	for i, s := range scores {
		enc, err := k.EncryptInt(src, s)
		if err != nil {
			tb.Fatal(err)
		}
		resp.Docs[i] = DocScore{Doc: docs[i], Enc: enc}
	}
	return resp
}

// tieHeavySets are candidate sets whose ranking rests on the tie-break:
// a few scores over an all-zero tail, in shuffled document order; one
// score shared by every candidate, the document ids descending so the
// lowest ids sit in the last worker's range; and a few scores repeated
// in blocks that straddle every range boundary at every width.
func tieHeavySets(tb testing.TB, k *benaloh.PrivateKey) map[string]*Response {
	tb.Helper()
	const n = 588
	rng := rand.New(rand.NewSource(588))
	shuffled, descending := make([]index.DocID, n), make([]index.DocID, n)
	for i, d := range rng.Perm(n) {
		shuffled[i], descending[i] = index.DocID(d), index.DocID(n-1-i)
	}
	zeroTail, equal, blocks := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range n {
		if i < 40 {
			zeroTail[i] = rng.Int63n(4)
		}
		equal[i] = 7
		blocks[i] = int64(i/50) % 3
	}
	return map[string]*Response{
		"zero tail":      scoredSet(tb, k, shuffled, zeroTail),
		"one score":      scoredSet(tb, k, descending, equal),
		"blocks of ties": scoredSet(tb, k, descending, blocks),
	}
}

// serialPostFilter is the oracle: Algorithm 5 as one loop over one
// Decryptor, the whole of PostFilter before it had a width.
func serialPostFilter(key *benaloh.PrivateKey, resp *Response, k int) ([]Ranked, error) {
	out := make([]Ranked, 0, len(resp.Docs))
	dec := key.NewDecryptor()
	for _, ds := range resp.Docs {
		m, err := dec.DecryptInt(ds.Enc)
		if err != nil {
			return nil, fmt.Errorf("core: decrypting score of doc %d: %w", ds.Doc, err)
		}
		out = append(out, Ranked{Doc: ds.Doc, Score: m})
	}
	sortRanked(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// TestPostFilterWidths holds the fan-out and the top-k pass to the serial
// oracle at every width the rule can choose and at k = 0, 1, 10, n-1, n
// and n+1: the same ranking in the same order, ties included, and the
// lowest failing candidate's error whichever worker claims its chunk and
// whichever lane of a two-candidate decryption it sits in.
func TestPostFilterWidths(t *testing.T) {
	_, key := world(t)
	c := NewClient(cachedWorld.Org, key, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	all := candidateSet(t, key, 5000)
	ties := tieHeavySets(t, key)
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for name, resp := range ties {
			checkTopK(t, c, key, resp, procs, name)
		}
		for _, n := range []int{0, 1, 63, 64, 65, 588, 5000} {
			resp := &Response{Docs: all.Docs[:n]}
			checkTopK(t, c, key, resp, procs, "random scores")
			if n < 2 {
				continue
			}
			// Two bad ciphertexts, in one chunk and in different ones; in
			// the last pair the lower failure closes the first chunk and
			// the higher opens the second, so with two workers the higher
			// one is most often met first.
			for _, at := range [][2]int{{0, n - 1}, {n / 2, n - 1}, {n/2 - 1, n / 2}, {n - 2, n - 1}, {postFilterChunk - 1, postFilterChunk}} {
				if at[0] < at[1] && at[1] < n {
					checkBadAt(t, c, key, resp, procs, at[:])
				}
			}
			// In the first two chunks, the middle one and the last, bad
			// ciphertexts at a pair's first lane, its second lane, both
			// lanes, and the unpaired tail of an odd-length last chunk.
			chunks := (n + postFilterChunk - 1) / postFilterChunk
			for _, ch := range slices.Compact([]int{0, min(1, chunks-1), chunks / 2, chunks - 1}) {
				lo, hi := ch*postFilterChunk, min((ch+1)*postFilterChunk, n)
				if hi-lo >= 2 {
					first := lo + (hi-lo-2)/4*2 // an even offset: a pair's first lane
					for _, at := range [][]int{{first}, {first + 1}, {first, first + 1}} {
						checkBadAt(t, c, key, resp, procs, at)
					}
				}
				if (hi-lo)%2 == 1 {
					checkBadAt(t, c, key, resp, procs, []int{hi - 1})
				}
			}
		}
	}
}

// checkTopK holds PostFilter to the serial oracle at k = 0, 1, 10, n-1,
// n and n+1 for a response of n candidates.
func checkTopK(t *testing.T, c *Client, key *benaloh.PrivateKey, resp *Response, procs int, what string) {
	t.Helper()
	n := len(resp.Docs)
	for _, k := range []int{0, 1, 10, n - 1, n, n + 1} {
		want, err := serialPostFilter(key, resp, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.PostFilter(resp, k)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d, %d candidates (%s), k %d: %v", procs, n, what, k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d, %d candidates (%s), k %d: ranking differs from the serial oracle", procs, n, what, k)
		}
	}
}

// checkBadAt replaces the candidates at the ascending positions at with
// non-units — zero first, n after — and holds PostFilter's error to the
// serial oracle's: ErrNotUnit, naming the lowest one's document.
func checkBadAt(t *testing.T, c *Client, key *benaloh.PrivateKey, resp *Response, procs int, at []int) {
	t.Helper()
	bad := &Response{Docs: append([]DocScore(nil), resp.Docs...)}
	for i, pos := range at {
		if i == 0 {
			bad.Docs[pos].Enc = new(big.Int)
		} else {
			bad.Docs[pos].Enc = new(big.Int).Set(key.N)
		}
	}
	_, want := serialPostFilter(key, bad, 0)
	_, err := c.PostFilter(bad, 0)
	if err == nil || !errors.Is(err, benaloh.ErrNotUnit) || err.Error() != want.Error() ||
		!strings.Contains(err.Error(), fmt.Sprintf("doc %d:", bad.Docs[at[0]].Doc)) {
		t.Fatalf("GOMAXPROCS %d, %d candidates, bad at %v: error %v, want %v", procs, len(resp.Docs), at, err, want)
	}
}

// TestPostFilterConcurrentCallers shares one Client among eight callers:
// the key and its tables are read-only, every temporary is a worker's own.
func TestPostFilterConcurrentCallers(t *testing.T) {
	_, key := world(t)
	c := NewClient(cachedWorld.Org, key, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	resp := candidateSet(t, key, 588)
	want, err := serialPostFilter(key, resp, 10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				got, err := c.PostFilter(resp, 10)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent PostFilter ranking differs from the serial oracle")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkPostFilter decodes a candidate set at the served shape: 588
// candidates — W2k's three-term search — under a 256-bit key with
// r = 3^12, at the run's GOMAXPROCS; run with -benchmem.
func BenchmarkPostFilter(b *testing.B) {
	key, err := benaloh.GenerateKey(testenv.NewDetRand("bench-postfilter"), 256, benaloh.Pow3(12))
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(nil, key, 1)
	resp := candidateSet(b, key, 588)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.PostFilter(resp, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(resp.Docs)), "ns/candidate")
}
