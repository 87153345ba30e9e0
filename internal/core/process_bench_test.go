package core

import (
	"math/rand"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/testenv"
)

// BenchmarkProcessParallel serves the W2k ranking shape: about 1,960
// documents over 2,500 synsets, three genuine terms in buckets of eight
// (24 entries), the postings cut into 2 runs folded by 2 workers, a
// 256-bit key and fixed-base tables. It cycles over 16 queries and
// reports their mean postings and candidates per op.
func BenchmarkProcessParallel(b *testing.B) {
	w := testenv.BuildWorld(testenv.Options{Synsets: 2500, NumDocs: 1960, BktSz: 8, MeanLen: 180, Seed: 3})
	k, err := benaloh.GenerateKey(testenv.NewDetRand("bench-process"), 256, benaloh.Pow3(9))
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(w.Org, k, 7)
	c.CryptoRand = testenv.NewDetRand("bench-process-client")
	srv := NewServer(w.Index, w.Org, w.DB)
	srv.Live.SetSharding(2)
	rng := rand.New(rand.NewSource(7))
	qs := make([]*Query, 16)
	for i := range qs {
		if qs[i], _, err = c.Embellish(pickGenuine(w, rng, 3)); err != nil {
			b.Fatal(err)
		}
	}
	var postings, candidates, ops int
	b.ReportAllocs()
	for b.Loop() {
		_, st, err := srv.ProcessParallel(qs[ops%len(qs)], 2)
		if err != nil {
			b.Fatal(err)
		}
		postings, candidates, ops = postings+st.Postings, candidates+st.Candidates, ops+1
	}
	b.ReportMetric(float64(postings)/float64(ops), "postings/op")
	b.ReportMetric(float64(candidates)/float64(ops), "candidates/op")
}
