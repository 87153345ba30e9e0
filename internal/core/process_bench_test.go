package core

import (
	"fmt"
	"math/rand"
	"testing"

	"embellish/internal/benaloh"
	"embellish/internal/testenv"
)

// BenchmarkProcessParallel serves the ranking shape of bench/'s worlds:
// 2,500 synsets, three genuine terms in buckets of eight (24 entries), the
// postings cut into 2 runs, a 256-bit key and fixed-base tables. It runs
// at W2k's 1,960 documents and at the 4x world's 7,840, each on 1 and 2
// workers and on 0 — the width ProcessParallelCtx picks from the
// postings (rankGrain). Each sub-benchmark cycles over 16 queries and
// reports their mean postings and candidates per op.
func BenchmarkProcessParallel(b *testing.B) {
	k, err := benaloh.GenerateKey(testenv.NewDetRand("bench-process"), 256, benaloh.Pow3(9))
	if err != nil {
		b.Fatal(err)
	}
	for _, docs := range []int{1960, 7840} {
		w := testenv.BuildWorld(testenv.Options{Synsets: 2500, NumDocs: docs, BktSz: 8, MeanLen: 180, Seed: 3})
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
		for _, workers := range []int{1, 2, 0} {
			b.Run(fmt.Sprintf("docs=%d/workers=%d", docs, workers), func(b *testing.B) {
				var postings, candidates, ops int
				b.ReportAllocs()
				for b.Loop() {
					_, st, err := srv.ProcessParallel(qs[ops%len(qs)], workers)
					if err != nil {
						b.Fatal(err)
					}
					postings, candidates, ops = postings+st.Postings, candidates+st.Candidates, ops+1
				}
				b.ReportMetric(float64(postings)/float64(ops), "postings/op")
				b.ReportMetric(float64(candidates)/float64(ops), "candidates/op")
			})
		}
	}
}
