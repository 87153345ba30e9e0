// Longquery: general text search produces long queries — TREC ad-hoc
// topics run to 20 terms and query expansion goes further (Section 2.1).
// Canonical-query schemes cannot materialize enough term combinations to
// cover that space, and the PIR baseline pays one protocol run per
// genuine term. This example measures PR versus PIR on progressively
// longer queries over one shared world, reproducing the Figure 8
// scaling story at example scale.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"embellish/internal/core"
	"embellish/internal/detrand"
	"embellish/internal/eval"
	"embellish/internal/pir"
	"embellish/internal/pirsearch"
	"embellish/internal/wordnet"
)

func main() {
	cfg := eval.DefaultConfig()
	cfg.Synsets = 2000
	cfg.NumDocs = 250
	cfg.KeyBits = 256
	env, err := eval.NewEnv(cfg)
	if err != nil {
		log.Fatal(err)
	}
	org, err := env.Organization(8, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d docs, %d searchable terms, %d buckets of 8\n\n",
		cfg.NumDocs, len(env.Searchable), org.NumBuckets())

	// PR endpoints.
	prClient := core.NewClient(org, env.PRKey, 1)
	prClient.CryptoRand = detrand.New("longquery-pr")
	prServer := core.NewServer(env.Index, org, env.DB)

	// PIR endpoints.
	pirKey, err := pir.GenerateKey(detrand.New("longquery-key"), cfg.KeyBits)
	if err != nil {
		log.Fatal(err)
	}
	pirClient := pirsearch.NewClient(org, pirKey)
	pirClient.CryptoRand = detrand.New("longquery-pir")
	pirServer := &timedServer{Server: pirsearch.NewServer(env.Index, org, env.DB)}

	rng := rand.New(rand.NewSource(3))

	fmt.Printf("%-10s  %22s  %22s\n", "", "PR", "PIR")
	fmt.Printf("%-10s  %10s %11s  %10s %11s\n", "query size", "traffic", "user time", "traffic", "user time")
	for _, size := range []int{4, 8, 16, 24, 40} {
		genuine := pickTerms(env, rng, size)

		// PR: embellish -> process -> post-filter.
		start := time.Now()
		q, _, err := prClient.Embellish(genuine)
		if err != nil {
			log.Fatal(err)
		}
		userPR := time.Since(start)
		resp, _, err := prServer.ProcessParallel(q, 0)
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		if _, err := prClient.PostFilter(resp, 20); err != nil {
			log.Fatal(err)
		}
		userPR += time.Since(start)
		prTraffic := q.Bytes() + resp.Bytes()

		// PIR: one protocol run per genuine term, a bucket's runs in one
		// scan; the user's time is the search's less the server's.
		pirServer.spent = 0
		start = time.Now()
		_, pirStats, err := pirClient.Search(pirServer, genuine, 20)
		if err != nil {
			log.Fatal(err)
		}
		userPIR := time.Since(start) - pirServer.spent
		pirTraffic := pirStats.QueryBytes + pirStats.AnswerBytes

		fmt.Printf("%-10d  %9.1fKB %10.1fms  %9.1fKB %10.1fms\n",
			size,
			float64(prTraffic)/1024, float64(userPR.Nanoseconds())/1e6,
			float64(pirTraffic)/1024, float64(userPIR.Nanoseconds())/1e6)
	}

	fmt.Println(`
PIR's traffic and user time grow linearly with the query size (one
protocol execution per genuine term, each returning a padded bucket
column); PR sends one ciphertext per embellished term and receives one
per candidate document, scaling far more gently — the paper's argument
for PR on long and expanded queries.`)
}

// timedServer adds the wall time of each Retrieve call to spent: the
// server's share of a Search.
type timedServer struct {
	*pirsearch.Server
	spent time.Duration
}

func (t *timedServer) Retrieve(b int, qs []*pir.Query) ([]*pir.Answer, pirsearch.Stats, error) {
	start := time.Now()
	defer func() { t.spent += time.Since(start) }()
	return t.Server.Retrieve(b, qs)
}

func pickTerms(env *eval.Env, rng *rand.Rand, n int) []wordnet.TermID {
	seen := map[wordnet.TermID]bool{}
	out := make([]wordnet.TermID, 0, n)
	for len(out) < n {
		t := env.Searchable[rng.Intn(len(env.Searchable))]
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
