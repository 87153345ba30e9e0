package eval

import (
	"fmt"
	"math/rand"
	"time"

	"embellish/internal/bucket"
	"embellish/internal/core"
	"embellish/internal/pirsearch"
	"embellish/internal/simio"
	"embellish/internal/wordnet"
)

// RetrievalPoint is the averaged measurement of one scheme at one sweep
// point — the four panels of Figures 7 and 8.
type RetrievalPoint struct {
	ServerIOms  float64 // (a) simulated disk time per query
	ServerCPUms float64 // (b) measured server compute per query
	TrafficKB   float64 // (c) query + response bytes per query
	UserCPUms   float64 // (d) measured client compute per query
}

// measurePR runs Trials random queries of the given size through the
// private retrieval scheme — ranked on the served plan (ProcessParallel,
// GOMAXPROCS workers) — and averages the four metrics.
func (e *Env) measurePR(org *bucket.Organization, querySize int, rng *rand.Rand) (RetrievalPoint, error) {
	client := core.NewClient(org, e.PRKey, rng.Int63())
	client.CryptoRand = e.Rand
	server := core.NewServer(e.Index, org, e.DB)
	disk := simio.Default()

	var pt RetrievalPoint
	for i := 0; i < e.Cfg.Trials; i++ {
		genuine := e.randomQuery(rng, querySize)

		userStart := time.Now()
		q, _, err := client.Embellish(genuine)
		userNS := time.Since(userStart).Nanoseconds()
		if err != nil {
			return pt, fmt.Errorf("eval: PR embellish: %w", err)
		}

		serverStart := time.Now()
		resp, st, err := server.ProcessParallel(q, 0)
		serverNS := time.Since(serverStart).Nanoseconds()
		if err != nil {
			return pt, fmt.Errorf("eval: PR process: %w", err)
		}

		userStart = time.Now()
		if _, err := client.PostFilter(resp, 20); err != nil {
			return pt, fmt.Errorf("eval: PR post-filter: %w", err)
		}
		userNS += time.Since(userStart).Nanoseconds()

		pt.ServerIOms += st.IO.Ms(disk)
		pt.ServerCPUms += float64(serverNS) / 1e6
		pt.TrafficKB += float64(q.Bytes()+resp.Bytes()) / 1024
		pt.UserCPUms += float64(userNS) / 1e6
	}
	pt.scale(1 / float64(e.Cfg.Trials))
	return pt, nil
}

// measurePIR runs the same workload through the PIR baseline, each
// bucket's runs answered in one scan on the flat executor.
func (e *Env) measurePIR(org *bucket.Organization, querySize int, rng *rand.Rand) (RetrievalPoint, error) {
	client := pirsearch.NewClient(org, e.PIRKey)
	client.CryptoRand = e.Rand
	server := pirsearch.NewServer(e.Index, org, e.DB)
	disk := simio.Default()

	var pt RetrievalPoint
	for i := 0; i < e.Cfg.Trials; i++ {
		genuine := e.randomQuery(rng, querySize)
		_, st, err := client.Search(server, genuine, 20)
		if err != nil {
			return pt, fmt.Errorf("eval: PIR search: %w", err)
		}
		pt.ServerIOms += st.IO.Ms(disk)
		pt.ServerCPUms += float64(st.ServerNS) / 1e6
		pt.TrafficKB += float64(st.QueryBytes+st.AnswerBytes) / 1024
		pt.UserCPUms += float64(st.ClientNS) / 1e6
	}
	pt.scale(1 / float64(e.Cfg.Trials))
	return pt, nil
}

func (p *RetrievalPoint) scale(f float64) {
	p.ServerIOms *= f
	p.ServerCPUms *= f
	p.TrafficKB *= f
	p.UserCPUms *= f
}

// randomQuery draws querySize distinct searchable terms (the Section 5.2
// workload: "we form queries from the search terms randomly").
func (e *Env) randomQuery(rng *rand.Rand, querySize int) []wordnet.TermID {
	if querySize > len(e.Searchable) {
		querySize = len(e.Searchable)
	}
	seen := make(map[wordnet.TermID]bool, querySize)
	out := make([]wordnet.TermID, 0, querySize)
	for len(out) < querySize {
		t := e.Searchable[rng.Intn(len(e.Searchable))]
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// perfFigures assembles the four panels from per-sweep-point
// measurements.
func perfFigures(idPrefix, title, xlabel string, xs []float64, pr, pir []RetrievalPoint) []Figure {
	panel := func(suffix, metric, unit string, get func(RetrievalPoint) float64) Figure {
		f := Figure{
			ID:     idPrefix + suffix,
			Title:  title + " — " + metric,
			XLabel: xlabel,
			YLabel: unit,
		}
		prS := Series{Name: "PR", X: xs}
		pirS := Series{Name: "PIR", X: xs}
		for i := range xs {
			prS.Y = append(prS.Y, get(pr[i]))
			pirS.Y = append(pirS.Y, get(pir[i]))
		}
		f.Series = []Series{pirS, prS}
		return f
	}
	return []Figure{
		panel("a", "Search Engine I/O", "msec", func(p RetrievalPoint) float64 { return p.ServerIOms }),
		panel("b", "Search Engine CPU", "msec", func(p RetrievalPoint) float64 { return p.ServerCPUms }),
		panel("c", "Network Traffic", "KB", func(p RetrievalPoint) float64 { return p.TrafficKB }),
		panel("d", "User CPU", "msec", func(p RetrievalPoint) float64 { return p.UserCPUms }),
	}
}

// Figure7 regenerates the four panels of Figure 7: PR versus PIR as the
// bucket size varies, with the query size fixed (the paper uses 12
// genuine terms). Expected shapes: I/O near-identical; PIR server CPU
// somewhat below PR's; PR traffic roughly an order of magnitude below
// PIR's and sublinear in BktSz; PR user CPU below PIR's.
func (e *Env) Figure7(bktSzs []int) ([]Figure, error) {
	if bktSzs == nil {
		bktSzs = DefaultBktSzSweep()
	}
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 70))
	var xs []float64
	var prPts, pirPts []RetrievalPoint
	for _, bktSz := range bktSzs {
		org, err := e.Organization(bktSz, 0)
		if err != nil {
			return nil, fmt.Errorf("eval: figure 7 at BktSz=%d: %w", bktSz, err)
		}
		pr, err := e.measurePR(org, e.Cfg.QuerySize, rng)
		if err != nil {
			return nil, err
		}
		pir, err := e.measurePIR(org, e.Cfg.QuerySize, rng)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(bktSz))
		prPts = append(prPts, pr)
		pirPts = append(pirPts, pir)
	}
	title := fmt.Sprintf("Performance Impact of BktSz (query size %d)", e.Cfg.QuerySize)
	return perfFigures("7", title, "BktSz", xs, prPts, pirPts), nil
}

// DefaultQuerySizeSweep is the Figure 8 x-axis: 4..40 genuine terms.
func DefaultQuerySizeSweep() []int { return []int{4, 8, 12, 20, 28, 40} }

// Figure8 regenerates the four panels of Figure 8: PR versus PIR as the
// query size varies, with BktSz fixed at 8. Expected shapes: PIR traffic
// and user CPU grow linearly with query size (one protocol run per
// genuine term); PR scales much more gracefully.
func (e *Env) Figure8(querySizes []int) ([]Figure, error) {
	if querySizes == nil {
		querySizes = DefaultQuerySizeSweep()
	}
	const bktSz = 8
	org, err := e.Organization(bktSz, 0)
	if err != nil {
		return nil, fmt.Errorf("eval: figure 8: %w", err)
	}
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 80))
	var xs []float64
	var prPts, pirPts []RetrievalPoint
	for _, qs := range querySizes {
		pr, err := e.measurePR(org, qs, rng)
		if err != nil {
			return nil, err
		}
		pir, err := e.measurePIR(org, qs, rng)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(qs))
		prPts = append(prPts, pr)
		pirPts = append(pirPts, pir)
	}
	return perfFigures("8", "Performance Impact of Query Size (BktSz=8)", "Query Size", xs, prPts, pirPts), nil
}
