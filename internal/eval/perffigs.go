package eval

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"

	"embellish/internal/bucket"
	"embellish/internal/core"
	"embellish/internal/pir"
	"embellish/internal/pirsearch"
	"embellish/internal/simio"
	"embellish/internal/wordnet"
)

// RetrievalPoint is the averaged measurement of one scheme at one sweep
// point — the four panels of Figures 7 and 8, with the wall time of
// panels b and d beside their CPU time.
type RetrievalPoint struct {
	ServerIOms   float64 // (a) simulated disk time per query
	ServerCPUms  float64 // (b) server CPU time per query, every worker's
	ServerWallms float64 // (b) the same calls' elapsed time
	TrafficKB    float64 // (c) query + response bytes per query
	UserCPUms    float64 // (d) client CPU time per query, every worker's
	UserWallms   float64 // (d) the same calls' elapsed time
}

// cost is the process CPU time and the wall time some calls took. The
// served kernels fan out on several goroutines, so a call's elapsed time
// undercounts its work; its CPU time does not. The eval runs one call at
// a time, so the process's CPU time across a call is the call's.
type cost struct{ cpu, wall time.Duration }

// stamp is a reading of the process's CPU time (user plus system, every
// thread: getrusage(RUSAGE_SELF)) and of the wall clock.
type stamp struct {
	cpu  time.Duration
	wall time.Time
}

func now() stamp {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return stamp{time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), time.Now()}
}

// since returns the cost of what ran between s and now.
func (s stamp) since() cost {
	t := now()
	return cost{t.cpu - s.cpu, t.wall.Sub(s.wall)}
}

func (c *cost) add(d cost) { c.cpu, c.wall = c.cpu+d.cpu, c.wall+d.wall }

func (c cost) sub(d cost) cost { return cost{c.cpu - d.cpu, c.wall - d.wall} }

// charge adds the server's and the user's costs of one query to p, in
// milliseconds.
func (p *RetrievalPoint) charge(server, user cost) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	p.ServerCPUms += ms(server.cpu)
	p.ServerWallms += ms(server.wall)
	p.UserCPUms += ms(user.cpu)
	p.UserWallms += ms(user.wall)
}

// measurePR runs Trials random queries of the given size through the
// private retrieval scheme — ranked on the served plan (ProcessParallel on
// the width its rule picks from the query's postings) — and averages the
// four metrics.
func (e *Env) measurePR(org *bucket.Organization, querySize int, rng *rand.Rand) (RetrievalPoint, error) {
	client := core.NewClient(org, e.PRKey, rng.Int63())
	client.CryptoRand = e.Rand
	server := core.NewServer(e.Index, org, e.DB)
	disk := simio.Default()

	var pt RetrievalPoint
	for i := 0; i < e.Cfg.Trials; i++ {
		genuine := e.randomQuery(rng, querySize)

		start := now()
		q, _, err := client.Embellish(genuine)
		user := start.since()
		if err != nil {
			return pt, fmt.Errorf("eval: PR embellish: %w", err)
		}

		start = now()
		resp, st, err := server.ProcessParallel(q, 0)
		srv := start.since()
		if err != nil {
			return pt, fmt.Errorf("eval: PR process: %w", err)
		}

		start = now()
		if _, err := client.PostFilter(resp, 20); err != nil {
			return pt, fmt.Errorf("eval: PR post-filter: %w", err)
		}
		user.add(start.since())

		pt.ServerIOms += st.IO.Ms(disk)
		pt.charge(srv, user)
		pt.TrafficKB += float64(q.Bytes()+resp.Bytes()) / 1024
	}
	pt.scale(1 / float64(e.Cfg.Trials))
	return pt, nil
}

// metered is a PIR server that adds the cost of each Retrieve call to
// cost: the server's share of a Search.
type metered struct {
	*pirsearch.Server
	cost cost
}

func (m *metered) Retrieve(b int, qs []*pir.Query) ([]*pir.Answer, pirsearch.Stats, error) {
	start := now()
	defer func() { m.cost.add(start.since()) }()
	return m.Server.Retrieve(b, qs)
}

// measurePIR runs the same workload through the PIR baseline, each
// bucket's runs answered in one scan on the flat executor. The server's
// cost is its Retrieve calls'; the user's is the rest of the Search.
func (e *Env) measurePIR(org *bucket.Organization, querySize int, rng *rand.Rand) (RetrievalPoint, error) {
	client := pirsearch.NewClient(org, e.PIRKey)
	client.CryptoRand = e.Rand
	server := pirsearch.NewServer(e.Index, org, e.DB)
	disk := simio.Default()

	var pt RetrievalPoint
	for i := 0; i < e.Cfg.Trials; i++ {
		genuine := e.randomQuery(rng, querySize)
		m := &metered{Server: server}
		start := now()
		_, st, err := client.Search(m, genuine, 20)
		total := start.since()
		if err != nil {
			return pt, fmt.Errorf("eval: PIR search: %w", err)
		}
		pt.ServerIOms += st.IO.Ms(disk)
		pt.charge(m.cost, total.sub(m.cost))
		pt.TrafficKB += float64(st.QueryBytes+st.AnswerBytes) / 1024
	}
	pt.scale(1 / float64(e.Cfg.Trials))
	return pt, nil
}

func (p *RetrievalPoint) scale(f float64) {
	p.ServerIOms *= f
	p.ServerCPUms *= f
	p.ServerWallms *= f
	p.TrafficKB *= f
	p.UserCPUms *= f
	p.UserWallms *= f
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
// Panels b and d plot CPU time as "PIR" and "PR", with the wall time
// of the same calls beside it as "PIR wall" and "PR wall".
func perfFigures(idPrefix, title, xlabel string, xs []float64, pr, pir []RetrievalPoint) []Figure {
	panel := func(suffix, metric, unit string, get, wall func(RetrievalPoint) float64) Figure {
		f := Figure{
			ID:     idPrefix + suffix,
			Title:  title + " — " + metric,
			XLabel: xlabel,
			YLabel: unit,
		}
		series := func(name string, pts []RetrievalPoint, get func(RetrievalPoint) float64) {
			s := Series{Name: name, X: xs}
			for _, p := range pts {
				s.Y = append(s.Y, get(p))
			}
			f.Series = append(f.Series, s)
		}
		series("PIR", pir, get)
		series("PR", pr, get)
		if wall != nil {
			series("PIR wall", pir, wall)
			series("PR wall", pr, wall)
		}
		return f
	}
	return []Figure{
		panel("a", "Search Engine I/O", "msec", func(p RetrievalPoint) float64 { return p.ServerIOms }, nil),
		panel("b", "Search Engine CPU", "msec", func(p RetrievalPoint) float64 { return p.ServerCPUms },
			func(p RetrievalPoint) float64 { return p.ServerWallms }),
		panel("c", "Network Traffic", "KB", func(p RetrievalPoint) float64 { return p.TrafficKB }, nil),
		panel("d", "User CPU", "msec", func(p RetrievalPoint) float64 { return p.UserCPUms },
			func(p RetrievalPoint) float64 { return p.UserWallms }),
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
