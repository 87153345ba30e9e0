package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"embellish/internal/benaloh"
)

// TestShardedMatchesSequential: the document-sharded worker-pool
// pipeline, with and without fixed-base precomputation, must decrypt to
// exactly the sequential Algorithm 4 scores for every candidate.
func TestShardedMatchesSequential(t *testing.T) {
	w, _ := world(t)
	rng := rand.New(rand.NewSource(91))
	for _, cfg := range []struct {
		shards  int
		window  uint
		workers int
	}{
		{shards: 1, window: 0, workers: 1},
		{shards: 2, window: 0, workers: 2},
		{shards: 4, window: 4, workers: 2},
		{shards: 8, window: 4, workers: 8},
		{shards: 3, window: 2, workers: 16}, // more workers than shards
	} {
		c, s := newPair(t, 90)
		_, seqServer := newPair(t, 90)
		seqServer.window = 0
		genuine := pickGenuine(w, rng, 3)
		q, _, err := c.Embellish(genuine)
		if err != nil {
			t.Fatal(err)
		}
		seqResp, seqStats, err := seqServer.Process(q)
		if err != nil {
			t.Fatal(err)
		}
		s.Live.SetSharding(cfg.shards)
		s.window = cfg.window
		shResp, shStats, err := s.ProcessParallel(q, cfg.workers)
		if err != nil {
			t.Fatal(err)
		}
		if shStats.Postings != seqStats.Postings || shStats.Candidates != seqStats.Candidates {
			t.Fatalf("%+v: stats diverge: %+v vs %+v", cfg, shStats, seqStats)
		}
		if shStats.IO != seqStats.IO {
			t.Fatalf("%+v: IO accounting diverges", cfg)
		}
		seqRanked, err := c.PostFilter(seqResp, 0)
		if err != nil {
			t.Fatal(err)
		}
		shRanked, err := c.PostFilter(shResp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqRanked) != len(shRanked) {
			t.Fatalf("%+v: %d vs %d candidates", cfg, len(shRanked), len(seqRanked))
		}
		for i := range seqRanked {
			if seqRanked[i] != shRanked[i] {
				t.Fatalf("%+v rank %d: %+v vs %+v", cfg, i, shRanked[i], seqRanked[i])
			}
		}
	}
}

// TestPrecomputeMatchesSequential: fixed-base precomputation on the
// sequential path must not change any decrypted score, and must lower
// the modeled multiplication count on long lists.
func TestPrecomputeMatchesSequential(t *testing.T) {
	w, _ := world(t)
	c, plain := newPair(t, 94)
	_, pre := newPair(t, 94)
	plain.window, pre.window = 0, 4
	genuine := pickGenuine(w, rand.New(rand.NewSource(95)), 3)
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	plainResp, plainStats, err := plain.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	preResp, preStats, err := pre.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	if preStats.Postings != plainStats.Postings {
		t.Fatalf("postings diverge: %d vs %d", preStats.Postings, plainStats.Postings)
	}
	a, err := c.PostFilter(plainResp, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.PostFilter(preResp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d candidates", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, b[i], a[i])
		}
	}
}

// TestShardedConcurrentQueries runs many queries against one sharded
// server from concurrent goroutines while another re-cuts the live set
// between 2 and 4 shards: every response still equals the oracle's. Run
// under -race this doubles as the data-race check for the shared cut
// segments, the re-cut's publication and the fixed-base plans.
func TestShardedConcurrentQueries(t *testing.T) {
	w, _ := world(t)
	c, s := newPair(t, 96)
	s.Live.SetSharding(4)
	s.window = 4
	rng := rand.New(rand.NewSource(97))

	type job struct {
		q    *Query
		want *Response
		st   Stats
	}
	jobs := make([]job, 6)
	for i := range jobs {
		genuine := pickGenuine(w, rng, 2)
		q, _, err := c.Embellish(genuine)
		if err != nil {
			t.Fatal(err)
		}
		want, st, err := s.Process(q)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{q: q, want: want, st: st}
	}

	// The flipper runs until every querier is done, and each querier
	// keeps querying until the shard count has flipped a few times, so
	// the re-cuts overlap the queries at any GOMAXPROCS.
	var flips atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Live.SetSharding(2 + 2*(n%2))
			flips.Add(1)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, jb := range jobs {
		wg.Add(1)
		go func(jb job) {
			defer wg.Done()
			for round := 0; round < 3 || flips.Load() < 4; round++ {
				got, st, err := s.ProcessParallel(jb.q, 2)
				if err != nil {
					errs <- err
					return
				}
				if st != jb.st || !slices.EqualFunc(got.Docs, jb.want.Docs, func(a, b DocScore) bool {
					return a.Doc == b.Doc && a.Enc.Cmp(b.Enc) == 0
				}) {
					errs <- errMismatch{}
					return
				}
			}
		}(jb)
	}
	wg.Wait()
	close(stop)
	<-stopped
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "sharded response diverged from the oracle's" }

// TestNewLiveServerResolvesTheServedSchedule: the constructor cuts the
// live set into GOMAXPROCS shards and builds fixed-base tables of
// benaloh.DefaultWindow, the schedule the engine serves, so the plan
// spends fewer products than the table-less oracle.
func TestNewLiveServerResolvesTheServedSchedule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	w, _ := world(t)
	c, s := newPair(t, 98)
	if s.window != benaloh.DefaultWindow || s.Live.Snapshot().Runs != 3 {
		t.Fatalf("window %d over %d shards, want %d over GOMAXPROCS = 3", s.window, s.Live.Snapshot().Runs, benaloh.DefaultWindow)
	}
	q, _, err := c.Embellish(pickGenuine(w, rand.New(rand.NewSource(99)), 3))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := s.ProcessParallel(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.window = 0
	_, ost, err := s.Process(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModMuls >= ost.ModMuls {
		t.Fatalf("served schedule spent %d products, the table-less oracle %d: want fewer", st.ModMuls, ost.ModMuls)
	}
}
