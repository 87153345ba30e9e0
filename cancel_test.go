package embellish

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"embellish/internal/core"
	"embellish/internal/detrand"
	"embellish/internal/scanclock"
	"embellish/internal/wire"
)

// cancelOvershootSlack bounds how long a cancelled scan may keep
// running past its deadline before we call the cancellation late. The
// engine checks ctx every cancelCheckPostings postings AND against the
// wall clock (a single-P runtime delays the context timer goroutine),
// so the true overshoot is sub-millisecond. The wall-clock assertion
// is skipped under -race — there the instrumented stretches between
// checks stretch unboundedly and the property is carried instead by
// the deterministic clock harness (TestCancellationDeterministic*),
// which states promptness in poll counts rather than racing the
// scheduler — so the slack stays tight for ordinary builds.
const cancelOvershootSlack = 250 * time.Millisecond

// cancelCorpus builds a random corpus over the mini lexicon from the
// given seed, shaped like demoDocs but reseedable so the cancellation
// property is exercised across corpora, not one fixed index.
func cancelCorpus(t *testing.T, seed int64, ndocs int) []Document {
	t.Helper()
	lex := MiniLexicon()
	var lemmas []string
	for _, tm := range lex.db.AllTerms() {
		lemmas = append(lemmas, lex.db.Lemma(tm))
	}
	rng := rand.New(rand.NewSource(seed))
	docs := make([]Document, ndocs)
	for i := range docs {
		var b strings.Builder
		n := 30 + rng.Intn(40)
		for j := 0; j < n; j++ {
			b.WriteString(lemmas[rng.Intn(len(lemmas))])
			b.WriteByte(' ')
		}
		docs[i] = Document{ID: i, Text: b.String()}
	}
	return docs
}

func cancelEngine(t *testing.T, seed int64, store bool) (*Engine, *Client) {
	t.Helper()
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	if store {
		opts.StoreDocuments = true
		opts.RetrievalKeyBits = 64
	}
	e, err := NewEngine(MiniLexicon(), cancelCorpus(t, seed, 120), opts)
	if err != nil {
		t.Fatalf("NewEngine(seed %d): %v", seed, err)
	}
	c, err := e.NewClient(detrand.New(fmt.Sprintf("cancel-test-%d", seed)))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return e, c
}

// cancelQuery embellishes a multi-term query wide enough that a scan
// takes measurable time even on the small test corpus.
func cancelQuery(t *testing.T, e *Engine, c *Client, rng *rand.Rand, terms int) *Query {
	t.Helper()
	parts := make([]string, terms)
	for i := range parts {
		parts[i] = e.lex.db.Lemma(e.searchable[rng.Intn(len(e.searchable))])
	}
	q, err := c.Embellish(strings.Join(parts, " "))
	if err != nil {
		t.Fatalf("Embellish: %v", err)
	}
	return q
}

// respBytes serializes a response exactly as the wire layer would, so
// "the engine answers byte-identically after a cancellation" is checked
// against the bytes a remote client would actually receive.
func respBytes(t *testing.T, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteResponse(&buf, resp.inner, core.Stats{}); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	return buf.Bytes()
}

// cancelSchedules are the two schedules the cancellation tests run the
// one ranking plan on: an engine built at GOMAXPROCS 1 walks one shard on
// one worker, one built at GOMAXPROCS 2 splits it over two shards and
// two workers.
var cancelSchedules = []struct {
	name  string
	procs int
}{
	{"sequential", 1},
	{"sharded", 2},
}

// TestCancellationProperty is the satellite property test: across
// random corpora, both schedules, and deadlines sampled across the
// scan's latency range, a cancelled ProcessContext (a)
// returns a CancelledError satisfying errors.Is on the context
// sentinel, (b) returns promptly (bounded overshoot), (c) reports
// partial work strictly inside the full scan's, and (d) leaves the
// engine answering the same query byte-identically afterwards — all
// without leaking goroutines.
func TestCancellationProperty(t *testing.T) {
	meta := rand.New(rand.NewSource(0xE11E))
	for _, seed := range []int64{meta.Int63(), meta.Int63()} {
		seed := seed
		t.Run(fmt.Sprintf("corpus%d", seed%1000), func(t *testing.T) {
			before := runtime.NumGoroutine()
			for _, pl := range cancelSchedules {
				t.Run(pl.name, func(t *testing.T) {
					setProcs(t, pl.procs)
					e, c := cancelEngine(t, seed, false)
					rng := rand.New(rand.NewSource(seed + 1))
					q := cancelQuery(t, e, c, rng, 8)
					// Baseline: full latency and reference bytes for this schedule.
					warm, err := e.Process(q)
					if err != nil {
						t.Fatalf("warm Process: %v", err)
					}
					start := time.Now()
					base, err := e.Process(q)
					full := time.Since(start)
					if err != nil {
						t.Fatalf("baseline Process: %v", err)
					}
					baseBytes := respBytes(t, base)
					if !bytes.Equal(baseBytes, respBytes(t, warm)) {
						t.Fatal("two uncancelled runs of one query disagree; byte-identity check is meaningless")
					}
					fullPostings := warm.Stats.PostingsScanned

					// Deadlines sampled across the latency range. Runs that
					// finish under a sampled deadline are legitimate (the
					// fraction draws can land past the scan's end on a fast
					// corpus); at least the earliest fraction must cancel.
					fractions := []float64{0.05, 0.2 + 0.3*rng.Float64(), 0.5 + 0.4*rng.Float64()}
					cancelledOnce := false
					for _, frac := range fractions {
						deadline := time.Duration(float64(full) * frac)
						if deadline <= 0 {
							deadline = time.Microsecond
						}
						ctx, cancel := context.WithTimeout(context.Background(), deadline)
						t0 := time.Now()
						resp, err := e.ProcessContext(ctx, q)
						elapsed := time.Since(t0)
						cancel()
						if err == nil {
							if !bytes.Equal(respBytes(t, resp), baseBytes) {
								t.Fatalf("frac %.2f: uncancelled run diverged from baseline", frac)
							}
							continue
						}
						cancelledOnce = true
						var cerr *CancelledError
						if !errors.As(err, &cerr) {
							t.Fatalf("frac %.2f: cancelled scan returned %T (%v), want *CancelledError", frac, err, err)
						}
						if !errors.Is(err, context.DeadlineExceeded) {
							t.Fatalf("frac %.2f: errors.Is(err, DeadlineExceeded) = false (err %v)", frac, err)
						}
						if resp != nil {
							t.Fatalf("frac %.2f: partial response returned alongside cancellation", frac)
						}
						if over := elapsed - deadline; !raceEnabled && over > cancelOvershootSlack {
							t.Fatalf("frac %.2f: cancellation overshot deadline by %v (slack %v)", frac, over, cancelOvershootSlack)
						}
						if cerr.Stats.Candidates != 0 {
							t.Fatalf("frac %.2f: cancelled stats report %d candidates, want 0", frac, cerr.Stats.Candidates)
						}
						if cerr.Stats.PostingsScanned > fullPostings {
							t.Fatalf("frac %.2f: partial postings %d exceed full scan's %d", frac, cerr.Stats.PostingsScanned, fullPostings)
						}
					}
					if !cancelledOnce {
						t.Fatal("no sampled deadline cancelled the scan; corpus too small to exercise the property")
					}

					// The engine must keep serving this query byte-identically
					// after an arbitrary number of abandoned scans.
					after, err := e.Process(q)
					if err != nil {
						t.Fatalf("post-cancel Process: %v", err)
					}
					if !bytes.Equal(respBytes(t, after), baseBytes) {
						t.Fatal("response after cancellations is not byte-identical to baseline")
					}

					// Pre-cancelled context: the scan must stop before any
					// entry work and surface context.Canceled.
					pctx, pcancel := context.WithCancel(context.Background())
					pcancel()
					if _, err := e.ProcessContext(pctx, q); !errors.Is(err, context.Canceled) {
						t.Fatalf("pre-cancelled ProcessContext: err %v, want context.Canceled", err)
					}
				})
			}

			// No schedule may leak scan workers: give exited goroutines a
			// moment to be reaped, then require the count to settle back
			// to (near) the pre-engine level.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if n := runtime.NumGoroutine(); n <= before+2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines did not settle: started %d, now %d", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestCancellationFetchDocuments covers the retrieval half of the
// satellite: a cancelled private fetch stops mid-database, surfaces the
// context sentinel with no partial results, and leaves the store
// serving byte-identical documents afterwards.
func TestCancellationFetchDocuments(t *testing.T) {
	before := runtime.NumGoroutine()
	_, c := cancelEngine(t, 424242, true)
	ids := []int{3, 57, 111}

	baseline, _, err := c.FetchDocuments(ids)
	if err != nil {
		t.Fatalf("baseline FetchDocuments: %v", err)
	}
	start := time.Now()
	again, _, err := c.FetchDocuments(ids)
	full := time.Since(start)
	if err != nil {
		t.Fatalf("second FetchDocuments: %v", err)
	}
	for i := range baseline {
		if !bytes.Equal(baseline[i], again[i]) {
			t.Fatalf("two uncancelled fetches of doc %d disagree", ids[i])
		}
	}

	// Pre-cancelled context: no block scan may start.
	pctx, pcancel := context.WithCancel(context.Background())
	pcancel()
	if docs, _, err := c.FetchDocumentsContext(pctx, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled fetch: err %v, want context.Canceled", err)
	} else if docs != nil {
		t.Fatal("pre-cancelled fetch returned partial results")
	}

	// Mid-fetch deadline: a third of the measured full latency lands
	// inside the block scans. A run that still finishes is retried with
	// a tighter deadline; every cancelled run must be prompt and
	// partial-result-free.
	deadline := full / 3
	cancelled := false
	for attempt := 0; attempt < 8 && !cancelled; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		t0 := time.Now()
		docs, _, err := c.FetchDocumentsContext(ctx, ids)
		elapsed := time.Since(t0)
		cancel()
		if err == nil {
			deadline /= 2
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled fetch: err %v, want context.DeadlineExceeded", err)
		}
		if docs != nil {
			t.Fatal("cancelled fetch returned partial results")
		}
		if over := elapsed - deadline; !raceEnabled && over > cancelOvershootSlack {
			t.Fatalf("fetch cancellation overshot deadline by %v (slack %v)", over, cancelOvershootSlack)
		}
		cancelled = true
	}
	if !cancelled {
		t.Fatalf("no deadline cancelled the fetch (full latency %v)", full)
	}

	// The store must serve the same bytes after an abandoned fetch.
	after, _, err := c.FetchDocuments(ids)
	if err != nil {
		t.Fatalf("post-cancel FetchDocuments: %v", err)
	}
	for i := range baseline {
		if !bytes.Equal(baseline[i], after[i]) {
			t.Fatalf("doc %d differs after an abandoned fetch", ids[i])
		}
	}

	settle := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("goroutines did not settle: started %d, now %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationParallelFetch extends the overshoot regression to
// the partitioned scan: at GOMAXPROCS 2, a multi-document fetch pushes
// whole batches through ONE database pass split across goroutines, so a
// deadline landing inside that pass exercises every worker's
// cancellation checks and the recombine's. A cancelled fetch must stop
// promptly (bounded overshoot), surface the context sentinel with no
// partial results, and the store must keep serving identical bytes
// after the abandonment.
func TestCancellationParallelFetch(t *testing.T) {
	setProcs(t, 2)
	_, c := cancelEngine(t, 515151, true)
	ids := []int{5, 19, 42, 77, 103}

	baseline, _, err := c.FetchDocuments(ids)
	if err != nil {
		t.Fatalf("FetchDocuments: %v", err)
	}
	start := time.Now()
	if _, _, err := c.FetchDocuments(ids); err != nil {
		t.Fatalf("second FetchDocuments: %v", err)
	}
	full := time.Since(start)

	// Pre-cancelled context: the batch scan must not start.
	pctx, pcancel := context.WithCancel(context.Background())
	pcancel()
	if docs, _, err := c.FetchDocumentsContext(pctx, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled fetch: err %v, want context.Canceled", err)
	} else if docs != nil {
		t.Fatal("pre-cancelled fetch returned partial results")
	}

	// Mid-fetch deadline: must land inside the one-pass batch scan.
	deadline := full / 3
	cancelled := false
	for attempt := 0; attempt < 8 && !cancelled; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		t0 := time.Now()
		docs, _, err := c.FetchDocumentsContext(ctx, ids)
		elapsed := time.Since(t0)
		cancel()
		if err == nil {
			deadline /= 2
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled fetch: err %v, want context.DeadlineExceeded", err)
		}
		if docs != nil {
			t.Fatal("cancelled fetch returned partial results")
		}
		if over := elapsed - deadline; !raceEnabled && over > cancelOvershootSlack {
			t.Fatalf("cancellation overshot deadline by %v (slack %v)", over, cancelOvershootSlack)
		}
		cancelled = true
	}
	if !cancelled {
		t.Fatalf("no deadline cancelled the fetch (full latency %v)", full)
	}

	// Byte-identity must survive the abandonment.
	after, _, err := c.FetchDocuments(ids)
	if err != nil {
		t.Fatalf("post-cancel FetchDocuments: %v", err)
	}
	for i := range baseline {
		if !bytes.Equal(baseline[i], after[i]) {
			t.Fatalf("doc %d differs after an abandoned fetch", ids[i])
		}
	}
}

// fakeScanClock replaces the scan kernels' deadline-poll clock with a
// pinned-seed synthetic one: every poll advances time by a jittered
// step, so whether and when a scan observes its deadline is a pure
// function of how many polls it has made — machine speed, core count,
// and the race detector's slowdown drop out entirely. pastDeadline
// counts the polls made at or past the deadline: a prompt scan makes
// at most a handful (each worker returns at its first post-deadline
// poll) before fully unwinding.
type fakeScanClock struct {
	mu           sync.Mutex
	now          time.Time
	deadline     time.Time
	maxStep      time.Duration
	rng          *rand.Rand
	polls        int
	pastDeadline int
}

func (c *fakeScanClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	c.now = c.now.Add(time.Duration(1 + c.rng.Int63n(int64(c.maxStep))))
	if !c.now.Before(c.deadline) {
		c.pastDeadline++
	}
	return c.now
}

// newFakeScanClock pins a clock a few expected steps short of the
// context's deadline: the scan's own poll cadence crosses it within
// ~2·polls reads, long before the real one-hour timer could fire, so
// the poll path is provably the mechanism that cancels.
func newFakeScanClock(seed int64, deadline time.Time, polls int) *fakeScanClock {
	const step = time.Minute
	return &fakeScanClock{
		now:      deadline.Add(-time.Duration(polls) * step),
		deadline: deadline,
		maxStep:  step, // jitter 1ns..step per poll
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// maxPastDeadlinePolls bounds how many deadline polls a cancelled scan
// may make at or past the deadline before it has fully unwound. Each
// goroutine returns at its first post-deadline poll, and every plan
// runs a few workers across a few phases, so the bound is a property
// of the code's structure — not of how fast the machine runs it.
const maxPastDeadlinePolls = 16

// TestCancellationDeterministicQuery is the deflaked overshoot
// regression for query scans: the pinned clock drives both schedules'
// deadline polls, the scan must cancel at poll granularity with
// the context sentinel and no partial response, and afterwards the
// engine serves the same query byte-identically. No wall-clock
// measurement is involved, so the test is exact under -race on one
// core.
func TestCancellationDeterministicQuery(t *testing.T) {
	for i, pl := range cancelSchedules {
		t.Run(pl.name, func(t *testing.T) {
			setProcs(t, pl.procs)
			e, c := cancelEngine(t, 626262, false)
			q := cancelQuery(t, e, c, rand.New(rand.NewSource(626263)), 8)
			base, err := e.Process(q)
			if err != nil {
				t.Fatalf("baseline Process: %v", err)
			}
			baseBytes := respBytes(t, base)

			deadline := time.Now().Add(time.Hour)
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			// Two expected steps out: the sharded plan polls only a
			// handful of times on this corpus, so the crossing must land
			// within its first few polls.
			clock := newFakeScanClock(int64(0xC10C+i), deadline, 2)
			restore := scanclock.Set(clock.Now)
			resp, err := e.ProcessContext(ctx, q)
			restore()
			cancel()
			if err == nil {
				t.Fatalf("synthetic deadline crossing did not cancel the scan (%d polls)", clock.polls)
			}
			var cerr *CancelledError
			if !errors.As(err, &cerr) {
				t.Fatalf("cancelled scan returned %T (%v), want *CancelledError", err, err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("errors.Is(err, DeadlineExceeded) = false (err %v)", err)
			}
			if resp != nil {
				t.Fatal("partial response returned alongside cancellation")
			}
			if clock.pastDeadline == 0 || clock.pastDeadline > maxPastDeadlinePolls {
				t.Fatalf("scan made %d post-deadline polls (%d total), want 1..%d",
					clock.pastDeadline, clock.polls, maxPastDeadlinePolls)
			}
			// Cancellation frees capacity: the stop lands mid-walk, after
			// some postings and before the last. The pinned clock makes
			// the count exact, so this is a bound on work, not on time.
			if got, full := cerr.Stats.PostingsScanned, base.Stats.PostingsScanned; got <= 0 || got >= full {
				t.Fatalf("cancelled scan walked %d of %d postings, want strictly between 0 and %d", got, full, full)
			}

			after, err := e.Process(q)
			if err != nil {
				t.Fatalf("post-cancel Process: %v", err)
			}
			if !bytes.Equal(respBytes(t, after), baseBytes) {
				t.Fatal("response after deterministic cancellation is not byte-identical to baseline")
			}
		})
	}
}

// TestCancellationDeterministicFetch runs the pinned clock — the same
// one the query scans poll — through the retrieval executors: the flat
// one-pass scan and the two-level recursive scan each observe the
// synthetic deadline at poll granularity, surface the context sentinel
// with no partial documents, and keep serving byte-identical documents
// afterwards.
func TestCancellationDeterministicFetch(t *testing.T) {
	setProcs(t, 2)
	_, c := cancelEngine(t, 737373, true)
	ids := []int{5, 19, 42, 77, 103}
	baseline, _, err := c.FetchDocuments(ids)
	if err != nil {
		t.Fatalf("baseline FetchDocuments: %v", err)
	}
	modes := []struct {
		name      string
		recursive bool
	}{
		{"flat", false},
		{"recursive", true},
	}
	defer c.SetFetchRecursive(false)
	for i, m := range modes {
		m, i := m, i
		t.Run(m.name, func(t *testing.T) {
			c.SetFetchRecursive(m.recursive)

			deadline := time.Now().Add(time.Hour)
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			clock := newFakeScanClock(int64(0xFE7C+i), deadline, 6)
			restore := scanclock.Set(clock.Now)
			docs, _, err := c.FetchDocumentsContext(ctx, ids)
			restore()
			cancel()
			if err == nil {
				t.Fatalf("synthetic deadline crossing did not cancel the fetch (%d polls)", clock.polls)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cancelled fetch: err %v, want context.DeadlineExceeded", err)
			}
			if docs != nil {
				t.Fatal("cancelled fetch returned partial results")
			}
			if clock.pastDeadline == 0 || clock.pastDeadline > maxPastDeadlinePolls {
				t.Fatalf("fetch made %d post-deadline polls (%d total), want 1..%d",
					clock.pastDeadline, clock.polls, maxPastDeadlinePolls)
			}

			after, _, err := c.FetchDocuments(ids)
			if err != nil {
				t.Fatalf("post-cancel FetchDocuments: %v", err)
			}
			for j := range baseline {
				if !bytes.Equal(baseline[j], after[j]) {
					t.Fatalf("doc %d differs after a deterministic cancellation", ids[j])
				}
			}
		})
	}
}
