package core

import (
	"context"
	"errors"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"embellish/internal/index"
	"embellish/internal/scanclock"
	"embellish/internal/wordnet"
)

// ProcessParallel is Algorithm 4 executed by a worker pool. With
// sharding enabled (Server.SetSharding), the postings are partitioned
// by document: each worker claims whole shards from a work queue and
// folds every query term's shard-local sub-lists — one per segment —
// into a private accumulator map. Shards own disjoint document sets
// across ALL segments (the partition is by global doc id), so the
// per-shard encrypted score maps never overlap and the final merge is
// pure concatenation — no cross-shard homomorphic additions, no locks
// on the hot path. Tombstoned documents are skipped before any group
// operation. The per-term flag powers E(u)^p are served from fixed-base
// tables built once per query (Server.SetPrecompute) and shared
// read-only by all workers.
//
// Without sharding the legacy term-striped plan runs: workers split the
// query's terms and merge their overlapping accumulators pairwise with
// homomorphic additions afterwards.
//
// Either way the result is identical to Process up to ciphertext
// randomization: each E(score) is a different group element than the
// sequential run would produce, but decrypts to the same score, and the
// server learns nothing either way. workers <= 0 selects GOMAXPROCS.
func (s *Server) ProcessParallel(q *Query, workers int) (*Response, Stats, error) {
	return s.ProcessParallelCtx(context.Background(), q, workers)
}

// ProcessParallelCtx is ProcessParallel under a context: every worker
// checks ctx periodically inside its posting walk and stops early when
// the context is cancelled or its deadline expires. On cancellation
// the returned Stats aggregate the partial work of every worker (the
// figures the serving layer charges abandoned queries for) and the
// error is ctx.Err(); the partial response is discarded.
func (s *Server) ProcessParallelCtx(ctx context.Context, q *Query, workers int) (*Response, Stats, error) {
	if len(q.Entries) == 0 {
		return nil, Stats{}, errors.New("core: empty query")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.shardN > 0 {
		return s.processSharded(ctx, q, workers)
	}
	return s.processTermStriped(ctx, q, workers)
}

// chargeIO accounts one seek per distinct bucket named by the query
// (Section 4's contiguous bucket layout) and returns the stats skeleton.
func (s *Server) chargeIO(q *Query, r *resolvedState) Stats {
	var st Stats
	terms := make([]wordnet.TermID, len(q.Entries))
	for i, e := range q.Entries {
		terms[i] = e.Term
	}
	for _, b := range s.Org.BucketsFor(terms) {
		st.IO.Charge(r.bucketBytes[b])
	}
	return st
}

// entryPlan is the per-query-term execution state shared read-only by
// all shard workers: the per-segment resolved term numbers and the
// E(u)^p evaluator. pow is nil when the term occurs in no segment.
type entryPlan struct {
	terms []int32 // index term number per segment, -1 when absent
	pow   func(int64) (*big.Int, int)
}

// processSharded runs the document-sharded worker-pool pipeline against
// one index snapshot. Workers poll ctx at entry claims and every
// cancelCheckPostings postings; a cancelled worker records the partial
// stats of its current shard before exiting.
func (s *Server) processSharded(ctx context.Context, q *Query, workers int) (*Response, Stats, error) {
	r := s.resolve()
	st := s.chargeIO(q, r)
	pk := q.Pub
	segs := r.snap.Segs
	nsh := s.shardN
	if workers > nsh {
		workers = nsh
	}
	done := ctx.Done()
	dl, hasDL := ctx.Deadline()
	// aborted is set by any worker that observes cancellation — the
	// phase-3 gate cannot rely on ctx.Err() alone, because a wall-clock
	// deadline check can fire before the context's timer goroutine runs.
	var aborted atomic.Bool

	// Phase 1: resolve terms and build the per-entry fixed-base tables,
	// fanned out over the pool (tables are independent of each other).
	plans := make([]entryPlan, len(q.Entries))
	setupMuls := make([]int64, workers)
	var nextEntry int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(atomic.AddInt32(&nextEntry, 1)) - 1
				if i >= len(q.Entries) {
					return
				}
				e := q.Entries[i]
				// Resolve per-segment terms and the total posting count in
				// one pass (the plan needs both, so totalPostings alone
				// would rescan).
				terms := make([]int32, len(segs))
				total := 0
				for si, seg := range segs {
					terms[si] = r.term(si, e.Term)
					if terms[si] >= 0 {
						total += len(seg.List(int(terms[si])))
					}
				}
				plans[i].terms = terms
				if total == 0 {
					continue
				}
				pow, setup := s.powerFn(pk, e.Flag, total)
				plans[i].pow = pow
				setupMuls[w] += int64(setup)
			}
		}(w)
	}
	wg.Wait()
	for _, m := range setupMuls {
		st.ModMuls += int(m)
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}

	// Phase 2: workers claim shards and fold every entry's shard-local
	// sub-lists (one per segment) into a shard-private accumulator.
	// Global-doc-id-disjointness makes the shard maps non-overlapping.
	// Segments carry a prebuilt sharded view; a segment whose view is
	// missing or built for another shard count is filter-scanned
	// instead, which is slower but yields the identical postings.
	type shardOut struct {
		acc        map[index.DocID]*big.Int
		modMuls    int
		postings   int
		tombstoned int
	}
	outs := make([]shardOut, nsh)
	var nextShard int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(atomic.AddInt32(&nextShard, 1)) - 1
				if si >= nsh {
					return
				}
				acc := make(map[index.DocID]*big.Int)
				muls, posts, tombs := 0, 0, 0
				cancelled := false
				check := func() bool {
					if done == nil {
						return false
					}
					select {
					case <-done:
						cancelled = true
						aborted.Store(true)
						return true
					default:
					}
					// Wall-clock fallback: on a single-P runtime the
					// timer goroutine cannot close done while workers
					// hold every CPU.
					if hasDL && !scanclock.Now().Before(dl) {
						cancelled = true
						aborted.Store(true)
						return true
					}
					return false
				}
				scan := func(p index.Posting, pl *entryPlan) {
					posts++
					if r.snap.Deleted(p.Doc) {
						tombs++
						return
					}
					contrib, m := pl.pow(int64(p.Quantized))
					muls += m
					if cur, ok := acc[p.Doc]; ok {
						pk.AddInto(cur, contrib)
						muls++
					} else {
						acc[p.Doc] = contrib
					}
				}
			planLoop:
				for pi := range plans {
					pl := &plans[pi]
					if pl.pow == nil {
						continue
					}
					for sgi, seg := range segs {
						ti := pl.terms[sgi]
						if ti < 0 {
							continue
						}
						if view := seg.ShardedView(); view != nil && view.NumShards() == nsh {
							for _, p := range view.List(int(ti), si) {
								if posts&(cancelCheckPostings-1) == 0 && check() {
									break planLoop
								}
								scan(p, pl)
							}
						} else {
							for _, p := range seg.List(int(ti)) {
								if int(p.Doc)%nsh != si {
									continue
								}
								if posts&(cancelCheckPostings-1) == 0 && check() {
									break planLoop
								}
								scan(p, pl)
							}
						}
					}
				}
				// Record the shard's (possibly partial) work before
				// exiting so cancellation still accounts every posting
				// scanned and multiplication performed.
				outs[si] = shardOut{acc: acc, modMuls: muls, postings: posts, tombstoned: tombs}
				if cancelled {
					return
				}
			}
		}()
	}
	wg.Wait()

	// Phase 3: aggregate stats and concatenate the disjoint shard maps.
	total := 0
	for i := range outs {
		st.ModMuls += outs[i].modMuls
		st.Postings += outs[i].postings
		st.Tombstoned += outs[i].tombstoned
		total += len(outs[i].acc)
	}
	if aborted.Load() || ctx.Err() != nil {
		return nil, st, ctxScanErr(ctx)
	}
	resp := &Response{ctxBytes: pk.CiphertextBytes()}
	resp.Docs = make([]DocScore, 0, total)
	for i := range outs {
		for d, c := range outs[i].acc {
			resp.Docs = append(resp.Docs, DocScore{Doc: d, Enc: c})
		}
	}
	sortDocScores(resp.Docs)
	st.Candidates = len(resp.Docs)
	return resp, st, nil
}

// processTermStriped is the legacy parallel plan: stripe the query's
// terms over the workers and homomorphically merge the overlapping
// per-worker accumulators afterwards. Retained for servers that have
// not configured sharding.
func (s *Server) processTermStriped(ctx context.Context, q *Query, workers int) (*Response, Stats, error) {
	if workers == 1 || len(q.Entries) < 2*workers {
		return s.ProcessCtx(ctx, q)
	}
	r := s.resolve()
	st := s.chargeIO(q, r)
	pk := q.Pub
	type stripe struct {
		acc   map[index.DocID]*big.Int
		stats Stats
		err   error
	}
	stripes := make([]stripe, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := make(map[index.DocID]*big.Int)
			var wst Stats
			var werr error
			for i := w; i < len(q.Entries); i += workers {
				if werr = s.foldEntry(ctx, r, q.Entries[i], pk, acc, &wst); werr != nil {
					break
				}
			}
			stripes[w] = stripe{acc: acc, stats: wst, err: werr}
		}(w)
	}
	wg.Wait()

	// A cancelled stripe still reports its partial stats; sum every
	// stripe's work before deciding whether to merge or abort.
	cancelled := false
	var scanErr error
	st.ModMuls += stripes[0].stats.ModMuls
	st.Postings += stripes[0].stats.Postings
	st.Tombstoned += stripes[0].stats.Tombstoned
	for _, sh := range stripes {
		if sh.err != nil {
			cancelled = true
			if scanErr == nil {
				scanErr = sh.err
			}
		}
	}
	merged := stripes[0].acc
	for _, sh := range stripes[1:] {
		st.ModMuls += sh.stats.ModMuls
		st.Postings += sh.stats.Postings
		st.Tombstoned += sh.stats.Tombstoned
		if cancelled {
			continue
		}
		for d, c := range sh.acc {
			if cur, ok := merged[d]; ok {
				pk.AddInto(cur, c)
				st.ModMuls++
			} else {
				merged[d] = c
			}
		}
	}
	if cancelled {
		// scanErr, not ctx.Err(): a stripe that stopped on the
		// wall-clock deadline check may report DeadlineExceeded before
		// the context's own timer has fired.
		return nil, st, scanErr
	}

	resp := &Response{ctxBytes: pk.CiphertextBytes()}
	resp.Docs = make([]DocScore, 0, len(merged))
	for d, c := range merged {
		resp.Docs = append(resp.Docs, DocScore{Doc: d, Enc: c})
	}
	sortDocScores(resp.Docs)
	st.Candidates = len(resp.Docs)
	return resp, st, nil
}
