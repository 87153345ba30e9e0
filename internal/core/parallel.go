package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"embellish/internal/benaloh"
	"embellish/internal/index"
	"embellish/internal/mont"
	"embellish/internal/scanclock"
	"embellish/internal/wordnet"
)

// ProcessParallel is Algorithm 4 as it is served: the one ranking plan,
// processSharded, on a pool of workers (workers <= 0 selects GOMAXPROCS;
// the pool never exceeds the shard count). The postings are partitioned
// by document into max(1, SetSharding's n) shards: each worker claims
// whole shards from a work queue and folds every query term's shard-local
// postings — segment by segment — into a private accumulator. Shards own
// disjoint document sets across ALL segments (the partition is by global
// doc id), so the per-shard candidate sets never overlap and the final
// merge is pure concatenation — no cross-shard homomorphic additions, no
// locks on the hot path. Tombstoned documents are skipped before any
// group operation.
//
// The arithmetic is word-level: ciphertexts are carried through the fold
// in Montgomery form on []big.Word slabs (internal/mont) — flags
// converted in once per entry, the fixed-base tables of SetPrecompute
// built once per query and shared read-only by all workers, candidates
// converted out once each by the worker that owns them. Multiplication
// modulo n is commutative and every path returns canonical residues, so
// the response is the oracle's (Process) ciphertext for ciphertext, with
// the same Stats, at every shard count, worker count and window.
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
	return s.processSharded(ctx, q, workers)
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

// wordForm returns the Montgomery context the fold runs the query in and
// every entry's flag converted into it (entry i at [i·Words():(i+1)·Words()]),
// or an error when the query has no such form: an even or degenerate
// modulus (no honest key's, but keys arrive off the wire), or a flag
// outside [0, n).
func wordForm(q *Query) (*mont.Modulus, []big.Word, error) {
	mod, err := mont.New(q.Pub.N)
	if err != nil {
		return nil, nil, err
	}
	k := mod.Words()
	flags := make([]big.Word, len(q.Entries)*k)
	for i, e := range q.Entries {
		if err := mod.Put(flags[i*k:(i+1)*k], e.Flag); err != nil {
			return nil, nil, fmt.Errorf("core: entry %d flag: %w", i, err)
		}
	}
	return mod, flags, nil
}

// entryPlan is the per-query-term execution state shared read-only by
// all shard workers. base is nil when the term occurs in no segment.
type entryPlan struct {
	terms    []int32            // index term number per segment, -1 when absent
	postings int                // across all segments, tombstoned included
	base     []big.Word         // E(u) in Montgomery form
	table    *benaloh.FixedBase // E(u)^p by table; nil: by square-and-multiply
}

// pow returns E(u)^p in Montgomery form and the multiplications it cost:
// a table's digit products, or mulsForExponent(p) of square-and-multiply.
// The result is scratch or a read-only table entry: the caller copies or
// multiplies it, never writes it.
func (pl *entryPlan) pow(mod *mont.Modulus, scratch []big.Word, p uint64) ([]big.Word, int) {
	if pl.table != nil {
		return pl.table.PowWords(scratch, int64(p))
	}
	return scratch, mod.Exp(scratch, pl.base, []big.Word{big.Word(p)})
}

// fanOut runs fn(0..workers-1) and waits; worker 0 runs on the caller's
// goroutine, so a width of one starts none.
func fanOut(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// processSharded is the serving plan, run against one index snapshot.
// A query without a word form (wordForm) is refused before any work.
// Workers poll ctx at entry claims and every cancelCheckPostings
// postings; a cancelled worker records the partial stats of its current
// shard before exiting.
func (s *Server) processSharded(ctx context.Context, q *Query, workers int) (*Response, Stats, error) {
	mod, flags, err := wordForm(q)
	if err != nil {
		return nil, Stats{}, err
	}
	r := s.resolve()
	st := s.chargeIO(q, r)
	pk := q.Pub
	segs := r.snap.Segs
	k := mod.Words()
	nsh := max(1, s.shardN)
	workers = min(workers, nsh)
	done := ctx.Done()
	dl, hasDL := ctx.Deadline()
	// aborted is set by any worker that observes cancellation — the
	// phase-3 gate cannot rely on ctx.Err() alone, because a wall-clock
	// deadline check can fire before the context's timer goroutine runs.
	var aborted atomic.Bool

	// Phase 1: resolve terms and build the per-entry fixed-base tables,
	// fanned out over the pool (entries are independent of each other). A table is built when
	// precomputation is on and the entry's list is long enough to
	// amortize it; the same fold runs either way.
	plans := make([]entryPlan, len(q.Entries))
	setupMuls := make([]int, workers)
	var nextEntry atomic.Int32
	fanOut(workers, func(w int) {
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := int(nextEntry.Add(1)) - 1
			if i >= len(q.Entries) {
				return
			}
			e := q.Entries[i]
			pl := &plans[i]
			pl.terms = make([]int32, len(segs))
			for si, seg := range segs {
				pl.terms[si] = r.term(si, e.Term)
				if pl.terms[si] >= 0 {
					pl.postings += len(seg.List(int(pl.terms[si])))
				}
			}
			if pl.postings == 0 {
				continue
			}
			pl.base = flags[i*k : (i+1)*k : (i+1)*k]
			if s.window != 0 && pl.postings >= fixedBaseMinPostings {
				pl.table = benaloh.NewFixedBaseMont(mod, pl.base, int64(s.Live.QuantLevels()), s.window)
				setupMuls[w] += pl.table.SetupMuls()
			}
		}
	})
	for _, m := range setupMuls {
		st.ModMuls += m
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	// A shard holds at most its share of the postings, and of the ids
	// ever assigned: the size its accumulator starts at.
	room := 0
	for i := range plans {
		room += plans[i].postings
	}
	room = min(room, int(r.snap.NextDoc))/nsh + 1

	// Phase 2: workers claim shards and fold every entry's shard-local
	// postings into the shard's accumulator: one slab of k-word slots, a
	// document's slot found through a map — no big.Int per candidate, no
	// allocation per product. A shard's postings come from the segment's
	// prebuilt sharded view; a segment whose view is missing or built for
	// another shard count is filter-scanned instead, which is slower but
	// yields the identical postings. One shard walks the lists as they
	// are.
	type shardOut struct {
		docs       []DocScore
		modMuls    int
		postings   int
		tombstoned int
	}
	outs := make([]shardOut, nsh)
	var nextShard atomic.Int32
	fanOut(workers, func(int) {
		scratch := make([]big.Word, k)
		for {
			si := int(nextShard.Add(1)) - 1
			if si >= nsh {
				return
			}
			slots := make(map[index.DocID]int32, room)
			ids := make([]index.DocID, 0, room) // slot -> document
			acc := make([]big.Word, 0, room*k)  // slot i at acc[i*k:(i+1)*k]
			muls, posts, tombs := 0, 0, 0
			cancelled := false
			check := func() bool {
				if done == nil {
					return false
				}
				select {
				case <-done:
					cancelled = true
				default:
					// Wall-clock fallback: on a single-P runtime the
					// timer goroutine cannot close done while workers
					// hold every CPU.
					cancelled = hasDL && !scanclock.Now().Before(dl)
				}
				if cancelled {
					aborted.Store(true)
				}
				return cancelled
			}
		planLoop:
			for pi := range plans {
				pl := &plans[pi]
				if pl.base == nil {
					continue
				}
				for sgi, seg := range segs {
					ti := pl.terms[sgi]
					if ti < 0 {
						continue
					}
					list, filter := seg.List(int(ti)), nsh > 1
					if view := seg.ShardedView(); filter && view != nil && view.NumShards() == nsh {
						list, filter = view.List(int(ti), si), false
					}
					for _, p := range list {
						if filter && int(p.Doc)%nsh != si {
							continue
						}
						if posts&(cancelCheckPostings-1) == 0 && check() {
							break planLoop
						}
						posts++
						if r.snap.Deleted(p.Doc) {
							tombs++
							continue
						}
						c, m := pl.pow(mod, scratch, uint64(p.Quantized))
						muls += m
						if slot, ok := slots[p.Doc]; ok {
							a := acc[int(slot)*k : (int(slot)+1)*k]
							mod.Mul(a, a, c)
							muls++
						} else {
							slots[p.Doc] = int32(len(ids))
							ids = append(ids, p.Doc)
							acc = append(acc, c...)
						}
					}
				}
			}
			// Record the shard's (possibly partial) work before exiting
			// so cancellation still accounts every posting scanned and
			// multiplication performed.
			out := &outs[si]
			out.modMuls, out.postings, out.tombstoned = muls, posts, tombs
			if cancelled {
				return
			}
			// Convert the candidates out of the form in place; each
			// ciphertext is a cap-limited window of the slab, so a caller
			// that grows one cannot write into its neighbour.
			encs := make([]big.Int, len(ids))
			out.docs = make([]DocScore, len(ids))
			for i, d := range ids {
				a := acc[i*k : (i+1)*k : (i+1)*k]
				mod.Mul(a, a, mod.One())
				out.docs[i] = DocScore{Doc: d, Enc: encs[i].SetBits(a)}
			}
		}
	})

	// Phase 3: aggregate stats and concatenate the disjoint shard sets.
	total := 0
	for i := range outs {
		st.ModMuls += outs[i].modMuls
		st.Postings += outs[i].postings
		st.Tombstoned += outs[i].tombstoned
		total += len(outs[i].docs)
	}
	if aborted.Load() || ctx.Err() != nil {
		return nil, st, ctxScanErr(ctx)
	}
	resp := &Response{ctxBytes: pk.CiphertextBytes()}
	resp.Docs = make([]DocScore, 0, total)
	for i := range outs {
		resp.Docs = append(resp.Docs, outs[i].docs...)
	}
	sortDocScores(resp.Docs)
	st.Candidates = len(resp.Docs)
	return resp, st, nil
}
