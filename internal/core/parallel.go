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
// by document into the snapshot's Runs shards (index.Live.SetSharding):
// each worker claims whole shards from a work queue and folds every query
// term's run of that shard — segment by segment — into a private
// accumulator. Shards own disjoint document sets across ALL segments (the
// partition is by global doc id), so the per-shard candidate sets never
// overlap and the final merge reads them out in document order — no
// sort, no cross-shard homomorphic additions, no locks on the hot path.
// Tombstoned documents are skipped before any group operation.
//
// The arithmetic is word-level: ciphertexts are carried through the fold
// on []big.Word slabs (internal/mont) — flags converted into Montgomery
// form once per entry, the fixed-base tables of SetPrecompute built once
// per query and shared read-only by all workers, each slot carrying its
// value at a scale x·R^s with s beside it, and each candidate taken out of
// the form by the worker that owns it: one product by R^(1-s) when s is
// not 0, none when it is. Multiplication
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

// pow returns E(u)^p·R^s mod n, its scale s (mont.Exit) and the
// multiplications it cost: a table's digit products at the table's
// scale, or mulsForExponent(p) of square-and-multiply in the form
// (s = 1). The result is scratch or a read-only table entry: the caller
// copies or multiplies it, never writes it.
func (pl *entryPlan) pow(mod *mont.Modulus, scratch []big.Word, p uint64) ([]big.Word, int, int) {
	if pl.table != nil {
		return pl.table.PowR(scratch, int64(p))
	}
	return scratch, 1, mod.Exp(scratch, pl.base, []big.Word{big.Word(p)})
}

// planEntry resolves term in every segment of r and, when
// precomputation is on and its list is long enough to amortize one,
// builds its fixed-base table; it returns the table's setup products.
func (s *Server) planEntry(pl *entryPlan, r *resolvedState, term wordnet.TermID, base []big.Word, mod *mont.Modulus) int {
	segs := r.snap.Segs
	pl.terms = make([]int32, len(segs))
	for si, seg := range segs {
		pl.terms[si] = r.term(si, term)
		if pl.terms[si] >= 0 {
			pl.postings += len(seg.List(int(pl.terms[si])))
		}
	}
	if pl.postings == 0 {
		return 0
	}
	pl.base = base
	if s.window == 0 || pl.postings < fixedBaseMinPostings {
		return 0
	}
	pl.table = benaloh.NewFixedBaseMont(mod, base, int64(s.Live.QuantLevels()), s.window)
	return pl.table.SetupMuls()
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

// planHooks are nil outside tests: claimed runs when a worker has claimed
// an entry, before it plans it, and barrier when a worker reaches the
// barrier between the phases, before it waits there.
var planHooks struct {
	claimed func(entry int)
	barrier func()
}

// processSharded is the serving plan, run against one index snapshot.
// A query without a word form (wordForm) is refused before any work; q
// holds at least one entry (ProcessParallelCtx refuses an empty query),
// so some worker plans the last entry and opens the barrier. One fan-out runs both phases: each worker plans entries until none is
// left unclaimed, waits at a barrier until every entry is planned, then
// folds shards. A helper that starts late finds the entries claimed and
// goes straight to the shards, so a late start costs the query nothing.
// Workers poll ctx at entry claims, at the barrier and every
// cancelCheckPostings postings; a cancelled worker records the partial
// stats of its current shard before exiting.
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
	nsh := r.snap.Runs
	workers = min(workers, nsh)
	done := ctx.Done()
	dl, hasDL := ctx.Deadline()
	// aborted is set by any worker that observes cancellation — the
	// phase-3 gate cannot rely on ctx.Err() alone, because a wall-clock
	// deadline check can fire before the context's timer goroutine runs.
	var aborted atomic.Bool

	// Phase 1 state: entries are claimed one at a time (they are
	// independent of each other); whoever plans the last one computes the
	// shard slabs' start size and closes built, the barrier.
	plans := make([]entryPlan, len(q.Entries))
	setupMuls := make([]int, workers)
	var nextEntry, planned atomic.Int32
	built := make(chan struct{})
	// Shard si owns the ids ≡ si (mod nsh): doc/nsh is its row. It holds
	// at most its share of the postings and rows: its slab's start size.
	rows := int(r.snap.NextDoc)/nsh + 1
	room := 0

	// Phase 2 state: workers claim shards and fold every entry's run of
	// the shard, in every segment, into the shard's accumulator: one slab
	// of k-word slots, a document's slot found at its row — no big.Int
	// per candidate, no allocation per product. Every segment of the
	// snapshot is cut into nsh runs, so run si is the shard's postings and
	// the shard count cannot disagree with the layout.
	type shardOut struct {
		at         []int32   // row doc/nsh -> slot+1, 0 = no candidate
		encs       []big.Int // slot -> ciphertext
		modMuls    int
		postings   int
		tombstoned int
	}
	outs := make([]shardOut, nsh)
	var nextShard atomic.Int32
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
			if i >= len(plans) {
				break
			}
			if planHooks.claimed != nil {
				planHooks.claimed(i)
			}
			setupMuls[w] += s.planEntry(&plans[i], r, q.Entries[i].Term, flags[i*k:(i+1)*k:(i+1)*k], mod)
			if int(planned.Add(1)) == len(plans) {
				for i := range plans {
					room += plans[i].postings
				}
				room = min(room/nsh, rows)
				close(built)
			}
		}
		if planHooks.barrier != nil {
			planHooks.barrier()
		}
		select {
		case <-built:
		case <-done:
			return
		}

		scratch := make([]big.Word, k)
		exit := mod.NewExit()
		for {
			si := int(nextShard.Add(1)) - 1
			if si >= nsh {
				return
			}
			at := make([]int32, rows)
			acc := make([]big.Word, 0, room*k) // slot i at acc[i*k:(i+1)*k]
			// scale[i] is slot i's R exponent: the slot holds x·R^scale.
			scale := make([]int32, 0, room)
			slots, muls, posts, tombs := int32(0), 0, 0, 0
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
					for _, p := range seg.Run(int(ti), si) {
						if posts&(cancelCheckPostings-1) == 0 && check() {
							break planLoop
						}
						posts++
						if r.snap.Deleted(p.Doc) {
							tombs++
							continue
						}
						c, cs, m := pl.pow(mod, scratch, uint64(p.Quantized))
						muls += m
						if slot := at[int(p.Doc)/nsh]; slot != 0 {
							a := acc[int(slot-1)*k : int(slot)*k]
							mod.Mul(a, a, c)
							scale[slot-1] += int32(cs) - 1
							muls++
						} else {
							slots++
							at[int(p.Doc)/nsh] = slots
							acc = append(acc, c...)
							scale = append(scale, int32(cs))
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
			// Take the candidates out of the form in place, one product
			// each unless a slot is already plain; each ciphertext is a
			// cap-limited window of the slab, so a caller that grows one
			// cannot write into its neighbour.
			out.at, out.encs = at, make([]big.Int, slots)
			for i := range out.encs {
				a := acc[i*k : (i+1)*k : (i+1)*k]
				exit.Leave(a, a, int(scale[i]))
				out.encs[i].SetBits(a)
			}
		}
	})
	for _, m := range setupMuls {
		st.ModMuls += m
	}

	// Phase 3: aggregate stats, then read the disjoint shard sets out
	// row by row, shard by shard within a row: document row·nsh+si
	// comes after every smaller id, so the response is in document order
	// with no sort.
	total := 0
	for i := range outs {
		st.ModMuls += outs[i].modMuls
		st.Postings += outs[i].postings
		st.Tombstoned += outs[i].tombstoned
		total += len(outs[i].encs)
	}
	if aborted.Load() || ctx.Err() != nil {
		return nil, st, ctxScanErr(ctx)
	}
	resp := &Response{ctxBytes: pk.CiphertextBytes()}
	resp.Docs = make([]DocScore, 0, total)
	for row := range rows {
		for si := range outs {
			if slot := outs[si].at[row]; slot != 0 {
				resp.Docs = append(resp.Docs, DocScore{Doc: index.DocID(row*nsh + si), Enc: &outs[si].encs[slot-1]})
			}
		}
	}
	st.Candidates = len(resp.Docs)
	return resp, st, nil
}
