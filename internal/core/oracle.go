package core

import (
	"cmp"
	"context"
	"errors"
	"math/big"
	"slices"
	"time"

	"embellish/internal/benaloh"
	"embellish/internal/index"
	"embellish/internal/scanclock"
	"embellish/internal/wordnet"
)

// This file is the Algorithm 4 oracle: the paper's sequential fold,
// entry by entry on math/big, sharing no arithmetic with the serving
// plan (processSharded). The conformance battery holds the plan to it
// ciphertext for ciphertext and count for count. It serves nothing: a
// query the plan cannot put in Montgomery form is refused, not handed
// here.

// totalPostings counts a query term's postings across every segment —
// the size powerFn uses to decide whether a fixed-base table pays off.
func (r *resolvedState) totalPostings(t wordnet.TermID) int {
	total := 0
	for si, seg := range r.snap.Segs {
		if ti := r.term(si, t); ti >= 0 {
			total += len(seg.List(int(ti)))
		}
	}
	return total
}

// foldEntry folds one embellished-query entry into acc: build the
// E(u)^p evaluator sized by the entry's total postings (one fixed-base
// table serves every segment), then walk the entry's list segment by
// segment, skipping tombstoned documents BEFORE any group operation.
// The context is checked every
// cancelCheckPostings postings; on cancellation the entry's partial
// work stays accounted in st and ctx.Err() is returned.
func (s *Server) foldEntry(ctx context.Context, r *resolvedState, e QueryEntry, pk *benaloh.PublicKey, acc map[index.DocID]*big.Int, st *Stats) error {
	total := r.totalPostings(e.Term)
	if total == 0 {
		return nil
	}
	done := ctx.Done()
	var dl time.Time
	var hasDL bool
	if done != nil {
		dl, hasDL = ctx.Deadline()
		// Check BEFORE the fixed-base setup: the table build is the one
		// block of unchecked work large enough to matter, so a deadline
		// that fires between entries must not pay for another table.
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if hasDL && !scanclock.Now().Before(dl) {
			return context.DeadlineExceeded
		}
	}
	pow, setup := s.powerFn(pk, e.Flag, total)
	st.ModMuls += setup
	for si, seg := range r.snap.Segs {
		ti := r.term(si, e.Term)
		if ti < 0 {
			continue
		}
		for _, p := range seg.List(int(ti)) {
			if done != nil && st.Postings&(cancelCheckPostings-1) == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
				// Also check the wall clock: on a single-P runtime the
				// context's timer goroutine cannot run while this scan
				// holds the CPU, so the done channel can close tens of
				// milliseconds after the deadline actually passed.
				if hasDL && !scanclock.Now().Before(dl) {
					return context.DeadlineExceeded
				}
			}
			st.Postings++
			if r.snap.Deleted(p.Doc) {
				st.Tombstoned++
				continue
			}
			contrib, muls := pow(int64(p.Quantized))
			st.ModMuls += muls
			if cur, ok := acc[p.Doc]; ok {
				pk.AddInto(cur, contrib)
				st.ModMuls++
			} else {
				acc[p.Doc] = contrib
			}
		}
	}
	return nil
}

// Process implements Algorithm 4: for every (genuine or decoy) term in
// the embellished query, walk its inverted list — segment by segment,
// skipping tombstoned documents without any homomorphic work — and fold
// E(u_i)^{p_ij} into the candidate document's encrypted score. It runs
// the oracle; serving goes through ProcessParallel.
func (s *Server) Process(q *Query) (*Response, Stats, error) {
	return s.ProcessCtx(context.Background(), q)
}

// ProcessCtx is Process under a context: the posting walk checks ctx
// periodically and stops mid-scan when the context is cancelled or its
// deadline expires. On cancellation the returned Stats account the
// postings and multiplications actually performed before the stop —
// the partial-work figures operational layers charge abandoned queries
// for — and the error is ctx.Err(). The partial response is discarded.
func (s *Server) ProcessCtx(ctx context.Context, q *Query) (*Response, Stats, error) {
	if len(q.Entries) == 0 {
		return nil, Stats{}, errors.New("core: empty query")
	}
	r := s.resolve()
	st := s.chargeIO(q, r)

	pk := q.Pub
	acc := make(map[index.DocID]*big.Int)
	for _, e := range q.Entries {
		if err := s.foldEntry(ctx, r, e, pk, acc, &st); err != nil {
			return nil, st, err
		}
	}
	resp := &Response{ctxBytes: pk.CiphertextBytes()}
	resp.Docs = make([]DocScore, 0, len(acc))
	for d, c := range acc {
		resp.Docs = append(resp.Docs, DocScore{Doc: d, Enc: c})
	}
	sortDocScores(resp.Docs)
	st.Candidates = len(resp.Docs)
	return resp, st, nil
}

// sortDocScores orders the oracle's candidate set, drawn from a map, by
// document ID: the order the serving plan builds its response in, and
// one that leaks nothing (the ciphertexts are already order-free).
func sortDocScores(ds []DocScore) {
	slices.SortFunc(ds, func(a, b DocScore) int { return cmp.Compare(a.Doc, b.Doc) })
}

// powerFn returns the E(u)^p evaluator for one query entry — a
// fixed-base windowed table when precomputation is enabled and the
// term's list is long enough to amortize it, otherwise plain modular
// exponentiation. The second return is the setup cost in modular
// multiplications; the evaluator reports its per-call cost. Both paths
// yield the identical group element, so the choice is invisible to the
// client and to the protocol transcript.
func (s *Server) powerFn(pk *benaloh.PublicKey, flag *big.Int, postings int) (func(int64) (*big.Int, int), int) {
	if s.window == 0 || postings < fixedBaseMinPostings {
		return func(p int64) (*big.Int, int) {
			// E(u)^p via modular exponentiation; count its multiplications
			// for the CPU cost model (~1.5 per exponent bit).
			return pk.ScalarMul(flag, p), mulsForExponent(p)
		}, 0
	}
	return newBigTable(pk.N, flag, int64(s.Live.QuantLevels()), s.window)
}

// newBigTable is the fixed-base windowed table of benaloh.FixedBase on
// math/big — rows[i][d] = base^(d·2^{w·i}) mod n — kept as the oracle's
// own arithmetic: built product by product with Mul and Mod, every one
// counted, so the serving plan's Stats.ModMuls is checked against
// multiplications that were performed rather than against a formula.
func newBigTable(n, base *big.Int, maxExp int64, window uint) (pow func(int64) (*big.Int, int), setupMuls int) {
	bits := 0
	for v := max(maxExp, 1); v > 0; v >>= 1 {
		bits++
	}
	rows := make([][]*big.Int, (bits+int(window)-1)/int(window))
	windowBase := base
	for i := range rows {
		row := make([]*big.Int, 1<<window)
		row[0] = big.NewInt(1)
		row[1] = windowBase
		for d := 2; d < len(row); d++ {
			row[d] = new(big.Int).Mul(row[d-1], windowBase)
			row[d].Mod(row[d], n)
			setupMuls++
		}
		rows[i] = row
		if i+1 < len(rows) {
			next := new(big.Int).Set(windowBase)
			for s := uint(0); s < window; s++ {
				next.Mul(next, next)
				next.Mod(next, n)
				setupMuls++
			}
			windowBase = next
		}
	}
	mask := int64(1)<<window - 1
	return func(e int64) (*big.Int, int) {
		acc, muls := big.NewInt(1), -1
		for i := 0; e > 0 && i < len(rows); i, e = i+1, e>>window {
			switch d := e & mask; {
			case d == 0:
			case muls < 0:
				acc.Set(rows[i][d])
				muls = 0
			default:
				acc.Mul(acc, rows[i][d])
				acc.Mod(acc, n)
				muls++
			}
		}
		return acc, max(muls, 0)
	}, setupMuls
}

// mulsForExponent estimates the modular multiplications of one
// square-and-multiply exponentiation with exponent e.
func mulsForExponent(e int64) int {
	if e <= 1 {
		return 0
	}
	bits, ones := 0, 0
	for v := e; v > 0; v >>= 1 {
		bits++
		if v&1 == 1 {
			ones++
		}
	}
	return (bits - 1) + (ones - 1)
}
