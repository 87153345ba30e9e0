// Package core implements the paper's primary contribution: the private
// retrieval (PR) scheme of Sections 3-4 of Pang, Ding and Xiao, "
// Embellishing Text Search Queries To Protect User Privacy" (VLDB 2010).
//
// The client embellishes each query by replacing every genuine search term
// with its entire host bucket (Algorithm 3), attaching to each term a
// Benaloh encryption of 1 (genuine) or 0 (decoy) and randomly permuting
// the result. The search engine walks the inverted list of every term in
// the embellished query and accumulates the encrypted relevance score
// E(score_j) ·= E(u_i)^{p_ij} (Algorithm 4); decoy flags encrypt zero, so
// only genuine impacts reach the plaintext score, yet the ciphertext
// changes for every term, keeping the server oblivious. The client
// decrypts the candidate scores and ranks (Algorithm 5). Claim 1: the
// ranking equals a plaintext engine's ranking over the genuine terms.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"embellish/internal/benaloh"
	"embellish/internal/bucket"
	"embellish/internal/index"
	"embellish/internal/simio"
	"embellish/internal/wordnet"
)

// QueryEntry is one term of an embellished query with its encrypted
// genuineness flag E(u).
type QueryEntry struct {
	Term wordnet.TermID
	Flag *big.Int
}

// Query is an embellished query: the union of the host buckets of all
// genuine terms, randomly permuted, each term carrying E(u). The Benaloh
// public key travels with the query so the server can operate on the
// ciphertexts.
type Query struct {
	Entries []QueryEntry
	Pub     *benaloh.PublicKey
}

// Bytes returns the network size of the query: per entry a 4-byte term
// identifier plus one ciphertext.
func (q *Query) Bytes() int {
	return len(q.Entries) * (4 + q.Pub.CiphertextBytes())
}

// DocScore is a candidate result document with its encrypted relevance
// score.
type DocScore struct {
	Doc index.DocID
	Enc *big.Int
}

// Response is the candidate set R returned by the server.
type Response struct {
	Docs     []DocScore
	ctxBytes int
}

// Bytes returns the network size of the response: per candidate a 4-byte
// document identifier plus one ciphertext.
func (r *Response) Bytes() int { return len(r.Docs) * (4 + r.ctxBytes) }

// Client is the user-side endpoint: it owns the private key and the
// bucket organization (both are public knowledge except the key; the
// organization is also known to the server).
type Client struct {
	Org *bucket.Organization
	Key *benaloh.PrivateKey
	// Rand drives the embellishment permutation and must be seeded per
	// client; crypto randomness for flag encryption comes from CryptoRand.
	Rand *rand.Rand
	// CryptoRand sources randomness for Benaloh encryptions; nil selects
	// crypto/rand.
	CryptoRand io.Reader
}

// NewClient builds a client. seed fixes the permutation order for
// reproducible experiments.
func NewClient(org *bucket.Organization, key *benaloh.PrivateKey, seed int64) *Client {
	return &Client{Org: org, Key: key, Rand: rand.New(rand.NewSource(seed))}
}

// MaxScore returns the largest plaintext relevance score representable
// under the client's key; Embellish refuses queries that could exceed it.
func (c *Client) MaxScore() *big.Int {
	return new(big.Int).Sub(c.Key.R, big.NewInt(1))
}

// Embellish implements Algorithm 3. Every genuine term pulls in its whole
// host bucket; terms sharing a bucket are emitted once with u=1. Genuine
// terms not present in the organization (out-of-dictionary words) are
// reported in skipped rather than silently dropped.
func (c *Client) Embellish(genuine []wordnet.TermID) (q *Query, skipped []wordnet.TermID, err error) {
	isGenuine := make(map[wordnet.TermID]bool, len(genuine))
	var buckets []int
	seenBucket := make(map[int]bool)
	for _, t := range genuine {
		b, ok := c.Org.BucketOf(t)
		if !ok {
			skipped = append(skipped, t)
			continue
		}
		isGenuine[t] = true
		if !seenBucket[b] {
			seenBucket[b] = true
			buckets = append(buckets, b)
		}
	}
	if len(buckets) == 0 {
		return nil, skipped, errors.New("core: no genuine term is in the bucket organization")
	}

	q = &Query{Pub: &c.Key.PublicKey}
	for _, b := range buckets {
		for _, t := range c.Org.Bucket(b) {
			u := int64(0)
			if isGenuine[t] {
				u = 1
			}
			flag, err := c.Key.EncryptInt(c.CryptoRand, u)
			if err != nil {
				return nil, skipped, fmt.Errorf("core: encrypting flag: %w", err)
			}
			q.Entries = append(q.Entries, QueryEntry{Term: t, Flag: flag})
		}
	}
	// Random permutation so the adversary cannot recover the logical
	// bucket grouping from entry order (Section 3).
	c.Rand.Shuffle(len(q.Entries), func(i, j int) {
		q.Entries[i], q.Entries[j] = q.Entries[j], q.Entries[i]
	})
	return q, skipped, nil
}

// Ranked is a decrypted, ranked result document.
type Ranked struct {
	Doc   index.DocID
	Score int64
}

// postFilterGrain is the most candidates one PostFilter worker decrypts
// alone: 128 decryptions, in pairs, are ~0.28 ms of work at a 256-bit
// key, so a helper (see rankGrain for its start cost) joins at the 129th.
const postFilterGrain = 128

// postFilterChunk is the run of candidates a PostFilter worker claims at a
// time: even, so a chunk's pairs are the pairs DecryptInts would form, and
// small, so the caller waits on a late worker for one chunk at most.
const postFilterChunk = 32

// PostFilter implements Algorithm 5: decrypt every candidate score and
// return the top k by decreasing score (k <= 0 returns all), ties broken
// by ascending document ID for determinism. One pass keeps the k best
// (topRanked) and only they are sorted.
//
// The decryptions are independent and the key is read-only, so
// width(candidates, postFilterGrain) workers, each with its own
// Decryptor, claim postFilterChunk-candidate chunks in ascending order from
// a shared counter and hand each to Decryptor.DecryptInts, which decrypts
// it two candidates at a time into the chunk's own slots of the scores. A
// small set is one worker on the caller's goroutine. The error returned
// is that of the lowest failing candidate at every width: a worker stops
// at its first failure, every chunk below it was claimed and is finished
// by its claimer, so the lowest failure over the workers is the lowest
// overall.
func (c *Client) PostFilter(resp *Response, k int) ([]Ranked, error) {
	docs := resp.Docs
	encs := make([]*big.Int, len(docs))
	scores := make([]int64, len(docs))
	for i := range docs {
		encs[i] = docs[i].Enc
	}
	workers := width(len(docs), postFilterGrain)
	bad, errs := make([]int, workers), make([]error, workers)
	var next atomic.Int32
	fanOut(workers, func(w int) {
		dec := c.Key.NewDecryptor()
		for {
			lo := (int(next.Add(1)) - 1) * postFilterChunk
			if lo >= len(docs) {
				return
			}
			hi := min(lo+postFilterChunk, len(docs))
			if n, err := dec.DecryptInts(scores[lo:hi], encs[lo:hi]); err != nil {
				bad[w], errs[w] = lo+n, err
				return
			}
		}
	})
	first := -1
	for w, err := range errs {
		if err != nil && (first < 0 || bad[w] < bad[first]) {
			first = w
		}
	}
	if first >= 0 {
		return nil, fmt.Errorf("core: decrypting score of doc %d: %w", docs[bad[first]].Doc, errs[first])
	}
	if k <= 0 || k > len(docs) {
		k = len(docs)
	}
	return topRanked(docs, scores, k), nil
}

// topRanked returns the k best of the candidates, k <= len(docs), in
// rankedOrder: one pass over a heap of the k best so far, its worst at the
// root, which a candidate replaces only by ranking before it. The order
// is total on distinct candidates, so the result is the head of the full
// sort, ties and all.
func topRanked(docs []DocScore, scores []int64, k int) []Ranked {
	h := make([]Ranked, k)
	for i := range h {
		h[i] = Ranked{Doc: docs[i].Doc, Score: scores[i]}
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftWorst(h, i)
	}
	for i := k; i < len(docs); i++ {
		if r := (Ranked{Doc: docs[i].Doc, Score: scores[i]}); rankedOrder(r, h[0]) < 0 {
			h[0] = r
			siftWorst(h, 0)
		}
	}
	sortRanked(h)
	return h
}

// siftWorst restores the heap below i: every entry ranks after, or
// equal to, its children.
func siftWorst(h []Ranked, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && rankedOrder(h[c+1], h[c]) > 0 {
			c++
		}
		if rankedOrder(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// rankedOrder orders ranked results by decreasing score, ties by
// ascending document ID.
func rankedOrder(a, b Ranked) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return cmp.Compare(a.Doc, b.Doc)
}

// sortRanked sorts ranked results in rankedOrder.
func sortRanked(rs []Ranked) { slices.SortFunc(rs, rankedOrder) }

// Server is the search-engine endpoint. It owns the live segmented
// index, the bucket organization (public), and the bucket-aligned
// storage layout. Queries always evaluate against one atomically loaded
// index snapshot, so online updates never block or torment a reader.
type Server struct {
	// Live is the segmented index view; online appends, deletions and
	// merges swap its snapshot atomically.
	Live *index.Live
	Org  *bucket.Organization
	// db supplies the lemma spelling of each organization term so it can
	// be matched against each segment's dictionary.
	db   *wordnet.Database
	Disk simio.Model
	// window is the fixed-base exponentiation radix exponent:
	// benaloh.DefaultWindow, set by NewLiveServer. 0 disables the tables
	// and every E(u)^p is a square-and-multiply exponentiation; only the
	// package's tests sweep it. The ciphertexts, and hence the protocol
	// transcript, are the same at every window.
	window uint

	// resolved caches the per-segment term resolution and bucket
	// footprints derived from one index snapshot; it is reassembled on
	// the first query after an update (resolve). Segments are immutable,
	// so segCache memoizes each segment's resolution across snapshots —
	// a delete-only swap reuses every row, and an append resolves just
	// the new segment.
	resolveMu sync.Mutex
	resolved  atomic.Pointer[resolvedState]
	segCache  map[*index.Index]*segResolved
}

// segResolved is one immutable segment's resolution against the
// organization: the TermID → segment term number map and the segment's
// byte contribution to each bucket.
type segResolved struct {
	termOf      []int32
	bucketBytes []int
}

// resolvedState bundles everything a query needs that is derived from
// one index snapshot, so a single atomic load yields a consistent view.
type resolvedState struct {
	snap *index.Snapshot
	// termOf[si] maps a dictionary TermID to segment si's term number;
	// organization terms absent from the segment map to -1.
	termOf [][]int32
	// bucketBytes[b] is the on-disk footprint of bucket b's inverted
	// lists across all segments, stored contiguously per Section 4 so
	// that one seek fetches the whole bucket.
	bucketBytes []int
}

// term resolves a dictionary term to segment si's term number (-1 when
// absent). Out-of-dictionary ids from hostile queries resolve to -1.
func (r *resolvedState) term(si int, t wordnet.TermID) int32 {
	m := r.termOf[si]
	if int(t) < 0 || int(t) >= len(m) {
		return -1
	}
	return m[t]
}

// NewServer wires a static single index to a bucket organization — the
// paper's original deployment shape, kept for callers that never
// update. It is a one-segment live server.
func NewServer(ix *index.Index, org *bucket.Organization, db *wordnet.Database) *Server {
	return NewLiveServer(index.NewLive(ix), org, db)
}

// NewLiveServer wires a live segmented index to a bucket organization,
// on the served schedule: the live set cut into GOMAXPROCS document
// shards before the server resolves its first snapshot (ProcessParallel
// folds them on up to as many workers, one per rankGrain postings of
// the query), and fixed-base tables of benaloh.DefaultWindow. db
// supplies the lemma spelling of each organization term so it can be
// matched against each segment's dictionary.
func NewLiveServer(live *index.Live, org *bucket.Organization, db *wordnet.Database) *Server {
	live.SetSharding(runtime.GOMAXPROCS(0))
	s := &Server{Live: live, Org: org, db: db, Disk: simio.Default(),
		window: benaloh.DefaultWindow, segCache: make(map[*index.Index]*segResolved)}
	s.resolve()
	return s
}

// resolve returns the resolution cache for the CURRENT index snapshot,
// rebuilding it when an online update has swapped the snapshot since
// the last query. Concurrent queries during a rebuild either reuse the
// old cache (consistent with the old snapshot they would then use) or
// wait on the mutex and share the fresh one.
func (s *Server) resolve() *resolvedState {
	snap := s.Live.Snapshot()
	if r := s.resolved.Load(); r != nil && r.snap == snap {
		return r
	}
	s.resolveMu.Lock()
	defer s.resolveMu.Unlock()
	snap = s.Live.Snapshot() // re-load: catch up to the latest swap
	if r := s.resolved.Load(); r != nil && r.snap == snap {
		return r
	}
	r := &resolvedState{snap: snap}
	r.termOf = make([][]int32, len(snap.Segs))
	r.bucketBytes = make([]int, s.Org.NumBuckets())
	alive := make(map[*index.Index]bool, len(snap.Segs))
	for si, seg := range snap.Segs {
		alive[seg] = true
		sr, ok := s.segCache[seg]
		if !ok {
			sr = s.resolveSegment(seg)
			s.segCache[seg] = sr
		}
		r.termOf[si] = sr.termOf
		for b, n := range sr.bucketBytes {
			r.bucketBytes[b] += n
		}
	}
	// Drop rows of segments the snapshot no longer holds (merged away):
	// in-flight queries keep their own resolvedState, so this only
	// bounds the cache, never invalidates a reader.
	for seg := range s.segCache {
		if !alive[seg] {
			delete(s.segCache, seg)
		}
	}
	s.resolved.Store(r)
	return r
}

// resolveSegment computes one segment's resolution; called once per
// segment lifetime, under resolveMu.
func (s *Server) resolveSegment(seg *index.Index) *segResolved {
	sr := &segResolved{
		termOf:      make([]int32, s.db.NumTerms()),
		bucketBytes: make([]int, s.Org.NumBuckets()),
	}
	for i := range sr.termOf {
		sr.termOf[i] = -1
	}
	for b := 0; b < s.Org.NumBuckets(); b++ {
		for _, t := range s.Org.Bucket(b) {
			if ti, ok := seg.LookupTerm(s.db.Lemma(t)); ok {
				sr.termOf[t] = int32(ti)
				sr.bucketBytes[b] += seg.ListBytes(ti)
			}
		}
	}
	return sr
}

// ListFor returns the live postings of a dictionary term — each
// segment's list (its runs back to back) concatenated across segments,
// tombstoned documents removed — or nil when the term does not occur in
// the corpus. On the common static single-segment server the underlying
// list is returned without copying.
func (s *Server) ListFor(t wordnet.TermID) []index.Posting {
	r := s.resolve()
	if len(r.snap.Segs) == 1 && r.snap.Tombs.Count() == 0 {
		if ti := r.term(0, t); ti >= 0 {
			return r.snap.Segs[0].List(int(ti))
		}
		return nil
	}
	var out []index.Posting
	for si, seg := range r.snap.Segs {
		ti := r.term(si, t)
		if ti < 0 {
			continue
		}
		for _, p := range seg.List(int(ti)) {
			if !r.snap.Deleted(p.Doc) {
				out = append(out, p)
			}
		}
	}
	return out
}

// Stats records the server-side cost of one query execution, feeding the
// Figure 7/8 metrics.
type Stats struct {
	// ModMuls counts KeyLen-bit modular multiplications; each homomorphic
	// accumulation E(score)·E(u)^p costs one modular exponentiation with
	// a small exponent p, accounted as its square-and-multiply length.
	ModMuls int
	// Postings is the number of inverted-list entries scanned, including
	// tombstoned ones (they are read, then skipped).
	Postings int
	// Tombstoned counts scanned postings skipped because their document
	// is deleted; skipped postings cost no group operations.
	Tombstoned int
	// IO aggregates the simulated disk accesses (one seek per distinct
	// bucket, Section 4's layout).
	IO simio.Accounting
	// Candidates is |R|.
	Candidates int
}

// IOms returns the simulated I/O time in milliseconds.
func (st Stats) IOms(m simio.Model) float64 { return st.IO.Ms(m) }

// cancelCheckPostings is how many postings a fold (plan or oracle) walks
// between context checks: frequent enough that a deadline lands within
// a handful of group operations, rare enough that the atomic load in
// ctx.Done() is invisible next to the modular arithmetic.
const cancelCheckPostings = 64

// ctxScanErr is the error a cancelled scan reports: the context's own
// error once its timer has fired, else DeadlineExceeded — a scan only
// stops early on the done channel or on a wall-clock deadline check,
// and the latter can observe the deadline before the context's own
// timer goroutine has had a chance to run.
func ctxScanErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// fixedBaseMinPostings is the inverted-list length at which building a
// fixed-base table pays for its setup multiplications; shorter lists
// fall back to plain exponentiation.
const fixedBaseMinPostings = 4
