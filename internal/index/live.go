// Live index: the segmented, online-updatable view of the retrieval
// substrate. The paper's engine (Section 2.2, Appendix B) assumes a
// static impact-ordered index; Live reintroduces updates Lucene-style
// without touching the private-retrieval protocol:
//
//   - the corpus is a set of immutable segments, each an Index (a
//     mini-index) quantized against ONE scale pinned at creation time
//     (the quantization-pinning invariant: E(u)^p exponents from
//     different segments stay comparable, so Claim 1 — private ranking
//     equals plaintext ranking — keeps holding across updates);
//   - added documents become a new segment appended to an atomically
//     swapped snapshot — readers load one pointer and never block;
//   - deleted documents become tombstones in an immutable bitset;
//     evaluation skips their postings without any homomorphic work;
//   - a merge policy folds the smallest segments together when the set
//     grows past a bound, rewriting tombstoned postings away. Merges
//     copy impacts verbatim, so a merge never changes any score;
//   - every segment of a snapshot is cut into the snapshot's Runs runs
//     (cut.go), the ranking plan's document shards.
//
// A segment's postings carry GLOBAL document ids, offset at append time.
package index

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultMaxSegments is the default bound on the live segment set;
// above it the merge policy folds the smallest segments together.
const DefaultMaxSegments = 8

// Tombstones is an immutable set of deleted document ids, a bitset over
// the global doc-id space. The zero value is the empty set; mutation
// happens by building a new set (withDeleted), never in place, so a
// snapshot holding one is safe for concurrent readers. Tombstones are
// kept even after a merge rewrites the postings away: the bit is what
// records that an id was deleted and must not be deleted twice.
type Tombstones struct {
	words []uint64
	count int
}

// Has reports whether document d is deleted.
func (t *Tombstones) Has(d DocID) bool {
	if t == nil || d < 0 {
		return false
	}
	w := int(d) >> 6
	return w < len(t.words) && t.words[w]&(1<<(uint(d)&63)) != 0
}

// Count returns the number of deleted documents.
func (t *Tombstones) Count() int {
	if t == nil {
		return 0
	}
	return t.count
}

// DocIDs returns the deleted ids in increasing order.
func (t *Tombstones) DocIDs() []DocID {
	if t == nil || t.count == 0 {
		return nil
	}
	out := make([]DocID, 0, t.count)
	for w, word := range t.words {
		for word != 0 {
			out = append(out, DocID(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

// withDeleted returns a copy of the set with ids added. Every id must
// be a live document: in [0, bound) and not already deleted (a repeat
// within ids counts as already deleted).
func (t *Tombstones) withDeleted(ids []DocID, bound DocID) (*Tombstones, error) {
	nt := &Tombstones{words: make([]uint64, (int(bound)+63)>>6), count: t.Count()}
	if t != nil {
		copy(nt.words, t.words)
	}
	for _, d := range ids {
		if d < 0 || d >= bound {
			return nil, fmt.Errorf("index: document %d out of range [0, %d)", d, bound)
		}
		w, bit := int(d)>>6, uint64(1)<<(uint(d)&63)
		if nt.words[w]&bit != 0 {
			return nil, fmt.Errorf("index: document %d is not live (already deleted)", d)
		}
		nt.words[w] |= bit
		nt.count++
	}
	return nt, nil
}

// Snapshot is one immutable state of a Live set: the segments, the
// tombstones, and the next unassigned document id. Readers obtain a
// Snapshot with Live.Snapshot and evaluate against it without locks; a
// Snapshot stays valid (and internally consistent) forever, even after
// later updates and merges.
type Snapshot struct {
	Segs  []*Index
	Tombs *Tombstones
	// NextDoc is the next document id an append will assign; ids are
	// dense over everything ever added, deleted ids are never reused.
	NextDoc DocID
	// Runs is the number of runs every segment's lists are cut into
	// (Index.Cut) — the ranking plan's shard count. Live.SetSharding
	// sets it; a new live set starts uncut, at 1.
	Runs int
	// Version increments on every swap that changes the content
	// (append, delete, merge); a re-cut keeps it.
	Version uint64
}

// LiveDocs returns the number of live (non-deleted) documents.
func (sn *Snapshot) LiveDocs() int { return int(sn.NextDoc) - sn.Tombs.Count() }

// Deleted reports whether document d is tombstoned in this snapshot.
func (sn *Snapshot) Deleted(d DocID) bool { return sn.Tombs.Has(d) }

// LiveDocIDs returns every live (assigned and not tombstoned) document
// id in increasing order — the id set a PIR document store must be
// able to serve for this snapshot. Allocates the full slice; meant for
// audits, tests and store rebuilds, not hot paths.
func (sn *Snapshot) LiveDocIDs() []DocID {
	out := make([]DocID, 0, sn.LiveDocs())
	for d := DocID(0); d < sn.NextDoc; d++ {
		if !sn.Tombs.Has(d) {
			out = append(out, d)
		}
	}
	return out
}

// ValidateDelete reports — without applying anything — whether every
// id could be deleted from this snapshot: assigned, still live, and
// not repeated within ids. Engines that journal deletions to a
// write-ahead log validate against the snapshot they hold under the
// write lock BEFORE appending the journal record, so a record never
// encodes an operation the index would then reject.
func (sn *Snapshot) ValidateDelete(ids []DocID) error {
	_, err := sn.Tombs.withDeleted(ids, sn.NextDoc)
	return err
}

// NumPostings totals the postings across all segments (tombstoned
// postings included until a merge rewrites them away).
func (sn *Snapshot) NumPostings() int {
	n := 0
	for _, seg := range sn.Segs {
		n += seg.NumPostings()
	}
	return n
}

// HasToken reports whether any segment's dictionary contains the token.
func (sn *Snapshot) HasToken(tok string) bool {
	for _, seg := range sn.Segs {
		if _, ok := seg.LookupTerm(tok); ok {
			return true
		}
	}
	return false
}

// QuantizedTopK evaluates a plaintext query over the snapshot's
// quantized impacts — segment by segment, skipping tombstones —
// mirroring exactly what the private retrieval scheme accumulates
// homomorphically. Each token occurrence contributes once, matching
// Index.QuantizedTopK's treatment of repeated query terms.
func (sn *Snapshot) QuantizedTopK(tokens []string, k int) []Result {
	acc := make(map[DocID]float64)
	for _, tok := range tokens {
		for _, seg := range sn.Segs {
			ti, ok := seg.LookupTerm(tok)
			if !ok {
				continue
			}
			for _, p := range seg.List(ti) {
				if !sn.Tombs.Has(p.Doc) {
					acc[p.Doc] += float64(p.Quantized)
				}
			}
		}
	}
	return topKFromAccumulators(acc, k)
}

// Live holds the atomically swapped segment set. Readers call Snapshot
// and are never blocked; writers (Append, Delete, merges) serialize on
// an internal lock and publish a fresh Snapshot with one atomic store.
type Live struct {
	quantLevels int32
	// scale is the pinned quantization scale every segment must share.
	scale float64

	mu          sync.Mutex // serializes writers and merges
	maxSegments int        // merge when the set grows past this; <= 0 disables
	merging     atomic.Bool
	state       atomic.Pointer[Snapshot]
}

// NewLive wraps a freshly built (or legacy single-file) index as a
// one-segment, uncut live set, pinning its quantization scale for all
// future segments.
func NewLive(base *Index) *Live {
	lv := &Live{
		quantLevels: base.QuantLevels,
		scale:       base.maxImpact,
		maxSegments: DefaultMaxSegments,
	}
	lv.state.Store(&Snapshot{
		Segs:    []*Index{base.Cut(1)},
		Tombs:   &Tombstones{},
		NextDoc: DocID(base.NumDocs),
		Runs:    1,
	})
	return lv
}

// NewLiveFromParts reassembles a live set from persisted parts: the
// segment indexes in order, the deleted ids, and the next unassigned
// document id, uncut. It validates the quantization-pinning invariant
// (all segments share one scale and resolution) and the id-space bounds.
func NewLiveFromParts(ixs []*Index, deleted []DocID, nextDoc DocID) (*Live, error) {
	if len(ixs) == 0 {
		return nil, errors.New("index: live set needs at least one segment")
	}
	ql, scale := ixs[0].QuantLevels, ixs[0].maxImpact
	segs := make([]*Index, len(ixs))
	for i, ix := range ixs {
		if ix.QuantLevels != ql {
			return nil, fmt.Errorf("index: segment %d quantizes to %d levels, segment 0 to %d", i, ix.QuantLevels, ql)
		}
		if ix.maxImpact != scale {
			return nil, fmt.Errorf("index: segment %d quantization scale %g differs from pinned scale %g", i, ix.maxImpact, scale)
		}
		if ix.NumDocs > int(nextDoc) {
			return nil, fmt.Errorf("index: segment %d doc bound %d exceeds next doc id %d", i, ix.NumDocs, nextDoc)
		}
		segs[i] = ix.Cut(1)
	}
	tombs, err := (&Tombstones{}).withDeleted(deleted, nextDoc)
	if err != nil {
		return nil, err
	}
	lv := &Live{quantLevels: ql, scale: scale, maxSegments: DefaultMaxSegments}
	lv.state.Store(&Snapshot{Segs: segs, Tombs: tombs, NextDoc: nextDoc, Runs: 1})
	return lv, nil
}

// Snapshot returns the current state. The result is immutable and
// remains valid after any number of later updates.
func (lv *Live) Snapshot() *Snapshot { return lv.state.Load() }

// Scale returns the pinned quantization scale. Builders for new
// segments must set Builder.Scale to this value.
func (lv *Live) Scale() float64 { return lv.scale }

// QuantLevels returns the pinned quantization resolution.
func (lv *Live) QuantLevels() int32 { return lv.quantLevels }

// NumSegments reports the current segment count.
func (lv *Live) NumSegments() int { return len(lv.Snapshot().Segs) }

// SetMaxSegments adjusts the merge-policy bound: when an update leaves
// more than n segments, the smallest are folded together in the
// background. n <= 0 disables automatic merging (Compact remains
// available).
func (lv *Live) SetMaxSegments(n int) {
	lv.mu.Lock()
	lv.maxSegments = n
	lv.mu.Unlock()
	lv.maybeMerge()
}

// SetSharding sets the ranking plan's shard count: it publishes a
// snapshot whose segments are cut into n runs (n < 1 is 1), and
// Append, MergeNow and Compact cut every later segment the same way.
// The content is unchanged, and so is Version. Published snapshots keep
// their segments, so it is safe while queries run; it copies every
// segment's postings once, and the uncut copies go when no snapshot
// holds them.
func (lv *Live) SetSharding(n int) {
	n = max(1, n)
	lv.mu.Lock()
	defer lv.mu.Unlock()
	cur := lv.state.Load()
	if cur.Runs == n {
		return
	}
	segs := make([]*Index, len(cur.Segs))
	for i, seg := range cur.Segs {
		segs[i] = seg.Cut(n)
	}
	next := *cur
	next.Segs, next.Runs = segs, n
	lv.state.Store(&next)
}

// swapLocked publishes a new snapshot at the current cut; the caller
// holds lv.mu and has cut every new segment.
func (lv *Live) swapLocked(segs []*Index, tombs *Tombstones, nextDoc DocID) {
	old := lv.state.Load()
	lv.state.Store(&Snapshot{Segs: segs, Tombs: tombs, NextDoc: nextDoc, Runs: old.Runs, Version: old.Version + 1})
}

// Append adds a locally built index (dense doc ids from 0, built with
// Builder.Scale = lv.Scale()) as a new segment, assigning its documents
// the next global ids. It returns the first assigned id.
func (lv *Live) Append(local *Index) (DocID, error) {
	lv.mu.Lock()
	if local.QuantLevels != lv.quantLevels {
		lv.mu.Unlock()
		return 0, fmt.Errorf("index: segment quantizes to %d levels, live set to %d", local.QuantLevels, lv.quantLevels)
	}
	if local.maxImpact != lv.scale {
		lv.mu.Unlock()
		return 0, fmt.Errorf("index: segment scale %g is not the pinned quantization scale %g; build it with Builder.Scale", local.maxImpact, lv.scale)
	}
	cur := lv.state.Load()
	base := cur.NextDoc
	local.offsetDocs(base)
	segs := make([]*Index, 0, len(cur.Segs)+1)
	segs = append(append(segs, cur.Segs...), local.Cut(cur.Runs))
	lv.swapLocked(segs, cur.Tombs, DocID(local.NumDocs))
	lv.mu.Unlock()
	lv.maybeMerge()
	return base, nil
}

// Delete tombstones documents. Every id must be live: already-deleted
// ids (and repeats within one call) are rejected, as are ids never
// assigned. Postings stay on disk in their segments until a merge
// rewrites them away; evaluation skips them meanwhile.
func (lv *Live) Delete(ids []DocID) error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	cur := lv.state.Load()
	nt, err := cur.Tombs.withDeleted(ids, cur.NextDoc)
	if err != nil {
		return err
	}
	lv.swapLocked(cur.Segs, nt, cur.NextDoc)
	return nil
}

// maybeMerge starts one background merge worker when the segment set
// exceeds the policy bound and none is running. Best effort: a set that
// outgrows the bound while the worker winds down is caught by the next
// update's trigger.
func (lv *Live) maybeMerge() {
	lv.mu.Lock()
	over := lv.maxSegments > 0 && len(lv.state.Load().Segs) > lv.maxSegments
	lv.mu.Unlock()
	if !over || !lv.merging.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer lv.merging.Store(false)
		for lv.MergeNow() {
		}
	}()
}

// MergeNow runs one synchronous merge step: when the set exceeds the
// policy bound, the smallest segments (by posting count) are folded
// into one, dropping tombstoned postings. It reports whether a merge
// happened. Writers are blocked for the duration; readers never are.
func (lv *Live) MergeNow() bool {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	cur := lv.state.Load()
	if lv.maxSegments <= 0 || len(cur.Segs) <= lv.maxSegments {
		return false
	}
	// Fold the k smallest into one so the result lands exactly on the
	// bound.
	k := len(cur.Segs) - lv.maxSegments + 1
	order := make([]int, len(cur.Segs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := cur.Segs[order[a]].NumPostings(), cur.Segs[order[b]].NumPostings()
		if pa != pb {
			return pa < pb
		}
		return order[a] < order[b]
	})
	victim := make(map[int]bool, k)
	for _, i := range order[:k] {
		victim[i] = true
	}
	victims := make([]*Index, 0, k)
	survivors := make([]*Index, 0, len(cur.Segs)-k+1)
	for i, seg := range cur.Segs {
		if victim[i] {
			victims = append(victims, seg)
		} else {
			survivors = append(survivors, seg)
		}
	}
	merged := mergeSegments(victims, cur.Tombs, cur.Runs)
	lv.swapLocked(append(survivors, merged), cur.Tombs, cur.NextDoc)
	return true
}

// Compact folds the whole set into a single segment, rewriting every
// tombstoned posting away, regardless of the policy bound. A no-op when
// the set is already one segment with no deletions.
func (lv *Live) Compact() {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	cur := lv.state.Load()
	if len(cur.Segs) == 1 && cur.Tombs.Count() == 0 {
		return
	}
	lv.swapLocked([]*Index{mergeSegments(cur.Segs, cur.Tombs, cur.Runs)}, cur.Tombs, cur.NextDoc)
}

// mergeSegments rewrites several segments into one cut into n runs,
// dropping postings of tombstoned documents. Impacts and quantized
// values are copied verbatim — a merge never recomputes statistics, so
// every surviving posting scores exactly as it did before and rankings
// are unchanged. The layout is restored by sorting the concatenation.
func mergeSegments(segs []*Index, dead *Tombstones, n int) *Index {
	out := &Index{
		terms:       make(map[string]int),
		QuantLevels: segs[0].QuantLevels,
		maxImpact:   segs[0].maxImpact,
		runs:        n,
	}
	for _, seg := range segs {
		if seg.NumDocs > out.NumDocs {
			out.NumDocs = seg.NumDocs
		}
		for ti, term := range seg.vocab {
			oi, ok := out.terms[term]
			if !ok {
				oi = len(out.vocab)
				out.terms[term] = oi
				out.vocab = append(out.vocab, term)
				out.lists = append(out.lists, nil)
			}
			for _, p := range seg.lists[ti] {
				if !dead.Has(p.Doc) {
					out.lists[oi] = append(out.lists[oi], p)
				}
			}
		}
	}
	for _, list := range out.lists {
		slices.SortFunc(list, inRuns(n))
	}
	return out
}
