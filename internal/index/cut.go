package index

import (
	"cmp"
	"slices"
	"sort"
)

// A cut index holds each term's postings once, in the layout the
// ranking plan scans: the list is one backing array cut into n runs,
// and run s holds the postings of the documents d with d mod n == s, in
// byImpact order. Because the partition is by document, not by term,
// the score accumulators of a query's n shards are disjoint: a worker
// that folds run s of every list can never touch a document another
// run owns, so merging shard results is pure concatenation, with no
// cross-shard homomorphic additions and no locks. At n = 1 the run is
// the list.
//
// The private fold (Algorithm 4) scans every posting with no early
// stop, so it never needs a list's global impact order. The readers
// that do — TopK and WriteTo — derive it from the runs.

// Runs returns the number of runs each inverted list is cut into; 1 is
// an uncut index, whose lists are in byImpact order.
func (ix *Index) Runs() int { return max(1, ix.runs) }

// Run returns run s of term t's list, s in [0, Runs()): the postings of
// the documents d with d mod Runs() == s, in byImpact order. The
// returned slice is owned by the index and capacity-limited.
func (ix *Index) Run(t, s int) []Posting {
	list, n := ix.lists[t], ix.Runs()
	lo, hi := 0, len(list)
	if n > 1 {
		// Along a cut list doc mod n never decreases: search for the
		// bounds.
		lo = sort.Search(hi, func(i int) bool { return int(list[i].Doc)%n >= s })
		hi = lo + sort.Search(hi-lo, func(i int) bool { return int(list[lo+i].Doc)%n > s })
	}
	return list[lo:hi:hi]
}

// Cut returns the index with every list cut into n runs (n < 1 is 1).
// It copies and never mutates: the result shares the dictionary and the
// document lengths, its lists are fresh backing arrays, and the
// receiver's lists keep their order. An index already cut at n is
// returned as it is.
func (ix *Index) Cut(n int) *Index {
	n = max(1, n)
	if n == ix.Runs() {
		return ix
	}
	out := *ix
	out.runs = n
	out.lists = make([][]Posting, len(ix.lists))
	offs := make([]int, n)
	for t, list := range ix.lists {
		backing := make([]Posting, len(list))
		out.lists[t] = backing
		if ix.Runs() > 1 {
			// Re-cutting a cut list: its runs interleave the new ones.
			copy(backing, list)
			slices.SortFunc(backing, inRuns(n))
			continue
		}
		// A stable partition of the impact-ordered list: count each
		// run, then place every posting at its run's next slot.
		clear(offs)
		for _, p := range list {
			offs[int(p.Doc)%n]++
		}
		off := 0
		for s, c := range offs {
			offs[s] = off
			off += c
		}
		for _, p := range list {
			s := int(p.Doc) % n
			backing[offs[s]] = p
			offs[s]++
		}
	}
	return &out
}

// inRuns orders postings as an index cut into n runs lays them out: by
// run, then byImpact within a run. At n = 1 it is byImpact.
func inRuns(n int) func(a, b Posting) int {
	return func(a, b Posting) int {
		if c := cmp.Compare(int(a.Doc)%n, int(b.Doc)%n); c != 0 {
			return c
		}
		return byImpact(a, b)
	}
}
