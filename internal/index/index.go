// Package index implements the similarity-retrieval substrate of the
// paper (Section 2.2 and Appendix B): an impact-ordered inverted index
// over a document corpus, with the cosine scoring function of Equation 3,
//
//	S_{d,q} = Σ_{t∈q} w_{d,t}·w_t / W_d,
//	w_t = ln(1 + N/f_t),  w_{d,t} = 1 + ln f_{d,t},  W_d = sqrt(Σ w_{d,t}²),
//
// precomputed per posting as the impact p_{d,t} = w_{d,t}·w_t/W_d
// (Equation 4). Inverted lists are sorted by decreasing impact, and the
// top-k evaluation algorithm of Figure 10 accumulates scores by repeatedly
// popping the globally highest remaining impact.
//
// Impacts are additionally quantized to small non-negative integers
// (footnote 1 of the paper, following Zobel & Moffat), which the private
// retrieval scheme requires so that the homomorphic operation E(u)^p is
// defined over integer exponents.
package index

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// DocID identifies a document in the corpus, dense from 0.
type DocID int32

// Posting is one entry of an inverted list: a document and the impact of
// the term in it. Quantized is the integer impact used by the private
// retrieval scheme; Impact is the exact float value used by plaintext
// scoring.
type Posting struct {
	Doc       DocID
	Impact    float64
	Quantized int32
}

// Index is an impact-ordered inverted index. Build it with a Builder;
// afterwards it is immutable and safe for concurrent readers. In a
// segmented Live set an Index is one segment (see live.go); segment
// postings carry global document ids.
type Index struct {
	// NumDocs is the exclusive bound of the document-id space: every
	// posting satisfies Doc < NumDocs. For a freshly built index the ids
	// are dense from 0, so this equals the number of documents indexed;
	// for a segment of a Live set it is the global bound, not the
	// segment's own document count.
	NumDocs int
	// terms maps the dictionary string to a dense term number.
	terms map[string]int
	// vocab is the inverse mapping.
	vocab []string
	// lists[i] is the inverted list of term i: in byImpact order, or,
	// when runs > 1, cut into that many runs (cut.go).
	lists [][]Posting
	// runs is the number of runs each list is cut into; 0 and 1 are
	// uncut.
	runs int
	// docLen[d] is the number of distinct terms in document d.
	docLen []int32
	// QuantLevels records the quantization resolution used at build time.
	QuantLevels int32
	// maxImpact is the largest raw impact seen, the quantization scale.
	maxImpact float64
}

// Scale returns the quantization scale the index's impacts were
// quantized against (Builder.Scale, or the batch maximum when unset).
// Live.Append requires it to match the live set's pinned scale;
// callers can pre-check with this accessor before mutating adjacent
// state.
func (ix *Index) Scale() float64 { return ix.maxImpact }

// NumTerms returns the dictionary size.
func (ix *Index) NumTerms() int { return len(ix.vocab) }

// Term returns the dictionary string of term number i.
func (ix *Index) Term(i int) string { return ix.vocab[i] }

// LookupTerm resolves a dictionary string to its term number.
func (ix *Index) LookupTerm(s string) (int, bool) {
	i, ok := ix.terms[s]
	return i, ok
}

// List returns the inverted list of term i: impact-ordered on an uncut
// index, its runs back to back on a cut one (Cut). The returned slice is
// owned by the index.
func (ix *Index) List(i int) []Posting { return ix.lists[i] }

// ListByTerm returns the inverted list for a dictionary string, in
// List's order, or nil.
func (ix *Index) ListByTerm(s string) []Posting {
	if i, ok := ix.terms[s]; ok {
		return ix.lists[i]
	}
	return nil
}

// DocFreq returns f_t, the number of documents containing term i.
func (ix *Index) DocFreq(i int) int { return len(ix.lists[i]) }

// Vocabulary returns all dictionary strings in term-number order. The
// returned slice is owned by the index.
func (ix *Index) Vocabulary() []string { return ix.vocab }

// ListBytes returns the on-disk size of term i's inverted list under the
// paper's layout: one ⟨document id, impact⟩ pair per posting (4+4 bytes).
func (ix *Index) ListBytes(i int) int { return 8 * len(ix.lists[i]) }

// MaxImpact returns the quantization scale: the raw impact that maps to
// QuantLevels. A pinned-scale build (Builder.Scale) reports the pinned
// value, which need not be an impact present in any list.
func (ix *Index) MaxImpact() float64 { return ix.maxImpact }

// NumPostings returns the total posting count across all inverted
// lists — the segment-size metric of the Live merge policy.
func (ix *Index) NumPostings() int {
	n := 0
	for _, list := range ix.lists {
		n += len(list)
	}
	return n
}

// offsetDocs shifts every posting's document id by base and widens
// NumDocs into the matching doc-id bound, turning a locally built index
// (dense ids from 0) into a segment of a larger global id space.
func (ix *Index) offsetDocs(base DocID) {
	for _, list := range ix.lists {
		for i := range list {
			list[i].Doc += base
		}
	}
	ix.NumDocs += int(base)
}

// Builder accumulates documents and produces an Index.
type Builder struct {
	// Scoring selects the similarity function (cosine Equation 3 by
	// default, or Okapi BM25); see bm25.go.
	Scoring Scoring
	// BM25 parameterizes ScoringBM25; zero value selects DefaultBM25.
	BM25  BM25Params
	terms map[string]int
	vocab []string
	// freqs[i] is term i's postings during collection, ascending by doc:
	// documents arrive in id order, so a repeat within the current
	// document bumps the last entry.
	freqs  [][]docFreq
	docLen []int32
	// tokLen[d] is the token count of document d (BM25's dl).
	tokLen  []int32
	numDocs int
	// QuantLevels sets the integer quantization resolution; impacts map
	// to 1..QuantLevels. Default 255.
	QuantLevels int32
	// Scale pins the quantization scale — the raw impact that maps to
	// QuantLevels — instead of deriving it from this build's own maximum
	// impact. A segmented Live set quantizes every segment against the
	// scale pinned at engine creation so that quantized impacts (the
	// homomorphic exponents E(u)^p) stay comparable across segments;
	// impacts above the pinned scale clamp to QuantLevels. 0 derives the
	// scale from the data, the single-index behavior.
	Scale float64
}

// docFreq is one collected posting: a document and f_{d,t}.
type docFreq struct {
	doc DocID
	f   int32
}

// NewBuilder returns an empty Builder with default quantization.
func NewBuilder() *Builder {
	return &Builder{terms: make(map[string]int), QuantLevels: 255}
}

// Add indexes one document given its analyzed token stream. Documents
// must be added with consecutive DocIDs starting at 0. The builder keeps
// no token string it is handed: new vocabulary is cloned, so a token cut
// from a document's text does not keep that text alive.
func (b *Builder) Add(doc DocID, tokens []string) {
	if int(doc) != b.numDocs {
		panic(fmt.Sprintf("index: documents must be added in order; got %d want %d", doc, b.numDocs))
	}
	b.numDocs++
	seen := 0
	for _, tok := range tokens {
		ti, ok := b.terms[tok]
		if !ok {
			tok = strings.Clone(tok)
			ti = len(b.vocab)
			b.terms[tok] = ti
			b.vocab = append(b.vocab, tok)
			b.freqs = append(b.freqs, nil)
		}
		list := b.freqs[ti]
		if n := len(list); n > 0 && list[n-1].doc == doc {
			list[n-1].f++
			continue
		}
		b.freqs[ti] = append(list, docFreq{doc, 1})
		seen++
	}
	b.docLen = append(b.docLen, int32(seen))
	b.tokLen = append(b.tokLen, int32(len(tokens)))
}

// Build computes impacts, quantizes them, orders the lists and returns
// the finished index. The Builder must not be reused afterwards.
func (b *Builder) Build() *Index {
	n := float64(b.numDocs)
	// First pass: per-document normalizer W_d = sqrt(Σ w_{d,t}²).
	// Equation 3 sums the squared DOCUMENT weights only — w_t does not
	// enter the normalizer.
	wd := make([]float64, b.numDocs)
	for _, list := range b.freqs {
		for _, p := range list {
			wdt := 1 + math.Log(float64(p.f))
			wd[p.doc] += wdt * wdt
		}
	}
	for d := range wd {
		wd[d] = math.Sqrt(wd[d])
	}
	// Second pass: impacts.
	ix := &Index{
		NumDocs:     b.numDocs,
		terms:       b.terms,
		vocab:       b.vocab,
		lists:       make([][]Posting, len(b.vocab)),
		docLen:      b.docLen,
		QuantLevels: b.QuantLevels,
	}
	bmp := b.BM25
	if bmp == (BM25Params{}) {
		bmp = DefaultBM25()
	}
	avgdl := 0.0
	for _, l := range b.tokLen {
		avgdl += float64(l)
	}
	if b.numDocs > 0 {
		avgdl /= float64(b.numDocs)
	}
	maxImpact := 0.0
	for ti, freqs := range b.freqs {
		ft := float64(len(freqs))
		wt := math.Log(1 + n/ft)
		list := make([]Posting, len(freqs))
		for i, p := range freqs {
			var imp float64
			switch b.Scoring {
			case ScoringBM25:
				imp = bm25Impact(bmp, n, ft, float64(p.f), float64(b.tokLen[p.doc]), avgdl)
			default:
				wdt := 1 + math.Log(float64(p.f))
				imp = wdt * wt / wd[p.doc]
			}
			if imp > maxImpact {
				maxImpact = imp
			}
			list[i] = Posting{Doc: p.doc, Impact: imp}
		}
		ix.lists[ti] = list
	}
	scale := b.Scale
	if scale <= 0 {
		scale = maxImpact
	}
	ix.maxImpact = scale
	// Quantize to 1..QuantLevels and order by decreasing impact (ties by
	// ascending doc for determinism).
	for ti, list := range ix.lists {
		for i := range list {
			q := int32(math.Ceil(list[i].Impact / scale * float64(b.QuantLevels)))
			if q < 1 {
				q = 1
			}
			if q > b.QuantLevels {
				q = b.QuantLevels
			}
			list[i].Quantized = q
		}
		slices.SortFunc(list, byImpact)
		ix.lists[ti] = list
	}
	b.freqs = nil
	return ix
}

// byImpact orders postings by decreasing impact, ties by ascending doc:
// a total order within one list, so every sort of it agrees.
func byImpact(a, b Posting) int {
	if a.Impact != b.Impact {
		if a.Impact > b.Impact {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Doc, b.Doc)
}

// Result is one scored document.
type Result struct {
	Doc   DocID
	Score float64
}

// TopK evaluates a plaintext query (a set of term numbers) with the
// impact-ordered algorithm of Figure 10 and returns the k highest-scoring
// documents in decreasing score order (ties by ascending DocID). A cut
// index opens one cursor per run, so the pops, and every float sum, are
// those of the uncut lists.
func (ix *Index) TopK(queryTerms []int, k int) []Result {
	var pq impactHeap
	for _, ti := range queryTerms {
		if ti < 0 || ti >= len(ix.lists) {
			continue
		}
		for s := range ix.Runs() {
			if run := ix.Run(ti, s); len(run) > 0 {
				pq = append(pq, cursorRef{list: run})
			}
		}
	}
	heap.Init(&pq)
	acc := make(map[DocID]float64)
	for pq.Len() > 0 {
		top := &pq[0]
		p := top.list[top.pos]
		acc[p.Doc] += p.Impact
		top.pos++
		if top.pos >= len(top.list) {
			heap.Pop(&pq)
		} else {
			heap.Fix(&pq, 0)
		}
	}
	return topKFromAccumulators(acc, k)
}

// QuantizedTopK evaluates the query over quantized impacts, mirroring what
// the private retrieval scheme computes homomorphically. Used to verify
// Claim 1 (rank preservation) in tests.
func (ix *Index) QuantizedTopK(queryTerms []int, k int) []Result {
	acc := make(map[DocID]float64)
	for _, ti := range queryTerms {
		if ti < 0 || ti >= len(ix.lists) {
			continue
		}
		for _, p := range ix.lists[ti] {
			acc[p.Doc] += float64(p.Quantized)
		}
	}
	return topKFromAccumulators(acc, k)
}

func topKFromAccumulators(acc map[DocID]float64, k int) []Result {
	res := make([]Result, 0, len(acc))
	for d, s := range acc {
		res = append(res, Result{Doc: d, Score: s})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].Doc < res[j].Doc
	})
	if k > 0 && len(res) > k {
		res = res[:k]
	}
	return res
}

type cursorRef struct {
	list []Posting
	pos  int
}

// impactHeap orders cursors by the impact at their current position,
// highest first.
type impactHeap []cursorRef

func (h impactHeap) Len() int { return len(h) }
func (h impactHeap) Less(i, j int) bool {
	return h[i].list[h[i].pos].Impact > h[j].list[h[j].pos].Impact
}
func (h impactHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *impactHeap) Push(x interface{}) { *h = append(*h, x.(cursorRef)) }
func (h *impactHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
