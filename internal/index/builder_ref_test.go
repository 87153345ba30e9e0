package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceBuilder is the map-per-term Builder the doc-ordered one
// replaced, kept verbatim as the oracle.
type referenceBuilder struct {
	// Scoring selects the similarity function (cosine Equation 3 by
	// default, or Okapi BM25); see bm25.go.
	Scoring Scoring
	// BM25 parameterizes ScoringBM25; zero value selects DefaultBM25.
	BM25  BM25Params
	terms map[string]int
	vocab []string
	// freqs[i] maps doc -> f_{d,t} during collection.
	freqs  []map[DocID]int32
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

// newReferenceBuilder returns an empty reference builder.
func newReferenceBuilder() *referenceBuilder {
	return &referenceBuilder{terms: make(map[string]int), QuantLevels: 255}
}

// Add indexes one document given its analyzed token stream. Documents
// must be added with consecutive DocIDs starting at 0.
func (b *referenceBuilder) Add(doc DocID, tokens []string) {
	if int(doc) != b.numDocs {
		panic(fmt.Sprintf("index: documents must be added in order; got %d want %d", doc, b.numDocs))
	}
	b.numDocs++
	seen := 0
	for _, tok := range tokens {
		ti, ok := b.terms[tok]
		if !ok {
			ti = len(b.vocab)
			b.terms[tok] = ti
			b.vocab = append(b.vocab, tok)
			b.freqs = append(b.freqs, make(map[DocID]int32))
		}
		if b.freqs[ti][doc] == 0 {
			seen++
		}
		b.freqs[ti][doc]++
	}
	b.docLen = append(b.docLen, int32(seen))
	b.tokLen = append(b.tokLen, int32(len(tokens)))
}

// Build computes impacts, quantizes them, orders the lists and returns
// the finished index. The Builder must not be reused afterwards.
func (b *referenceBuilder) Build() *Index {
	n := float64(b.numDocs)
	// First pass: per-document normalizer W_d = sqrt(Σ w_{d,t}²).
	// Equation 3 sums the squared DOCUMENT weights only — w_t does not
	// enter the normalizer.
	wd := make([]float64, b.numDocs)
	for ti := range b.vocab {
		for d, fdt := range b.freqs[ti] {
			wdt := 1 + math.Log(float64(fdt))
			wd[d] += wdt * wdt
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
	for ti := range b.vocab {
		ft := float64(len(b.freqs[ti]))
		wt := math.Log(1 + n/ft)
		list := make([]Posting, 0, len(b.freqs[ti]))
		for d, fdt := range b.freqs[ti] {
			var imp float64
			switch b.Scoring {
			case ScoringBM25:
				imp = bm25Impact(bmp, n, ft, float64(fdt), float64(b.tokLen[d]), avgdl)
			default:
				wdt := 1 + math.Log(float64(fdt))
				imp = wdt * wt / wd[d]
			}
			if imp > maxImpact {
				maxImpact = imp
			}
			list = append(list, Posting{Doc: d, Impact: imp})
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
		sort.Slice(list, func(i, j int) bool {
			if list[i].Impact != list[j].Impact {
				return list[i].Impact > list[j].Impact
			}
			return list[i].Doc < list[j].Doc
		})
		ix.lists[ti] = list
	}
	b.freqs = nil
	return ix
}

// TestBuilderMatchesReference builds random token streams with the
// builder and its reference, under both scorings and with a pinned and a
// derived scale, and requires the same vocabulary order, the same lists
// posting by posting, and the same docLen, NumDocs and MaxImpact.
func TestBuilderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := make([]string, 2+rng.Intn(60))
		for i := range vocab {
			vocab[i] = fmt.Sprintf("t%d", i)
		}
		docs := make([][]string, 1+rng.Intn(80))
		for d := range docs {
			// Zipf-like draws repeat a few terms within a document, the
			// case the doc-ordered lists fold into their last entry.
			toks := make([]string, rng.Intn(40))
			for i := range toks {
				toks[i] = vocab[rng.Intn(1+rng.Intn(len(vocab)))]
			}
			docs[d] = toks
		}
		for _, scoring := range []Scoring{ScoringCosine, ScoringBM25} {
			for _, scale := range []float64{0, 0.37} {
				name := fmt.Sprintf("seed=%d/scoring=%d/scale=%g", seed, scoring, scale)
				got, want := NewBuilder(), newReferenceBuilder()
				got.Scoring, want.Scoring = scoring, scoring
				got.Scale, want.Scale = scale, scale
				for d, toks := range docs {
					got.Add(DocID(d), toks)
					want.Add(DocID(d), toks)
				}
				assertSameIndex(t, name, got.Build(), want.Build())
			}
		}
	}
}

func assertSameIndex(t *testing.T, name string, got, want *Index) {
	t.Helper()
	if got.NumDocs != want.NumDocs || got.MaxImpact() != want.MaxImpact() || got.QuantLevels != want.QuantLevels {
		t.Fatalf("%s: NumDocs %d, MaxImpact %v, QuantLevels %d; reference %d, %v, %d", name,
			got.NumDocs, got.MaxImpact(), got.QuantLevels, want.NumDocs, want.MaxImpact(), want.QuantLevels)
	}
	if fmt.Sprint(got.vocab) != fmt.Sprint(want.vocab) {
		t.Fatalf("%s: vocabulary %v, reference %v", name, got.vocab, want.vocab)
	}
	for ti := range want.vocab {
		if i, ok := got.LookupTerm(want.vocab[ti]); !ok || i != ti {
			t.Fatalf("%s: term %q is number %d (%v), reference %d", name, want.vocab[ti], i, ok, ti)
		}
		g, w := got.List(ti), want.List(ti)
		if len(g) != len(w) {
			t.Fatalf("%s: list %q has %d postings, reference %d", name, want.vocab[ti], len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: list %q posting %d = %+v, reference %+v", name, want.vocab[ti], i, g[i], w[i])
			}
		}
	}
	if fmt.Sprint(got.docLen) != fmt.Sprint(want.docLen) {
		t.Fatalf("%s: docLen %v, reference %v", name, got.docLen, want.docLen)
	}
}
