// Package semdist computes the weighted semantic distance between terms
// over the synset relation graph, as defined for the privacy evaluation in
// Section 5.1 of Pang, Ding and Xiao (VLDB 2010): the length of the
// shortest path between the terms' synsets, where a hypernym-hyponym hop
// weighs 1, an antonym hop 0.5, a holonym-meronym hop 2, and a
// domain-membership hop 3, reflecting the differing strengths of
// association. Derivational links, the closest association in Algorithm
// 1's traversal order, weigh 0.5 like antonyms.
package semdist

import (
	"container/heap"
	"math"

	"embellish/internal/wordnet"
)

// Weights assigns a path cost to each relation type. The zero value is
// unusable; use DefaultWeights.
type Weights [wordnet.NumRelationTypes]float64

// DefaultWeights returns the weights prescribed in Section 5.1.
func DefaultWeights() Weights {
	var w Weights
	w[wordnet.RelHypernym] = 1
	w[wordnet.RelHyponym] = 1
	w[wordnet.RelAntonym] = 0.5
	w[wordnet.RelDerivation] = 0.5
	w[wordnet.RelHolonym] = 2
	w[wordnet.RelMeronym] = 2
	w[wordnet.RelDomainTopic] = 3
	w[wordnet.RelDomainMember] = 3
	return w
}

// Calculator computes term distances on one database. It owns reusable
// scratch buffers, so a Calculator is NOT safe for concurrent use; create
// one per goroutine.
type Calculator struct {
	db *wordnet.Database
	w  Weights
	// MaxDist caps the search radius: searches stop once the tentative
	// distance exceeds it, and unreachable pairs report MaxDist. A cap
	// keeps Dijkstra local on the 80k-synset graph.
	MaxDist float64

	dist    []float64
	touched []wordnet.SynsetID
}

// New returns a Calculator with the paper's weights and a search radius of
// maxDist (<=0 selects 25, comfortably above the farthest covers observed
// in Figures 5 and 6).
func New(db *wordnet.Database, maxDist float64) *Calculator {
	if maxDist <= 0 {
		maxDist = 25
	}
	c := &Calculator{db: db, w: DefaultWeights(), MaxDist: maxDist}
	c.dist = make([]float64, db.NumSynsets())
	for i := range c.dist {
		c.dist[i] = math.Inf(1)
	}
	return c
}

type pqItem struct {
	s wordnet.SynsetID
	d float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// TermDistance returns the semantic distance between terms a and b: the
// minimum over pairs of their synsets of the weighted shortest path,
// capped at MaxDist. Identical terms have distance 0.
func (c *Calculator) TermDistance(a, b wordnet.TermID) float64 {
	if a == b {
		return 0
	}
	targets := make(map[wordnet.SynsetID]bool)
	for _, s := range c.db.SynsetsOf(b) {
		targets[s] = true
	}
	if len(targets) == 0 || len(c.db.SynsetsOf(a)) == 0 {
		return c.MaxDist
	}
	// A shared synset means the terms are synonyms: distance 0.
	for _, s := range c.db.SynsetsOf(a) {
		if targets[s] {
			return 0
		}
	}
	return c.search(c.db.SynsetsOf(a), targets)
}

// search runs a capped Dijkstra from the source synsets until the nearest
// target is settled or the radius is exhausted.
func (c *Calculator) search(sources []wordnet.SynsetID, targets map[wordnet.SynsetID]bool) float64 {
	defer c.reset()
	var q pq
	for _, s := range sources {
		c.dist[s] = 0
		c.touched = append(c.touched, s)
		heap.Push(&q, pqItem{s, 0})
	}
	best := c.MaxDist
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.d > c.dist[it.s] {
			continue // stale entry
		}
		if it.d >= best {
			break
		}
		if targets[it.s] {
			// Dijkstra settles nodes in increasing distance, so the first
			// target popped is the closest one.
			best = it.d
			break
		}
		for _, r := range c.db.Synset(it.s).Relations {
			nd := it.d + c.w[r.Type]
			if nd < c.dist[r.To] && nd < best {
				if math.IsInf(c.dist[r.To], 1) {
					c.touched = append(c.touched, r.To)
				}
				c.dist[r.To] = nd
				heap.Push(&q, pqItem{r.To, nd})
			}
		}
	}
	return best
}

func (c *Calculator) reset() {
	for _, s := range c.touched {
		c.dist[s] = math.Inf(1)
	}
	c.touched = c.touched[:0]
}
