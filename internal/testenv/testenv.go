// Package testenv assembles small end-to-end worlds (lexicon → corpus →
// index → bucket organization) shared by the integration tests of the
// core, pirsearch and privacy packages, plus deterministic randomness
// helpers for reproducible cryptographic keys in tests.
package testenv

import (
	"embellish/internal/bucket"
	"embellish/internal/corpus"
	"embellish/internal/detrand"
	"embellish/internal/index"
	"embellish/internal/sequence"
	"embellish/internal/wngen"
	"embellish/internal/wordnet"
)

// DetRand is a deterministic byte stream for reproducible key generation
// in tests. NOT cryptographically secure.
type DetRand = detrand.Reader

// NewDetRand seeds a deterministic stream.
func NewDetRand(seed string) *DetRand { return detrand.New(seed) }

// World is a fully wired test universe.
type World struct {
	DB    *wordnet.Database
	Corp  *corpus.Corpus
	Index *index.Index
	Org   *bucket.Organization
	// Searchable is the dictionary ∩ corpus vocabulary, the terms over
	// which the organization is built (Section 5.2's workflow).
	Searchable []wordnet.TermID
}

// Options configures BuildWorld.
type Options struct {
	Synsets int
	NumDocs int
	BktSz   int
	SegSz   int // 0 selects the maximum N/BktSz
	Seed    int64
	MeanLen int
	UseMini bool // use the hand-curated mini lexicon instead of wngen
}

// BuildWorld constructs a world: generate (or reuse) a lexicon, sequence
// it, synthesize a corpus, index it, intersect the dictionary, and bucket
// the searchable terms.
func BuildWorld(o Options) *World {
	if o.Synsets == 0 {
		o.Synsets = 1500
	}
	if o.NumDocs == 0 {
		o.NumDocs = 150
	}
	if o.BktSz == 0 {
		o.BktSz = 4
	}
	if o.MeanLen == 0 {
		o.MeanLen = 60
	}
	var db *wordnet.Database
	if o.UseMini {
		db = wordnet.MiniLexicon()
	} else {
		db = wngen.Generate(wngen.ScaledConfig(o.Synsets, o.Seed+1))
	}

	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = o.NumDocs
	ccfg.MeanDocLen = o.MeanLen
	ccfg.Seed = o.Seed + 2
	corp := corpus.Generate(db, ccfg)

	b := index.NewBuilder()
	for _, d := range corp.Docs {
		b.Add(index.DocID(d.ID), d.Tokens)
	}
	ix := b.Build()

	// Intersect: searchable terms are lexicon terms present in the index
	// dictionary, ordered by the Algorithm 1 sequence.
	seq := sequence.Run(db)
	searchable := make([]wordnet.TermID, 0, len(seq))
	for _, t := range seq {
		if _, ok := ix.LookupTerm(db.Lemma(t)); ok {
			searchable = append(searchable, t)
		}
	}
	segSz := o.SegSz
	if segSz == 0 {
		segSz = len(searchable) / o.BktSz
	}
	org, err := bucket.Generate(searchable, db.Specificity, o.BktSz, segSz)
	if err != nil {
		panic("testenv: bucket generation failed: " + err.Error())
	}
	return &World{DB: db, Corp: corp, Index: ix, Org: org, Searchable: searchable}
}
