// Extendlexicon: the Appendix C extension. WordNet's manual relations
// are accurate but not comprehensive — domain-specific associations
// (say, osteosarcoma↔chemotherapy in a medical corpus) are missing, so
// the terms land far apart in the sequence and never cover each other.
// This example extracts term associations from a corpus by pointwise
// mutual information, rates them on the same numeric strength scale as
// the WordNet relation types, and re-runs the weighted variant of
// Algorithm 1 so corpus-related terms cluster in the sequence.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"embellish/internal/relex"
	"embellish/internal/sequence"
	"embellish/internal/wordnet"
)

func main() {
	db := wordnet.MiniLexicon()

	// The mini lexicon deliberately links 'osteosarcoma' to
	// 'chemotherapy' only through a weak domain edge, which Algorithm 1
	// skips — exactly the "not comprehensive enough" case.
	baseSeq := sequence.Run(db)
	fmt.Println("=== WordNet relations only ===")
	report(db, baseSeq, "osteosarcoma", "chemotherapy")

	// A domain corpus where the two co-occur constantly.
	docs := medicalCorpus()
	rels, err := relex.Extract(docs, func(s string) (wordnet.TermID, bool) {
		return db.Lookup(s)
	}, relex.Config{Window: 8, MinCount: 5, MaxPairs: 50})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nextracted %d corpus relations; strongest:\n", len(rels))
	for i, r := range rels {
		if i == 5 {
			break
		}
		fmt.Printf("  %q — %q  (PMI %.2f, %d co-occurrences)\n",
			db.Lemma(r.A), db.Lemma(r.B), r.PMI, r.Cooccurrences)
	}

	// Merge onto the Appendix C strength scale: extracted relations are
	// rated between holonym (2.5) and antonym (5) strength by PMI rank,
	// and the weighted Algorithm 1 iterates strongest-first down to a
	// minimum threshold of 2 (dropping only domain links, as before).
	strengths := relex.DefaultStrengths()
	strengths.AddExtracted(rels, 2.5, 5)
	weightedSeq := sequence.Flatten(sequence.VocabWeighted(db, relex.NeighborFunc(db, strengths, 2)))

	fmt.Println("\n=== WordNet + corpus relations (Appendix C) ===")
	report(db, weightedSeq, "osteosarcoma", "chemotherapy")
	fmt.Println(`
With the corpus relation merged in, the emerging association pulls the
terms together in the sequence, so bucket formation can give them (and
their neighborhoods) mutually consistent covers.`)
}

func report(db *wordnet.Database, seq []wordnet.TermID, a, b string) {
	pos := map[wordnet.TermID]int{}
	for i, t := range seq {
		pos[t] = i
	}
	ta, ok1 := db.Lookup(a)
	tb, ok2 := db.Lookup(b)
	if !ok1 || !ok2 {
		log.Fatalf("lexicon missing %q or %q", a, b)
	}
	d := pos[ta] - pos[tb]
	if d < 0 {
		d = -d
	}
	fmt.Printf("sequence distance %q to %q: %d positions (dictionary size %d)\n",
		a, b, d, len(seq))
}

// medicalCorpus fabricates oncology abstracts in which osteosarcoma and
// chemotherapy co-occur tightly, against background noise.
func medicalCorpus() [][]string {
	med := []string{"osteosarcoma", "chemotherapy", "radiation", "therapy", "oncologist", "bone", "tumor"}
	noise := []string{"water", "yeast", "pigeon", "huntsville", "wine", "diver", "chestnut", "whale"}
	rng := rand.New(rand.NewSource(13))
	var docs [][]string
	for i := 0; i < 60; i++ {
		var words []string
		for j := 0; j < 12; j++ {
			words = append(words, "osteosarcoma", "chemotherapy", med[rng.Intn(len(med))])
		}
		for j := 0; j < 10; j++ {
			words = append(words, noise[rng.Intn(len(noise))])
		}
		docs = append(docs, words)
	}
	// Noise-only documents keep the background probabilities honest.
	for i := 0; i < 40; i++ {
		var words []string
		for j := 0; j < 30; j++ {
			words = append(words, noise[rng.Intn(len(noise))])
		}
		docs = append(docs, words)
	}
	return docs
}
