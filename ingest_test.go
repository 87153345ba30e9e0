package embellish

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// ingestFileSHA256 is the digest of ingestEngineFile's bytes as written
// by the single-goroutine, map-per-term ingest that parallel analysis
// replaced. Any change to tokenizing, posting collection, impact order or
// the engine format moves it.
const ingestFileSHA256 = "6f278a991c7d667e80f311079da3bbc5ac484ba35660ded8e3b1664d9d8220ed"

// ingestCorpus is a fixed synthetic corpus over the lexicon's lemmas,
// multi-word ones included, written with the case, punctuation and
// non-ASCII text that take Tokenize off its fast path.
func ingestCorpus(lex *Lexicon, n int) []Document {
	var lemmas []string
	for _, t := range lex.db.AllTerms() {
		lemmas = append(lemmas, lex.db.Lemma(t))
	}
	extras := []string{"The", "of", "İstanbul", "ǅemal", "naïve", "١٢٣", "\u212Aelvin", "x\xffy"}
	seps := []string{" ", " ", " ", ", ", ". ", " -- ", "' ", "\n"}
	rng := rand.New(rand.NewSource(29))
	docs := make([]Document, n)
	for i := range docs {
		var b strings.Builder
		for j := 10 + rng.Intn(30); j > 0; j-- {
			w := lemmas[rng.Intn(len(lemmas))]
			switch rng.Intn(10) {
			case 0:
				w = strings.ToUpper(w)
			case 1:
				w = strings.ToUpper(w[:1]) + w[1:]
			case 2:
				w = extras[rng.Intn(len(extras))]
			}
			b.WriteString(w)
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		docs[i] = Document{ID: i, Text: b.String()}
	}
	return docs
}

// ingestEngineFile builds an engine on ingestCorpus at GOMAXPROCS procs,
// adds two batches — the second spanning two analysis chunks — deletes
// a few documents, and returns the saved engine file.
func ingestEngineFile(t *testing.T, procs int) []byte {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	lex := SyntheticLexicon(600, 29)
	docs := ingestCorpus(lex, 1900)
	opts := DefaultOptions()
	opts.KeyBits = 256
	opts.StoreDocuments = true
	opts.BlockSize = 256
	e, err := NewEngine(lex, docs[:1100], opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]Document{docs[1100:1160], docs[1160:]} {
		if err := e.AddDocuments(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DeleteDocuments([]int{3, 511, 512, 1100, 1899}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineFileIdenticalAtAnyWidth: analysis runs on GOMAXPROCS
// workers, and the engine file it leads to is the same bytes at one
// processor and at four, and the same bytes the serial ingest wrote.
func TestEngineFileIdenticalAtAnyWidth(t *testing.T) {
	one := ingestEngineFile(t, 1)
	four := ingestEngineFile(t, 4)
	if !bytes.Equal(one, four) {
		t.Fatalf("engine file differs between GOMAXPROCS 1 (%d B) and 4 (%d B)", len(one), len(four))
	}
	sum := sha256.Sum256(one)
	if got := hex.EncodeToString(sum[:]); got != ingestFileSHA256 {
		t.Fatalf("engine file sha256 %s, want %s", got, ingestFileSHA256)
	}
}
