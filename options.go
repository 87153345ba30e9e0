package embellish

import (
	"fmt"

	"embellish/internal/docstore"
	"embellish/internal/index"
	"embellish/internal/pir"
)

// Options configures engine construction.
type Options struct {
	// BucketSize (the paper's BktSz) is the number of terms per bucket:
	// each genuine search term travels with BucketSize-1 decoys. Larger
	// buckets widen the anonymity set at the cost of processing more
	// inverted lists per query. Must satisfy 2 <= BucketSize <= N/2 for
	// a searchable dictionary of N terms.
	BucketSize int
	// SegmentSize (the paper's SegSz) controls how far apart terms may
	// be re-ordered to equalize specificity within buckets; 0 selects
	// the maximum N/BucketSize, which the paper's Figure 5 experiments
	// recommend (larger segments improve the specificity match without
	// hurting the semantic-distance match).
	SegmentSize int
	// KeyBits is the Benaloh modulus size for client keys. 512 and up
	// for real deployments; tests use smaller values for speed.
	KeyBits int
	// ScoreSpace is the exponent k of the Benaloh plaintext space
	// r = 3^k. Relevance scores accumulate modulo r, so r must exceed
	// the maximum possible quantized score of a document; a decrypted
	// score is an int64, so k is at most 39.
	ScoreSpace int
	// QuantLevels is the integer quantization resolution for posting
	// impacts (footnote 1 of the paper requires integer impacts).
	QuantLevels int
	// Stopwords enables stopword removal in the analyzer (the paper's
	// configuration; stemming is not applied).
	Stopwords bool
	// Scoring selects the similarity function. The private retrieval
	// scheme works with any impact-based similarity model (Appendix B of
	// the paper names Okapi explicitly); Cosine is Equation 3.
	Scoring Scoring
	// Parallelism is ignored: the engine ranks on GOMAXPROCS workers.
	//
	// Deprecated: ignored; the schedule is derived from GOMAXPROCS.
	Parallelism int
	// Shards is ignored: the engine partitions its index into GOMAXPROCS
	// document shards.
	//
	// Deprecated: ignored; the schedule is derived from GOMAXPROCS.
	Shards int
	// PrecomputeWindow is ignored: the engine builds its fixed-base
	// tables at the default window.
	//
	// Deprecated: ignored; the schedule is derived from GOMAXPROCS.
	PrecomputeWindow int
	// StoreDocuments opts the engine in to storing the document BYTES
	// (not just the inverted index) in a PIR block store, enabling the
	// paper's second privacy stage: fetching the winning documents
	// after a private ranking without revealing which ones won
	// (Client.FetchDocuments / FetchDocumentsRemote). The store is part
	// of the persisted engine file (format version 3). Off by default —
	// it roughly doubles the engine's memory footprint.
	StoreDocuments bool
	// BlockSize is the PIR block size in bytes for the document store:
	// documents are laid out into fixed-size blocks, and a document of
	// b blocks lives in the class view of height h = min(b, H), H =
	// docstore.Heights(BlockSize), filling ceil(b/h) columns of h
	// blocks. One flat PIR protocol execution fetches one column of its
	// document's class view, at ~8·h·BlockSize modular multiplications
	// per column of that view; a recursive one fetches one block and
	// scans the whole block array. Smaller blocks make finer classes
	// (and a finer length leak), larger ones fewer, taller classes.
	// 0 selects docstore.DefaultBlockSize (512). Ignored unless
	// StoreDocuments is set; persisted with the store.
	BlockSize int
	// RetrievalKeyBits sizes the Kushilevitz-Ostrovsky PIR modulus used
	// by document fetches. 0 inherits KeyBits. Like KeyBits it is a
	// client-side security knob: tests and benchmarks use small values
	// for speed, real deployments want >= 1024.
	RetrievalKeyBits int
	// PIRWorkers is ignored: PIR fetches are served on GOMAXPROCS
	// column-partitioned workers.
	//
	// Deprecated: ignored; the schedule is derived from GOMAXPROCS.
	PIRWorkers int
	// Durability opts the engine in to crash-safe persistence: every
	// AddDocuments/DeleteDocuments batch is journaled to a write-ahead
	// log in Durability.Dir before it is applied, and checkpoints
	// periodically fold the log into a full snapshot. An empty Dir (the
	// zero value) keeps the engine in-memory; see the Durability type,
	// OpenDurable and docs/DURABILITY.md. Like MaxSegments, the
	// policy itself is runtime-only — checkpoint files never embed it.
	Durability Durability
	// MaxSegments bounds the live segment set: when AddDocuments leaves
	// more than MaxSegments segments, a background merge folds the
	// smallest ones together, rewriting deleted postings away. 0 selects
	// DefaultMaxSegments, -1 disables automatic merging (Engine.Compact
	// remains available), and values >= 1 pin the bound. It is
	// runtime-only and not persisted.
	MaxSegments int
}

// DefaultMaxSegments is the live-index segment bound applied when
// Options.MaxSegments is zero.
const DefaultMaxSegments = index.DefaultMaxSegments

// maxScoreSpace is the widest plaintext space whose scores an int64
// holds: 3^39 < 2^63 < 3^40.
const maxScoreSpace = 39

// Scoring selects the similarity function used to precompute posting
// impacts.
type Scoring uint8

const (
	// Cosine is the paper's Equation 3 scoring (the default).
	Cosine Scoring = iota
	// BM25 is Okapi BM25 with the standard parameters (k1=1.2, b=0.75).
	BM25
)

// DefaultOptions mirrors the paper's defaults: BktSz=8 (the Figure 8
// setting), maximal SegSz, and 512-bit keys.
func DefaultOptions() Options {
	return Options{
		BucketSize:  8,
		SegmentSize: 0,
		KeyBits:     512,
		ScoreSpace:  12,
		QuantLevels: 255,
		Stopwords:   true,
	}
}

// validate rejects unusable combinations early, with actionable errors.
func (o Options) validate() error {
	if o.BucketSize < 2 {
		return fmt.Errorf("embellish: BucketSize %d too small; a bucket needs at least one decoy slot", o.BucketSize)
	}
	if o.KeyBits < 64 {
		return fmt.Errorf("embellish: KeyBits %d too small for Benaloh key generation", o.KeyBits)
	}
	if o.ScoreSpace < 1 || o.ScoreSpace > maxScoreSpace {
		return fmt.Errorf("embellish: ScoreSpace %d out of range [1, %d]; a score modulo 3^k must fit an int64", o.ScoreSpace, maxScoreSpace)
	}
	if o.QuantLevels < 1 || o.QuantLevels > 1<<20 {
		return fmt.Errorf("embellish: QuantLevels %d out of range", o.QuantLevels)
	}
	if o.Scoring > BM25 {
		return fmt.Errorf("embellish: unknown scoring %d", o.Scoring)
	}
	if o.MaxSegments < -1 || o.MaxSegments > 1<<12 {
		return fmt.Errorf("embellish: MaxSegments %d out of range [-1, %d]; -1 disables merging, 0 selects the default", o.MaxSegments, 1<<12)
	}
	if o.BlockSize < 0 || o.BlockSize > docstore.MaxBlockSize {
		return fmt.Errorf("embellish: BlockSize %d out of range [0, %d]", o.BlockSize, docstore.MaxBlockSize)
	}
	if o.RetrievalKeyBits != 0 {
		if err := pir.CheckKeyBits(o.RetrievalKeyBits); err != nil {
			return fmt.Errorf("embellish: RetrievalKeyBits: %w", err)
		}
	}
	if err := o.Durability.validate(); err != nil {
		return err
	}
	return nil
}

// retrievalKeyBits resolves the PIR key size (0 inherits KeyBits).
func (o Options) retrievalKeyBits() int {
	if o.RetrievalKeyBits > 0 {
		return o.RetrievalKeyBits
	}
	return o.KeyBits
}

// maxSegments resolves the MaxSegments knob for internal/index
// (<= 0 = automatic merging disabled).
func (o Options) maxSegments() int {
	switch {
	case o.MaxSegments == 0:
		return DefaultMaxSegments
	case o.MaxSegments < 0:
		return 0
	}
	return o.MaxSegments
}
