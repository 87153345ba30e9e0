package embellish

import (
	"fmt"

	"embellish/internal/benaloh"
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
	// the maximum possible quantized score of a document.
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
	// Parallelism sets the worker count for server-side score
	// accumulation: 0 keeps single-threaded execution (one worker
	// walking the shards serially), -1 selects GOMAXPROCS, and any
	// positive value pins the worker count; the pool never exceeds the
	// shard count. The homomorphic accumulation commutes, so responses
	// are identical.
	Parallelism int
	// Shards partitions the inverted index by document for the one
	// ranking plan's worker pool: shard s owns the postings of documents
	// d with d mod n == s, so per-shard candidate sets are disjoint and
	// merge without homomorphic additions. 0 and 1 are one shard, which
	// walks the inverted lists as they are; -1 selects GOMAXPROCS
	// shards, and any larger value pins the shard count. More than one
	// shard copies the postings once at configuration time into a
	// sharded view (roughly doubling index memory) in exchange for
	// contiguous per-shard scans. Sharding never changes a response —
	// only which goroutine computes it; set Parallelism to size the
	// worker pool.
	Shards int
	// PrecomputeWindow enables fixed-base windowed exponentiation for
	// the per-term flag powers E(u)^p: the server builds one table of
	// 2^w-entry windows per query term and answers each posting's power
	// with table lookups plus at most one multiplication, instead of a
	// square-and-multiply exponentiation per posting. 0 disables the
	// tables (the same fold, no table), -1 selects the default window
	// (4 bits), and 1..8 pin the window width. Ciphertexts are identical
	// either way.
	PrecomputeWindow int
	// MaxConns caps simultaneous connections in Engine.Serve and
	// NetServers built with a zero ServeConfig.MaxConns. 0 selects
	// DefaultMaxConns; -1 disables the cap (any other negative value is
	// rejected).
	MaxConns int
	// StoreDocuments opts the engine in to storing the document BYTES
	// (not just the inverted index) in a PIR block store, enabling the
	// paper's second privacy stage: fetching the winning documents
	// after a private ranking without revealing which ones won
	// (Client.FetchDocuments / FetchDocumentsRemote). The store is part
	// of the persisted engine file (format version 3). Off by default —
	// it roughly doubles the engine's memory footprint.
	StoreDocuments bool
	// BlockSize is the PIR block size in bytes for the document store:
	// documents are laid out into fixed-size blocks and one PIR
	// protocol execution fetches one block. Smaller blocks shrink the
	// per-execution answer but cost more executions per document; the
	// server-side work is ~8·BlockSize·NumBlocks modular
	// multiplications either way. 0 selects docstore.DefaultBlockSize
	// (512). Ignored unless StoreDocuments is set; persisted with the
	// store.
	BlockSize int
	// RetrievalKeyBits sizes the Kushilevitz-Ostrovsky PIR modulus used
	// by document fetches. 0 inherits KeyBits. Like KeyBits it is a
	// client-side security knob: tests and benchmarks use small values
	// for speed, real deployments want >= 1024.
	RetrievalKeyBits int
	// PIRWorkers sets the worker count for serving PIR document
	// fetches (the Kushilevitz-Ostrovsky database scans, every batch of
	// block queries answered in one pass by the internal/pir executor):
	// 0 and 1 scan on one goroutine, -1 selects a GOMAXPROCS-wide
	// column-partitioned worker pool, any other positive value pins the
	// worker count. Answers are byte-identical at every count — the
	// knob tunes only how fast the server multiplies. Like Parallelism
	// it is runtime-only and not persisted; Engine.ConfigurePIRWorkers
	// retunes it safely on a live engine, and NetServers can override
	// it per server with ServeConfig.PIRWorkers.
	PIRWorkers int
	// PIRRecursive selects the recursive (two-level) Kushilevitz-
	// Ostrovsky layout for document fetches: the block store is treated
	// as a √n×√n grid, the client uploads two ~√n-element selection
	// vectors instead of one element per block, and the answer carries
	// the recursively-encrypted target block. Uploads shrink from n to
	// at most 3·⌈√n⌉ group elements per fetched block; answers grow by
	// a factor of |modulus| bytes (one ciphertext per byte of the flat
	// answer), and decoded documents are byte-identical to the flat
	// path. 0 (the default) and 1 enable the recursive serving path and
	// let local fetches use it; -1 disables
	// it — the server refuses recursive frames (clients fall back to
	// flat queries) and local fetches stay flat. Runtime-only and not
	// persisted; Engine.ConfigurePIRRecursive retunes a live engine,
	// and NetServers can override it per server with
	// ServeConfig.PIRRecursive. Whether a CLIENT sends recursive
	// queries is its own knob (Client.SetFetchRecursive).
	PIRRecursive int
	// Durability opts the engine in to crash-safe persistence: every
	// AddDocuments/DeleteDocuments batch is journaled to a write-ahead
	// log in Durability.Dir before it is applied, and checkpoints
	// periodically fold the log into a full snapshot. An empty Dir (the
	// zero value) keeps the engine in-memory; see the Durability type,
	// OpenDurable and docs/DURABILITY.md. Like the execution knobs, the
	// policy itself is runtime-only — checkpoint files never embed it.
	Durability Durability
	// MaxSegments bounds the live segment set: when AddDocuments leaves
	// more than MaxSegments segments, a background merge folds the
	// smallest ones together, rewriting deleted postings away. 0 selects
	// DefaultMaxSegments, -1 disables automatic merging (Engine.Compact
	// remains available), and values >= 1 pin the bound. Like the
	// execution knobs this is runtime-only and not persisted.
	MaxSegments int
}

// DefaultMaxSegments is the live-index segment bound applied when
// Options.MaxSegments is zero.
const DefaultMaxSegments = index.DefaultMaxSegments

// maxPIRWorkers bounds the PIR serving worker count — shared by
// Options validation and the NetServer's ServeConfig clamp so the two
// can never diverge.
const maxPIRWorkers = 1 << 12

// validatePIRWorkers is the one range check for the PIRWorkers
// encoding, shared by Options.validate and Engine.ConfigurePIRWorkers.
func validatePIRWorkers(n int) error {
	if n < -1 || n > maxPIRWorkers {
		return fmt.Errorf("embellish: PIRWorkers %d out of range [-1, %d]; -1 selects GOMAXPROCS, 0 and 1 one goroutine", n, maxPIRWorkers)
	}
	return nil
}

// validatePIRRecursive is the range check for the PIRRecursive
// encoding, shared by Options.validate and
// Engine.ConfigurePIRRecursive.
func validatePIRRecursive(n int) error {
	if n < -1 || n > 1 {
		return fmt.Errorf("embellish: PIRRecursive %d out of range [-1, 1]; -1 refuses recursive fetches, 0/1 serve them", n)
	}
	return nil
}

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
	if o.ScoreSpace < 1 {
		return fmt.Errorf("embellish: ScoreSpace must be at least 1, got %d", o.ScoreSpace)
	}
	if o.QuantLevels < 1 || o.QuantLevels > 1<<20 {
		return fmt.Errorf("embellish: QuantLevels %d out of range", o.QuantLevels)
	}
	if o.Scoring > BM25 {
		return fmt.Errorf("embellish: unknown scoring %d", o.Scoring)
	}
	if o.Shards < -1 || o.Shards > 1<<12 {
		return fmt.Errorf("embellish: Shards %d out of range [-1, %d]", o.Shards, 1<<12)
	}
	if o.PrecomputeWindow < -1 || o.PrecomputeWindow > 8 {
		return fmt.Errorf("embellish: PrecomputeWindow %d out of range [-1, 8]", o.PrecomputeWindow)
	}
	if o.Parallelism < -1 || o.Parallelism > 1<<12 {
		return fmt.Errorf("embellish: Parallelism %d out of range [-1, %d]; -1 selects GOMAXPROCS, 0 single-threaded", o.Parallelism, 1<<12)
	}
	if o.MaxConns < -1 {
		return fmt.Errorf("embellish: MaxConns %d out of range; -1 disables the cap, 0 selects the default", o.MaxConns)
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
	if err := validatePIRWorkers(o.PIRWorkers); err != nil {
		return err
	}
	if err := validatePIRRecursive(o.PIRRecursive); err != nil {
		return err
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

// precomputeWindow resolves the PrecomputeWindow knob to a radix
// exponent for internal/benaloh (0 = disabled).
func (o Options) precomputeWindow() uint {
	switch {
	case o.PrecomputeWindow < 0:
		return benaloh.DefaultWindow
	case o.PrecomputeWindow > 0:
		return uint(o.PrecomputeWindow)
	}
	return 0
}
