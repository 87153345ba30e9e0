package embellish

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"embellish/internal/benaloh"
	"embellish/internal/bucket"
	"embellish/internal/core"
	"embellish/internal/docstore"
	"embellish/internal/index"
	"embellish/internal/pir"
	"embellish/internal/sequence"
	"embellish/internal/textproc"
	"embellish/internal/wal"
	"embellish/internal/wire"
	"embellish/internal/wordnet"
)

// Document is one indexable text.
type Document struct {
	// ID is the document's corpus id. NewEngine requires the dense
	// sequence 0,1,2,..., and AddDocuments continues it from NextDocID.
	ID int
	// Text is the raw document body: what gets analyzed, indexed and —
	// on storing engines — kept for private retrieval.
	Text string
}

// Engine is the search-engine side of the system: the segmented live
// index, the bucket organization (public knowledge), and the Algorithm
// 4 score accumulator. An Engine is safe for concurrent use: searches
// evaluate against an atomically loaded index snapshot and are never
// blocked, while AddDocuments / DeleteDocuments serialize on a write
// lock and publish new snapshots. The searchable dictionary and the
// bucket organization are pinned at construction — the protocol
// requires every client to know them exactly, so extending them means
// rebuilding and redistributing the engine file.
type Engine struct {
	opts       Options
	lex        *Lexicon
	analyzer   *textproc.Analyzer
	live       *index.Live
	org        *bucket.Organization
	server     *core.Server
	searchable []wordnet.TermID
	// store holds the document bytes laid out into PIR blocks for
	// private retrieval (Options.StoreDocuments); nil when the engine
	// only ranks.
	store *docstore.Store
	// updateMu serializes the write path (AddDocuments, DeleteDocuments)
	// so document-id assignment stays dense; readers never take it.
	updateMu sync.Mutex
	// wal is the crash-safe journaling state (Options.Durability /
	// EnableDurability); nil on in-memory engines. Its non-atomic
	// fields are guarded by updateMu.
	wal *walState
	// lexsync caches the serialized lexicon-sync payload (organization
	// and synset tables are pinned at construction, so it never
	// changes); see lexsync.go.
	lexsync lexsyncState
}

// NewEngine indexes the documents and builds the bucket organization
// over the searchable dictionary (lexicon terms that occur in the
// corpus), following the Section 5.2 workflow: analyze, index, intersect
// with the lexicon, sequence with Algorithm 1, bucket with Algorithm 2.
func NewEngine(lex *Lexicon, docs []Document, opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if lex == nil {
		return nil, errors.New("embellish: nil lexicon")
	}
	if len(docs) == 0 {
		return nil, errors.New("embellish: no documents")
	}
	// The index numbers documents 0,1,2,... in the order it is handed
	// them, and AddDocuments continues that sequence.
	for i, d := range docs {
		if d.ID != i {
			return nil, fmt.Errorf("embellish: document ids must be dense from 0: got %d at position %d", d.ID, i)
		}
	}
	lex.freeze()

	e := &Engine{opts: opts, lex: lex}
	e.analyzer = buildAnalyzer(lex.db, opts.Stopwords)

	b := index.NewBuilder()
	b.QuantLevels = int32(opts.QuantLevels)
	if opts.Scoring == BM25 {
		b.Scoring = index.ScoringBM25
	}
	if opts.StoreDocuments {
		store, err := docstore.New(opts.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("embellish: %w", err)
		}
		// The store takes the per-document size cap AddDocuments enforces:
		// the wire params codec rejects larger extents, so an oversized
		// document here would break every remote fetch later.
		texts := make([][]byte, len(docs))
		for i, d := range docs {
			if len(d.Text) > maxStoredDocBytes {
				return nil, fmt.Errorf("embellish: document %d text of %d bytes exceeds the storable limit %d", d.ID, len(d.Text), maxStoredDocBytes)
			}
			texts[i] = []byte(d.Text)
		}
		if err := store.AddBatch(0, texts); err != nil {
			return nil, fmt.Errorf("embellish: %w", err)
		}
		e.store = store
	}
	e.indexDocuments(b, docs)
	baseIx := b.Build()
	e.live = index.NewLive(baseIx)
	e.live.SetMaxSegments(opts.maxSegments())

	// Searchable dictionary = lexicon ∩ index vocabulary, in Algorithm 1
	// sequence order.
	for _, t := range sequence.Run(lex.db) {
		if _, ok := baseIx.LookupTerm(lex.db.Lemma(t)); ok {
			e.searchable = append(e.searchable, t)
		}
	}
	if len(e.searchable) < 2*opts.BucketSize {
		return nil, fmt.Errorf("embellish: only %d searchable terms for BucketSize %d; index more documents or shrink buckets",
			len(e.searchable), opts.BucketSize)
	}

	segSz := opts.SegmentSize
	if segSz <= 0 {
		segSz = len(e.searchable) / opts.BucketSize
	}
	org, err := bucket.Generate(e.searchable, lex.db.Specificity, opts.BucketSize, segSz)
	if err != nil {
		return nil, fmt.Errorf("embellish: bucket formation: %w", err)
	}
	e.org = org
	e.applyExecution()
	if opts.Durability.Dir != "" {
		// The freshly built corpus becomes checkpoint 0; every later
		// update is journaled. An engine that fails here is unusable by
		// contract — the caller asked for durability.
		if err := e.EnableDurability(opts.Durability); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildAnalyzer constructs the query/document analyzer for a lexicon:
// stopword removal per the paper (when enabled), no stemming,
// multi-word lemma fusion so dictionary entries like 'abu sayyaf'
// survive tokenization. Shared between NewEngine and remotely synced
// client worlds — both sides must analyze identically or genuine term
// sets diverge.
func buildAnalyzer(db *wordnet.Database, stopwords bool) *textproc.Analyzer {
	a := textproc.NewAnalyzer()
	if !stopwords {
		a.Stopwords = nil
	}
	lemmas := make([]string, 0, db.NumTerms())
	for _, t := range db.AllTerms() {
		lemmas = append(lemmas, db.Lemma(t))
	}
	a.Matcher = textproc.NewDictionaryMatcher(lemmas)
	return a
}

// analyzeChunk is how many documents are analyzed before the builder
// takes their tokens. Only one chunk's token slices are alive at a time,
// so ingest memory does not grow with the batch: the paper's 172,961
// documents would hold ~0.5 GB of tokens at once.
const analyzeChunk = 512

// indexDocuments adds docs to b as its documents 0,1,2,..., analyzing
// them on GOMAXPROCS workers a chunk at a time. The builder takes each
// chunk in id order, so the index is the same at any worker count.
func (e *Engine) indexDocuments(b *index.Builder, docs []Document) {
	tokens := make([][]string, min(analyzeChunk, len(docs)))
	for lo := 0; lo < len(docs); lo += analyzeChunk {
		chunk := docs[lo:min(lo+analyzeChunk, len(docs))]
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := min(runtime.GOMAXPROCS(0), len(chunk)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(chunk) {
						return
					}
					tokens[i] = e.analyzer.Analyze(chunk[i].Text)
				}
			}()
		}
		wg.Wait()
		for i := range chunk {
			b.Add(index.DocID(lo+i), tokens[i])
			tokens[i] = nil
		}
	}
}

// clientWorld is the client-side slice of an engine: everything needed
// to analyze, embellish and key queries, WITHOUT the index or stores.
// An in-process client borrows its engine's world; a remote client
// builds one from a TypeLexicon sync payload (see SyncLexicon) and has
// no engine at all.
type clientWorld struct {
	lex      *Lexicon
	analyzer *textproc.Analyzer
	org      *bucket.Organization
	// keyBits/scoreSpace pin Benaloh key generation to the engine's
	// accumulator; fetchBits is the default PIR modulus size.
	keyBits    int
	scoreSpace int
	fetchBits  int
}

// clientView assembles the engine's client world.
func (e *Engine) clientView() *clientWorld {
	return &clientWorld{
		lex:        e.lex,
		analyzer:   e.analyzer,
		org:        e.org,
		keyBits:    e.opts.KeyBits,
		scoreSpace: e.opts.ScoreSpace,
		fetchBits:  e.opts.retrievalKeyBits(),
	}
}

// ErrRemoteOnly reports a local-execution method called on a client
// built from a lexicon sync instead of an engine — such clients can
// only talk to servers (SearchRemote, FetchDocumentsRemote, ...).
var ErrRemoteOnly = errors.New("embellish: client has no local engine (built from a lexicon sync); use the Remote methods")

// NumDocs reports the number of live (indexed and not deleted)
// documents.
func (e *Engine) NumDocs() int { return e.live.Snapshot().LiveDocs() }

// NumSegments reports the current segment count of the live index.
func (e *Engine) NumSegments() int { return e.live.NumSegments() }

// NextDocID returns the id AddDocuments will assign to the next
// document. Ids are dense over everything ever added; deleted ids are
// never reused, so after deletions NextDocID exceeds NumDocs.
func (e *Engine) NextDocID() int { return int(e.live.Snapshot().NextDoc) }

// NumSearchableTerms reports the size of the searchable dictionary.
func (e *Engine) NumSearchableTerms() int { return len(e.searchable) }

// NumBuckets reports the number of decoy buckets.
func (e *Engine) NumBuckets() int { return e.org.NumBuckets() }

// SearchableLemmas returns the lemmas of the searchable dictionary —
// the terms a query may contain and still be both protected and
// matched against the corpus. The slice is freshly allocated.
func (e *Engine) SearchableLemmas() []string {
	out := make([]string, len(e.searchable))
	for i, t := range e.searchable {
		out[i] = e.lex.db.Lemma(t)
	}
	return out
}

// Bucket returns the lemmas co-bucketed with the given term — the decoys
// that accompany it in every embellished query — or false when the term
// is not in the searchable dictionary. Inspecting buckets is how
// deployments finetune the organization for sensitive applications
// (Section 3's closing remark).
func (e *Engine) Bucket(lemma string) ([]string, bool) {
	t, ok := e.lex.db.Lookup(lemma)
	if !ok {
		return nil, false
	}
	b, ok := e.org.BucketOf(t)
	if !ok {
		return nil, false
	}
	terms := e.org.Bucket(b)
	out := make([]string, len(terms))
	for i, tm := range terms {
		out[i] = e.lex.db.Lemma(tm)
	}
	return out, true
}

// Query is an embellished query ready for Engine.Process. The engine
// sees only the term list and the attached ciphertext flags.
type Query struct {
	inner *core.Query
	// termNames is filled at embellishment time so examples can print
	// exactly what the adversary observes.
	termNames []string
	// Skipped lists query words that are not in the searchable
	// dictionary and therefore could not be protected or searched.
	Skipped []string
}

// Terms returns the embellished term list — genuine terms and decoys,
// randomly permuted — exactly what the engine observes.
func (q *Query) Terms() []string { return q.termNames }

// Bytes reports the network size of the query.
func (q *Query) Bytes() int { return q.inner.Bytes() }

// WireFrame returns the query as one encoded wire frame — the exact
// bytes Client.SearchRemote writes. Embellishment (the client-side
// crypto) happens once; the frame is then reusable across connections
// and requests, which is what an open-loop load generator needs to
// keep client cost out of the measured server latency.
func (q *Query) WireFrame() ([]byte, error) {
	var buf bytes.Buffer
	if err := wire.WriteQuery(&buf, q.inner); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Response carries encrypted candidate scores back to the client.
type Response struct {
	inner *core.Response
	// Stats describes the server-side work for this query.
	Stats ProcessStats
}

// Bytes reports the network size of the response.
func (r *Response) Bytes() int { return r.inner.Bytes() }

// ProcessStats summarizes the cost of one Engine.Process call.
type ProcessStats struct {
	// PostingsScanned is the number of inverted-list entries touched
	// (genuine and decoy terms alike).
	PostingsScanned int
	// BucketsFetched is the number of distinct buckets read; with the
	// Section 4 layout, each costs one disk seek.
	BucketsFetched int
	// Candidates is the size of the returned candidate set R.
	Candidates int
	// TombstonesSkipped is the number of scanned postings that belonged
	// to deleted documents; skipping them costs no homomorphic work.
	TombstonesSkipped int
	// SimulatedIOms is the disk time under the library's analytic disk
	// model (1 KB blocks; see internal/simio).
	SimulatedIOms float64
}

// processCoreCtx runs one embellished core query through the one
// ranking plan — core's document-sharded fold on the schedule
// applyExecution set, on as many workers as the query's postings pay for
// (one per 1,536, up to GOMAXPROCS and the shard count). The schedule changes how
// the fold is run and how E(u)^p is computed, never a ciphertext: the
// response is the paper's sequential Algorithm 4 (core.Server.Process,
// kept as the oracle) byte for byte. The posting walk checks ctx and
// stops mid-scan on cancellation, returning ctx.Err() with the
// partial-work stats.
func (e *Engine) processCoreCtx(ctx context.Context, q *core.Query) (*core.Response, core.Stats, error) {
	return e.server.ProcessParallelCtx(ctx, q, 0)
}

// answerPIRMultiCtx serves a batch of k >= 1 equal-width, same-modulus
// PIR block queries in ONE pass over a pinned store snapshot — the one
// flat serving path; a single query is a batch of one — on GOMAXPROCS
// column-partitioned workers. A cancelled scan stops within a bounded
// slice of work and returns ctx.Err(); the per-query Stats count the
// multiplications actually performed — partial on cancellation — so
// serving layers can meter work.
func answerPIRMultiCtx(ctx context.Context, snap *docstore.Snapshot, qs []*pir.Query) ([]*pir.Answer, []pir.Stats, error) {
	return snap.AnswerMultiExecCtx(ctx, qs, pir.Exec{Workers: runtime.GOMAXPROCS(0)})
}

// answerPIRRecursiveCtx serves a batch of recursive block queries in
// one level-1 pass over the snapshot, on answerPIRMultiCtx's workers
// and under its cancellation contract.
func answerPIRRecursiveCtx(ctx context.Context, snap *docstore.Snapshot, qs []*pir.RecursiveQuery) ([]*pir.Answer, []pir.Stats, error) {
	return snap.AnswerRecursiveMultiExecCtx(ctx, qs, pir.Exec{Workers: runtime.GOMAXPROCS(0)})
}

// ConfigureMergePolicy adjusts the live-index segment bound — the
// Options.MaxSegments knob, with the same encoding (0 default, -1
// disable automatic merging, >= 1 pinned) — at runtime. It is not part
// of the persisted engine file, so loaded engines start at the default;
// deployments reapply their policy after LoadEngine.
func (e *Engine) ConfigureMergePolicy(maxSegments int) error {
	// updateMu orders the opts write against the write path, which reads
	// opts while building segments.
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	opts := e.opts
	opts.MaxSegments = maxSegments
	if err := opts.validate(); err != nil {
		return err
	}
	e.opts = opts
	e.live.SetMaxSegments(opts.maxSegments())
	return nil
}

// applyExecution builds the ranking server, once, for NewEngine and the
// load path alike, on the schedule core.NewLiveServer resolves: GOMAXPROCS
// document shards (processCoreCtx runs as many workers) and the default
// fixed-base window. Nothing sets it afterwards, so queries read it
// without a lock.
func (e *Engine) applyExecution() {
	e.server = core.NewLiveServer(e.live, e.org, e.lex.db)
}

// CancelledError reports a query stopped mid-scan by context
// cancellation or deadline expiry, carrying the partial-work
// accounting of the cycles the abandoned query burned before it
// stopped. It wraps the context error, so
// errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) both see through it.
type CancelledError struct {
	// Stats accounts the work performed before the stop: postings
	// scanned, buckets charged, tombstones skipped. Candidates is
	// always zero — partial candidate sets are discarded, never
	// returned.
	Stats ProcessStats
	// Err is the underlying context error (context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

func (c *CancelledError) Error() string {
	return fmt.Sprintf("embellish: query cancelled after %d postings: %v", c.Stats.PostingsScanned, c.Err)
}

// Unwrap exposes the context error to errors.Is / errors.As.
func (c *CancelledError) Unwrap() error { return c.Err }

// Process executes Algorithm 4: accumulate each candidate document's
// encrypted relevance score over every term of the embellished query.
// The engine cannot distinguish genuine terms from decoys; decoy flags
// encrypt zero, so they perturb only ciphertexts, never scores.
func (e *Engine) Process(q *Query) (*Response, error) {
	return e.ProcessContext(context.Background(), q)
}

// ProcessContext is Process under a context: the posting walk checks
// ctx periodically (every worker of the ranking plan, at every shard
// count) and stops mid-scan when ctx is cancelled
// or its deadline expires. A cancelled query returns a *CancelledError
// wrapping ctx.Err() — errors.Is(err, context.DeadlineExceeded) works
// — whose Stats field accounts the partial work performed, and leaves
// the engine fully serviceable: subsequent queries are unaffected.
func (e *Engine) ProcessContext(ctx context.Context, q *Query) (*Response, error) {
	if q == nil || q.inner == nil {
		return nil, errors.New("embellish: nil query")
	}
	resp, st, err := e.processCoreCtx(ctx, q.inner)
	if err != nil {
		// Sentinel check rather than comparing against ctx.Err(): a
		// scan that stopped on its wall-clock deadline check can
		// return DeadlineExceeded before the context's timer fires.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, &CancelledError{Stats: e.processStats(st), Err: err}
		}
		return nil, err
	}
	return &Response{inner: resp, Stats: e.processStats(st)}, nil
}

// processStats maps core accounting onto the public ProcessStats.
func (e *Engine) processStats(st core.Stats) ProcessStats {
	return ProcessStats{
		PostingsScanned:   st.Postings,
		BucketsFetched:    st.IO.Seeks,
		Candidates:        st.Candidates,
		TombstonesSkipped: st.Tombstoned,
		SimulatedIOms:     st.IOms(e.server.Disk),
	}
}

// AddDocuments indexes additional documents online. The documents
// become a new immutable segment quantized against the scale pinned at
// engine creation, so their homomorphic exponents E(u)^p stay
// comparable with every existing segment and Claim 1 keeps holding.
// Document ids must continue the engine's dense id sequence, i.e.
// docs[i].ID == NextDocID()+i. Concurrent searches are never blocked;
// they keep evaluating the snapshot they loaded and observe the new
// documents on their next query.
//
// New vocabulary is indexed and reachable through PlaintextSearch, but
// the searchable dictionary and bucket organization are pinned at
// engine creation: terms outside them cannot be privately queried
// without rebuilding the engine and redistributing its file.
//
// Like Lucene segments, each batch computes its impacts from its OWN
// corpus statistics (N, f_t, average length), so a tiny batch weighs
// its terms less sharply than the base segment does; Claim 1 is
// unaffected — private and plaintext read the same stored impacts —
// but rankings can differ from a from-scratch rebuild of the same
// corpus. Prefer adding in meaningful batches, and rebuild when
// statistical freshness matters more than availability.
func (e *Engine) AddDocuments(docs []Document) error {
	return e.addDocuments(docs, true)
}

// addDocuments is AddDocuments with the journaling switch: the public
// path journals, write-ahead-log replay (which re-applies records
// already journaled) does not.
func (e *Engine) addDocuments(docs []Document, journal bool) error {
	if len(docs) == 0 {
		return errors.New("embellish: no documents to add")
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	base := int(e.live.Snapshot().NextDoc)
	for i, d := range docs {
		if d.ID != base+i {
			return fmt.Errorf("embellish: document ids must continue the dense sequence: got %d at position %d, want %d (see NextDocID)",
				d.ID, i, base+i)
		}
		// Validate EVERYTHING before the first store/index mutation: a
		// mid-batch failure would leave the doc store permanently ahead
		// of the index, bricking every later update.
		if e.store != nil && len(d.Text) > maxStoredDocBytes {
			return fmt.Errorf("embellish: document %d text of %d bytes exceeds the storable limit %d", d.ID, len(d.Text), maxStoredDocBytes)
		}
	}
	b := index.NewBuilder()
	b.QuantLevels = int32(e.opts.QuantLevels)
	b.Scale = e.live.Scale()
	if e.opts.Scoring == BM25 {
		b.Scoring = index.ScoringBM25
	}
	e.indexDocuments(b, docs)
	// Build the segment FIRST and pre-check Append's preconditions, so
	// nothing below can fail after the store mutation: a store left
	// ahead of the index would brick every later update.
	local := b.Build()
	if local.QuantLevels != e.live.QuantLevels() || local.Scale() != e.live.Scale() {
		return fmt.Errorf("embellish: batch quantization (scale %g, %d levels) does not match the engine's pinned (%g, %d)",
			local.Scale(), local.QuantLevels, e.live.Scale(), e.live.QuantLevels())
	}
	// Journal AFTER every validation (a journaled operation must be
	// appliable on replay) and BEFORE any index/store mutation (an
	// applied operation must be recoverable). Still under updateMu, so
	// journal order is apply order.
	// One byte copy serves both consumers: the journal frames the
	// slices into its record (without retaining them) and the store
	// copies them into fresh block arrays.
	var texts [][]byte
	if (journal && e.wal != nil) || e.store != nil {
		texts = make([][]byte, len(docs))
		for i, d := range docs {
			texts[i] = []byte(d.Text)
		}
	}
	if journal && e.wal != nil {
		rec := &wal.Record{Op: wal.OpAddDocs, Docs: make([]wal.DocText, len(docs))}
		for i, d := range docs {
			rec.Docs[i] = wal.DocText{ID: uint32(d.ID), Text: texts[i]}
		}
		if err := e.journalLocked(rec); err != nil {
			return err
		}
	}
	// Store bytes BEFORE publishing the index segment: a searcher that
	// ranks a new document must already be able to fetch it. Both writes
	// happen under updateMu, so the store's dense-id sequence tracks the
	// index's exactly.
	if e.store != nil {
		if err := e.store.AddBatch(base, texts); err != nil {
			return fmt.Errorf("embellish: document store: %w", err)
		}
	}
	_, err := e.live.Append(local)
	return err
}

// DeleteDocuments removes documents online by tombstoning their ids:
// subsequent searches skip their postings without any homomorphic
// work, and the next merge rewrites the postings away. Every id must be
// live — unknown and already-deleted ids are rejected and the call
// changes nothing. Concurrent searches are never blocked.
func (e *Engine) DeleteDocuments(ids []int) error {
	return e.deleteDocuments(ids, true)
}

// deleteDocuments is DeleteDocuments with the journaling switch (see
// addDocuments).
func (e *Engine) deleteDocuments(ids []int, journal bool) error {
	if len(ids) == 0 {
		return errors.New("embellish: no documents to delete")
	}
	ds := make([]index.DocID, len(ids))
	for i, id := range ids {
		// Bound BEFORE the int32 conversion: a wrapped id would silently
		// tombstone some other document.
		if id < 0 || id > 1<<31-1 {
			return fmt.Errorf("embellish: document id %d out of range", id)
		}
		ds[i] = index.DocID(id)
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if journal && e.wal != nil {
		// Dry-run the tombstone update first: a journal record must
		// never encode an operation the index would reject on replay.
		if err := e.live.Snapshot().ValidateDelete(ds); err != nil {
			return fmt.Errorf("embellish: %w", err)
		}
		rec := &wal.Record{Op: wal.OpDeleteDocs, IDs: make([]uint32, len(ids))}
		for i, id := range ids {
			rec.IDs[i] = uint32(id)
		}
		if err := e.journalLocked(rec); err != nil {
			return err
		}
	}
	if err := e.live.Delete(ds); err != nil {
		return fmt.Errorf("embellish: %w", err)
	}
	// Tombstone the stored bytes AFTER the index: the document stops
	// being ranked first, then stops being fetchable. The ids were
	// validated live by the index delete, and both stores share one
	// update history under updateMu, so this cannot fail.
	if e.store != nil {
		if err := e.store.DeleteBatch(ids); err != nil {
			return fmt.Errorf("embellish: document store: %w", err)
		}
	}
	return nil
}

// Compact synchronously folds the live index into a single segment,
// rewriting every tombstoned posting away. Searches are never blocked.
// The background merge policy (Options.MaxSegments) normally keeps the
// segment set bounded on its own; Compact is for deployments that want
// a deterministic full rewrite, e.g. before Save.
func (e *Engine) Compact() { e.live.Compact() }

// Client is the user side: it owns the Benaloh private key, embellishes
// queries, and decrypts responses. A Client is not safe for concurrent
// use; create one per session.
type Client struct {
	// engine is the engine Search and FetchDocuments open in-memory wire
	// sessions to; nil on clients built from a lexicon sync
	// (remote-only).
	engine *Engine
	// world is what embellishment actually reads: lexicon, analyzer,
	// organization and key parameters. Never nil.
	world *clientWorld
	inner *core.Client
	// fetchKey is the PIR key for private document fetches, generated
	// lazily on the first FetchDocuments/FetchDocumentsRemote call;
	// fetchBits overrides its size (SetRetrievalKeyBits); fetchRecursive
	// opts this client's fetches into the two-level recursive PIR
	// protocol (SetFetchRecursive).
	fetchKey       *pir.ClientKey
	fetchBits      int
	fetchRecursive bool
	// fetched is what the client remembers of the connection it last
	// fetched over (FetchDocumentsRemote): the mapping it holds there.
	fetched fetchConn
}

// NewClient generates a fresh key pair and returns a client bound to the
// engine's bucket organization. randSource supplies cryptographic
// randomness; nil selects crypto/rand (pass a deterministic reader only
// in tests).
func (e *Engine) NewClient(randSource io.Reader) (*Client, error) {
	c, err := newWorldClient(e.clientView(), randSource)
	if err != nil {
		return nil, err
	}
	c.engine = e
	return c, nil
}

// newWorldClient generates a key pair for a client world — the shared
// constructor behind Engine.NewClient and RemoteWorld.NewClient.
func newWorldClient(w *clientWorld, randSource io.Reader) (*Client, error) {
	key, err := benaloh.GenerateKey(randSource, w.keyBits, benaloh.Pow3(w.scoreSpace))
	if err != nil {
		return nil, fmt.Errorf("embellish: key generation: %w", err)
	}
	c := &Client{world: w, inner: core.NewClient(w.org, key, rand.Int63())}
	c.inner.CryptoRand = randSource
	return c, nil
}

// SetEmbellishSeed re-seeds the permutation source that shuffles
// embellished term lists. Embellishment is deterministic given this
// seed, the query, and the bytes CryptoRand yields — which is how the
// property tests prove a synced remote client produces byte-identical
// wire frames to an engine-bound client.
func (c *Client) SetEmbellishSeed(seed int64) {
	c.inner.Rand = rand.New(rand.NewSource(seed))
}

// genuineTerms runs the analyzer half of Embellish: the query's
// searchable term ids, plus the words that fell outside the
// dictionary. The decoy scheduler needs the terms BEFORE
// embellishment — ghost queries must match the genuine query's term
// count, not its embellished frame size.
func (c *Client) genuineTerms(query string) ([]wordnet.TermID, []string, error) {
	tokens := c.world.analyzer.Analyze(query)
	if len(tokens) == 0 {
		return nil, nil, errors.New("embellish: query has no indexable terms")
	}
	var genuine []wordnet.TermID
	var skipped []string
	for _, tok := range tokens {
		t, ok := c.world.lex.db.Lookup(tok)
		if !ok {
			skipped = append(skipped, tok)
			continue
		}
		genuine = append(genuine, t)
	}
	if len(genuine) == 0 {
		return nil, nil, fmt.Errorf("embellish: no query term is in the searchable dictionary (skipped: %v)", skipped)
	}
	return genuine, skipped, nil
}

// Embellish implements Algorithm 3 on a natural-language query: analyze
// it with the engine's pipeline, replace each genuine term with its full
// host bucket, attach encrypted genuineness flags, and permute. Words
// outside the searchable dictionary are reported in Query.Skipped.
func (c *Client) Embellish(query string) (*Query, error) {
	genuine, skipped, err := c.genuineTerms(query)
	if err != nil {
		return nil, err
	}
	inner, skippedIDs, err := c.inner.Embellish(genuine)
	if err != nil {
		return nil, err
	}
	for _, t := range skippedIDs {
		skipped = append(skipped, c.world.lex.db.Lemma(t))
	}
	q := &Query{inner: inner, Skipped: skipped}
	q.termNames = make([]string, len(inner.Entries))
	for i, e := range inner.Entries {
		q.termNames[i] = c.world.lex.db.Lemma(e.Term)
	}
	return q, nil
}

// Result is one decrypted, ranked result document.
type Result struct {
	// DocID identifies the ranked document; on storing engines it can
	// be fetched privately with Client.FetchDocuments.
	DocID int
	// Score is the quantized relevance score accumulated from the
	// genuine terms only.
	Score int64
}

// Decode implements Algorithm 5: decrypt the candidate scores, rank
// decreasing, and keep the top k (k <= 0 keeps all).
func (c *Client) Decode(resp *Response, k int) ([]Result, error) {
	if resp == nil || resp.inner == nil {
		return nil, errors.New("embellish: nil response")
	}
	return c.decodeCandidates(resp.inner.Docs, k)
}

// Search is the end-to-end convenience: SearchRemote over an in-memory
// wire session to the client's own engine, whose server answers from
// the corpus state the query frame arrives at. Requires an in-process
// engine; remote-only clients use SearchRemote.
func (c *Client) Search(query string, k int) ([]Result, error) {
	if c.engine == nil {
		return nil, ErrRemoteOnly
	}
	conn := c.engine.dial(context.Background())
	defer conn.Close()
	return c.SearchRemote(conn, query, k)
}

// Snapshot pins one state of the live corpus: the segment set and
// tombstones a concurrently updating engine had at the moment of the
// call. A Snapshot stays valid and internally consistent forever — use
// it to compare a search result against the plaintext ranking of the
// exact corpus state the query observed, or to page through results
// while updates continue.
type Snapshot struct {
	e    *Engine
	snap *index.Snapshot
	// store pins the document-store state alongside the index state
	// (nil when the engine stores no documents). Both are captured
	// under the write lock, so they reflect ONE point in the update
	// history: every document the snapshot ranks is readable through
	// Snapshot.Document, and each view stays internally consistent
	// forever.
	store *docstore.Snapshot
}

// Snapshot captures the engine's current live corpus state. On a
// storing engine the call serializes briefly with writers (the index
// and store captures must land between updates, not inside one);
// store-less engines stay lock-free.
func (e *Engine) Snapshot() *Snapshot {
	if e.store == nil {
		return &Snapshot{e: e, snap: e.live.Snapshot()}
	}
	e.updateMu.Lock()
	s := &Snapshot{e: e, snap: e.live.Snapshot(), store: e.store.Snapshot()}
	e.updateMu.Unlock()
	return s
}

// NumDocs reports the snapshot's live document count.
func (s *Snapshot) NumDocs() int { return s.snap.LiveDocs() }

// NumSegments reports the snapshot's segment count.
func (s *Snapshot) NumSegments() int { return len(s.snap.Segs) }

// Version is the snapshot's update-sequence number; every add, delete
// and merge increments it.
func (s *Snapshot) Version() uint64 { return s.snap.Version }

// LiveDocIDs returns the snapshot's live (assigned and not deleted)
// document ids in increasing order. Allocates the full slice; meant
// for audits and tests, not hot paths.
func (s *Snapshot) LiveDocIDs() []int {
	ds := s.snap.LiveDocIDs()
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = int(d)
	}
	return out
}

// PlaintextSearch runs the query against this snapshot WITHOUT any
// privacy protection, returning the quantized-score ranking a
// conventional engine would produce on that corpus state.
func (s *Snapshot) PlaintextSearch(query string, k int) ([]Result, error) {
	tokens := s.e.analyzer.Analyze(query)
	var qt []string
	for _, tok := range tokens {
		if s.snap.HasToken(tok) {
			qt = append(qt, tok)
		}
	}
	if len(qt) == 0 {
		return nil, errors.New("embellish: no query term occurs in the corpus")
	}
	res := s.snap.QuantizedTopK(qt, k)
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{DocID: int(r.Doc), Score: int64(r.Score)}
	}
	return out, nil
}

// PlaintextSearch runs the same query against the engine's CURRENT
// corpus state WITHOUT any privacy protection, returning the
// quantized-score ranking a conventional engine would produce. Provided
// so applications (and the repository's tests) can verify Claim 1:
// private and plaintext rankings are identical. Under concurrent
// updates, capture a Snapshot instead and query both sides against it.
func (e *Engine) PlaintextSearch(query string, k int) ([]Result, error) {
	return e.Snapshot().PlaintextSearch(query, k)
}
