package main

// world.go is the one place that names an engine knob or a ServeConfig
// field. Every workload and every probe runs on a world built here, so a
// change to the knob surface of the root package needs a change to this
// file only.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"time"

	"embellish"
	"embellish/internal/corpus"
	"embellish/internal/wngen"
)

// benchProcs is the GOMAXPROCS the harness pins before it builds a world:
// the serving knobs below size themselves from it.
const benchProcs = 2

// topK is the ranking depth of every search op.
const topK = 10

// worldSeed generates every world's lexicon, corpus and updates, and draws
// the population of queries and fetch pairs. The run's seed orders that
// population and, through the system's own randomness, chooses the keys; the
// world and the population are one pinned fixture, so that two runs differ
// in which ops a window reached and in what order, not in what was stored or
// could be asked. (A world per seed moves the store's size by a few percent
// and now and then the commonest document length by a whole block, which
// shifts every fetch metric by a third; a query population per seed moves
// the bytes a search downloads by ±5%.)
const worldSeed = 1

// worldSpec pins one world: the lexicon and corpus sizes, the online
// updates that shape the live index, and the key sizes.
type worldSpec struct {
	Name             string `json:"name"`
	Synsets          int    `json:"synsets"`
	DocTokens        int    `json:"doc_tokens"`  // mean indexable tokens per document
	BaseDocs         int    `json:"base_docs"`   // indexed by NewEngine
	AddBatches       int    `json:"add_batches"` // online AddDocuments calls after it
	AddBatch         int    `json:"add_batch"`   // documents per call
	Deletes          int    `json:"deletes"`     // base documents deleted in one call
	BucketSize       int    `json:"bucket_size"`
	KeyBits          int    `json:"key_bits"`
	BlockSize        int    `json:"block_size"`
	RetrievalKeyBits int    `json:"retrieval_key_bits"`
	Queries          int    `json:"queries"` // distinct search inputs
	Pairs            int    `json:"pairs"`   // distinct fetch inputs
}

// w2k is the world every BENCHMARK.json run uses: 2,000 documents in four
// segments with 40 tombstones and no merge, the state a served index is in
// after a few online updates, not a freshly built one. Its 64 queries are
// few enough for a search window (70-100 ops) to reach every one: which
// queries a window reached moved the bytes per search by 7% when there were
// 256.
var w2k = worldSpec{
	Name: "W2k", Synsets: 2500, DocTokens: 180,
	BaseDocs: 1850, AddBatches: 3, AddBatch: 50, Deletes: 40,
	BucketSize: 8, KeyBits: 256, BlockSize: 1024, RetrievalKeyBits: 64,
	Queries: 64, Pairs: 32,
}

// wTest is the world of bench_test.go: the same shape, small enough for
// all four workloads to run in a few seconds.
var wTest = worldSpec{
	Name: "Wtest", Synsets: 600, DocTokens: 30,
	BaseDocs: 240, AddBatches: 3, AddBatch: 20, Deletes: 12,
	BucketSize: 8, KeyBits: 128, BlockSize: 256, RetrievalKeyBits: 64,
	Queries: 32, Pairs: 8,
}

func (s worldSpec) docs() int { return s.BaseDocs + s.AddBatches*s.AddBatch }

// engineOptions is the engine configuration of every world. The execution
// knobs select the fast plans an operator would serve with: the library's
// zero values are the sequential reference plans, which nobody deploys.
// Batch amortization and recursive serving stay at their defaults (on).
func (s worldSpec) engineOptions() embellish.Options {
	o := embellish.DefaultOptions()
	o.BucketSize = s.BucketSize
	o.KeyBits = s.KeyBits
	o.StoreDocuments = true
	o.BlockSize = s.BlockSize
	o.RetrievalKeyBits = s.RetrievalKeyBits
	o.Shards, o.Parallelism, o.PrecomputeWindow, o.PIRWorkers = -1, -1, -1, -1
	return o
}

// serveConfig is the serving configuration of every world.
func serveConfig() embellish.ServeConfig {
	return embellish.ServeConfig{AllowRetrieval: true, MaxInflight: -1}
}

// world is one built and served instance of a worldSpec.
type world struct {
	spec    worldSpec
	docs    []embellish.Document // every document ever added, by id
	deleted []int
	engine  *embellish.Engine
	client  *embellish.Client // the set-up's own client: key generation is part of set-up
	server  *embellish.NetServer
	ln      net.Listener
	served  chan error

	setupSeconds float64
	addSeconds   float64 // the share of set-up spent in AddDocuments
}

// buildWorld generates the lexicon and corpus, builds the engine, applies the
// online updates, generates a client key and starts serving on a loopback
// listener. All of it is the set-up the benchmark times.
func buildWorld(spec worldSpec) (*world, error) {
	if runtime.GOMAXPROCS(0) != benchProcs {
		return nil, fmt.Errorf("GOMAXPROCS is %d, the benchmark runs at %d", runtime.GOMAXPROCS(0), benchProcs)
	}
	t0 := time.Now()
	w := &world{spec: spec}
	lex := embellish.SyntheticLexicon(spec.Synsets, worldSeed)
	// The corpus generator reads the lexical database the Lexicon wraps;
	// the generator is deterministic, so a second call yields the same one.
	db := wngen.Generate(wngen.ScaledConfig(spec.Synsets, worldSeed))
	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = spec.docs()
	ccfg.MeanDocLen = spec.DocTokens
	ccfg.Seed = worldSeed + 3
	corp := corpus.Generate(db, ccfg)
	w.docs = make([]embellish.Document, len(corp.Docs))
	for i, d := range corp.Docs {
		w.docs[i] = embellish.Document{ID: d.ID, Text: strings.Join(d.Tokens, " ")}
	}

	var err error
	if w.engine, err = embellish.NewEngine(lex, w.docs[:spec.BaseDocs], spec.engineOptions()); err != nil {
		return nil, fmt.Errorf("building the engine: %w", err)
	}
	tAdd := time.Now()
	for b := 0; b < spec.AddBatches; b++ {
		lo := spec.BaseDocs + b*spec.AddBatch
		if err := w.engine.AddDocuments(w.docs[lo : lo+spec.AddBatch]); err != nil {
			return nil, fmt.Errorf("adding batch %d: %w", b, err)
		}
	}
	w.addSeconds = time.Since(tAdd).Seconds()
	w.deleted = rand.New(rand.NewSource(worldSeed + 5)).Perm(spec.BaseDocs)[:spec.Deletes]
	if err := w.engine.DeleteDocuments(w.deleted); err != nil {
		return nil, fmt.Errorf("deleting documents: %w", err)
	}

	if w.client, err = w.engine.NewClient(nil); err != nil {
		return nil, fmt.Errorf("generating the client key: %w", err)
	}

	w.server = w.engine.NewNetServer(serveConfig())
	if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.server.Serve(w.ln) }()
	// One stats round trip: set-up ends when the server answers.
	conn, err := w.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := embellish.ServerStats(conn); err != nil {
		return nil, fmt.Errorf("the server does not answer: %w", err)
	}
	w.setupSeconds = time.Since(t0).Seconds()
	return w, nil
}

// close drains and stops the server and waits for its accept loop.
func (w *world) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.server.Shutdown(ctx)
	if serr := <-w.served; err == nil {
		err = serr
	}
	return err
}

func (w *world) dial() (net.Conn, error) {
	return net.Dial("tcp", w.ln.Addr().String())
}

// fetchPipeline is every client's fetch-pipeline window. A fetch ships its
// block queries in batch frames of half the window, the first frame with
// whatever is generated when the writer first looks. At the library's
// default of 8 a six-query fetch goes out in two frames or in three,
// whichever way a race between the query generator and the writer falls,
// and the server scans the store once per frame: op latency has two modes
// 40% apart and its median moves with the mix. At 16 a frame holds all six
// queries, so every fetch is the first frame and one more, and two scans.
const fetchPipeline = 16

// newClient returns a client with its own key pair, sized like the world's.
func (w *world) newClient(recursiveFetch bool) (*embellish.Client, error) {
	c, err := w.engine.NewClient(nil)
	if err != nil {
		return nil, err
	}
	if err := c.SetFetchPipeline(fetchPipeline); err != nil {
		return nil, err
	}
	c.SetFetchRecursive(recursiveFetch)
	return c, nil
}

// shape is what a result file records about the world it ran on.
type worldShape struct {
	worldSpec
	LiveDocs int `json:"live_docs"`
	Segments int `json:"segments"`
}

func (w *world) shape() worldShape {
	return worldShape{worldSpec: w.spec, LiveDocs: w.engine.NumDocs(), Segments: w.engine.NumSegments()}
}

// inputs are the seeded op inputs every workload of a run draws from, with
// the outputs a correct system must return for them.
type inputs struct {
	queries   []string             // three genuine terms each
	wantRanks [][]embellish.Result // PlaintextSearch(query, topK): Claim 1's reference
	pairs     [][]int              // two live document ids each
	wantDocs  [][][]byte           // Engine.Document of each id
}

// makeInputs draws the world's queries and fetch pairs and puts them in the
// order seed gives: clients walk the inputs in that order, so the seed
// decides which ops a window holds.
//
// A query is three searchable single-word lemmas dealt from one shuffle of
// the dictionary, so the queries do not share terms and a run's cost does
// not hang on a few repeated heavy buckets. The fetch pairs are drawn among
// live documents of the commonest block count, so that every fetch op costs
// the same number of block queries and op latency measures the system, not
// the draw.
func makeInputs(w *world, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(worldSeed + 11))
	in := &inputs{}

	var lemmas []string
	for _, l := range w.engine.SearchableLemmas() {
		if !strings.ContainsRune(l, ' ') {
			lemmas = append(lemmas, l)
		}
	}
	const terms = 3
	if len(lemmas) < terms*w.spec.Queries {
		return nil, fmt.Errorf("only %d searchable lemmas for %d queries of %d terms", len(lemmas), w.spec.Queries, terms)
	}
	rng.Shuffle(len(lemmas), func(i, j int) { lemmas[i], lemmas[j] = lemmas[j], lemmas[i] })
	for i := 0; i < w.spec.Queries; i++ {
		q := strings.Join(lemmas[terms*i:terms*i+terms], " ")
		want, err := w.engine.PlaintextSearch(q, topK)
		if err != nil {
			return nil, fmt.Errorf("plaintext ranking of %q: %w", q, err)
		}
		in.queries = append(in.queries, q)
		in.wantRanks = append(in.wantRanks, want)
	}

	byBlocks := map[int][]int{}
	commonest := 0
	for _, id := range w.engine.Snapshot().LiveDocIDs() {
		b := (len(w.docs[id].Text) + w.spec.BlockSize - 1) / w.spec.BlockSize
		byBlocks[b] = append(byBlocks[b], id)
		if len(byBlocks[b]) > len(byBlocks[commonest]) {
			commonest = b
		}
	}
	pool := byBlocks[commonest]
	if len(pool) < 2 {
		return nil, fmt.Errorf("no two live documents of %d blocks", commonest)
	}
	for i := 0; i < w.spec.Pairs; i++ {
		a := rng.Intn(len(pool))
		b := rng.Intn(len(pool) - 1)
		if b >= a {
			b++
		}
		pair := []int{pool[a], pool[b]}
		var docs [][]byte
		for _, id := range pair {
			doc, err := w.engine.Document(id)
			if err != nil {
				return nil, fmt.Errorf("reading document %d: %w", id, err)
			}
			docs = append(docs, doc)
		}
		in.pairs = append(in.pairs, pair)
		in.wantDocs = append(in.wantDocs, docs)
	}

	order := rand.New(rand.NewSource(seed))
	order.Shuffle(len(in.queries), func(i, j int) {
		in.queries[i], in.queries[j] = in.queries[j], in.queries[i]
		in.wantRanks[i], in.wantRanks[j] = in.wantRanks[j], in.wantRanks[i]
	})
	order.Shuffle(len(in.pairs), func(i, j int) {
		in.pairs[i], in.pairs[j] = in.pairs[j], in.pairs[i]
		in.wantDocs[i], in.wantDocs[j] = in.wantDocs[j], in.wantDocs[i]
	})
	return in, nil
}
