// Command embellish-bench tracks the performance trajectory of the
// live segmented index and the private document-retrieval path: it
// builds a synthetic world, measures private query latency on the
// static engine, times an online add of a fraction of new documents
// against a from-scratch rebuild, measures query latency on the
// updated engine, then measures per-document PIR fetch latency — the
// flat and the recursive protocol, each in-process and over the
// batched wire protocol on a real TCP loopback, every block query of
// the fetch answered in ONE database pass — against
// plaintext fetch at two corpus sizes; then measures the durability
// tax and payoff: write-ahead-logged ingest (fsync=interval) against
// in-memory ingest, and checkpoint+log recovery against re-ingesting
// the same operations through the public API; finally it measures the
// cluster tier: the same corpus served by one partition process vs.
// three behind the scatter-gather router, with the encrypted
// candidate sets checked byte-identical between the shapes; and the
// privacy serving tier: the paper's risk-vs-bucket-size figure read
// back from a risk-auditing server over the wire, plus the tail-latency
// tax of decoy cover traffic (see docs/THREAT_MODEL.md). Figures
// land as machine-readable JSON (BENCH_PR10.json by default) so
// successive PRs can be compared.
//
// Usage:
//
//	embellish-bench [-docs 1200] [-synsets 2500] [-add-frac 0.1]
//	                [-queries 12] [-bktsz 8] [-keybits 256] [-seed 1]
//	                [-fetch-sizes "1200,12000"] [-fetch-count 2]
//	                [-fetch-block 1024] [-fetch-keybits 64]
//	                [-fetch-pipeline 16]
//	                [-durable-docs 8000] [-durable-synsets 6000]
//	                [-durable-ops 200] [-durable-batch 3]
//	                [-durable-every 64]
//	                [-cluster-base 60] [-cluster-docs 12000]
//	                [-cluster-synsets 2500] [-cluster-keybits 256]
//	                [-cluster-queries 4] [-cluster-rounds 2]
//	                [-privacy-docs 3000] [-privacy-synsets 2500]
//	                [-privacy-trials 25] [-privacy-bktszs "2,4,8"]
//	                [-privacy-ghosts 4] [-privacy-queries 40]
//	                [-only fetch|load|cluster|privacy]
//	                [-quick] [-out BENCH_PR10.json]
//
// -quick shrinks the world for CI smoke runs. The PIR fetch costs one
// |n|-bit modular multiplication per stored corpus BIT per block
// fetched (the Kushilevitz-Ostrovsky server scan), so the fetch legs
// deliberately run small moduli; the latency gap to plaintext fetch is
// the point of the experiment, mirroring the Figure 7/8 story.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"embellish"
	"embellish/internal/corpus"
	"embellish/internal/wngen"
	"embellish/internal/wordnet"
)

// Report is the machine-readable benchmark output.
type Report struct {
	// World shape.
	Docs     int   `json:"docs"`
	Added    int   `json:"added"`
	Synsets  int   `json:"synsets"`
	BktSz    int   `json:"bktsz"`
	KeyBits  int   `json:"keybits"`
	Queries  int   `json:"queries"`
	Seed     int64 `json:"seed"`
	Segments int   `json:"segments_after_add"`

	// Query latency (server-side Engine.Process, milliseconds).
	StaticQueryMs float64 `json:"static_query_ms"`
	LiveQueryMs   float64 `json:"live_query_ms"`

	// Update path.
	AddSeconds     float64 `json:"add_seconds"`
	AddDocsPerSec  float64 `json:"add_docs_per_sec"`
	RebuildSeconds float64 `json:"rebuild_seconds"`
	// Speedup is rebuild/add — the incremental-path advantage the
	// acceptance criterion bounds at >= 5x.
	Speedup float64 `json:"speedup_vs_rebuild"`

	// Private document retrieval: per-fetch PIR latency vs plaintext
	// fetch, one leg per corpus size.
	Fetch []FetchLeg `json:"fetch"`

	// Crash-safe durability: journaled-ingest overhead and
	// checkpoint+replay recovery speed.
	Durable DurableLeg `json:"durable"`

	// Heavy-traffic operations: the open-loop Poisson load sweep
	// against a queued-admission server, plus the mid-scan
	// cancellation probe.
	Load LoadReport `json:"load"`

	// Cluster serving: scatter-gather scaling of the same corpus on
	// one partition vs. three behind the router.
	Cluster ClusterReport `json:"cluster"`

	// Privacy serving: the risk-vs-bucket-size figure through the
	// networked stack plus the decoy-overhead latency leg.
	Privacy PrivacyReport `json:"privacy"`
}

// DurableLeg measures the write-ahead log on its own world: the
// ingest overhead of journaling every update batch (fsync=interval —
// the acceptance criterion bounds it at <= 3x the in-memory rate),
// and the recovery payoff — OpenDurable (newest checkpoint + log-tail
// replay) against re-ingesting the same operations through the public
// API (the criterion bounds the speedup at >= 10x).
type DurableLeg struct {
	BaseDocs  int    `json:"base_docs"`
	Synsets   int    `json:"synsets"`
	Ops       int    `json:"ops"`
	DocsPerOp int    `json:"docs_per_op"`
	Fsync     string `json:"fsync"`
	// CheckpointEvery is the explicit checkpoint cadence during the
	// durable ingest; the log tail recovery replays is bounded by it.
	CheckpointEvery int `json:"checkpoint_every"`

	// Ingest: the same operation stream applied in-memory and journaled.
	MemAddSeconds   float64 `json:"mem_add_seconds"`
	MemDocsPerSec   float64 `json:"mem_docs_per_sec"`
	DurAddSeconds   float64 `json:"durable_add_seconds"`
	DurDocsPerSec   float64 `json:"durable_docs_per_sec"`
	DurableOverhead float64 `json:"durable_overhead_vs_mem"`

	// Checkpoint cost model: total time and final snapshot size.
	Checkpoints       int     `json:"checkpoints"`
	CheckpointSeconds float64 `json:"checkpoint_seconds"`
	CheckpointBytes   int64   `json:"checkpoint_bytes"`
	WALBytes          int64   `json:"wal_bytes"`

	// Recovery: checkpoint load + tail replay vs full recompute.
	ReplayedOps     int     `json:"replayed_ops"`
	RecoverSeconds  float64 `json:"recover_seconds"`
	ReingestSeconds float64 `json:"reingest_seconds"`
	ReplaySpeedup   float64 `json:"recovery_speedup_vs_reingest"`
}

// FetchLeg is the PIR-vs-plaintext document fetch comparison at one
// corpus size: one in-process and one TCP-loopback measurement per
// protocol (flat, recursive). Every measurement is ONE fetch call
// covering every id, so all its block queries are answered in a single
// database pass.
type FetchLeg struct {
	Docs         int `json:"docs"`
	StoredBytes  int `json:"stored_bytes"`
	Blocks       int `json:"blocks"`
	BlockSize    int `json:"block_size"`
	FetchKeyBits int `json:"fetch_keybits"`
	Fetches      int `json:"fetches"`
	PIRRuns      int `json:"pir_runs"`
	// PIRVectors is the number of selection vectors the flat fetch over
	// the wire uploaded: one seeded vector per document, its further
	// blocks one-byte rotations — so QueryBytes (that fetch's upload) /
	// PIRRuns is a seeded vector averaged over a document's blocks.
	PIRVectors int `json:"pir_vectors"`

	// Flat protocol: Client.FetchDocuments, then the same fetch over
	// the batched wire protocol. AmortBatch is the number of block
	// queries sharing the scan.
	AmortBatch        int     `json:"amort_batch"`
	AmortMsPerDoc     float64 `json:"amort_ms_per_doc"`
	AmortPipeMsPerDoc float64 `json:"amort_pipe_ms_per_doc"`

	// Recursive two-level protocol: the same one-call fetch with √n×√n
	// grid queries — upload drops from n to ≤3·⌈√n⌉ ciphertexts per
	// query (RecQueryBytes/RecBatch vs QueryBytes/PIRRuns), answers
	// widen modBytes× — one ciphertext per byte of the flat answer (the
	// trade) — bytes stay identical. Locally and over type-23 wire frames.
	RecBatch        int     `json:"rec_batch"`
	RecMsPerDoc     float64 `json:"rec_ms_per_doc"`
	RecPipeMsPerDoc float64 `json:"rec_pipe_ms_per_doc"`
	RecQueryBytes   int     `json:"rec_query_bytes"`
	RecAnswerBytes  int     `json:"rec_answer_bytes"`

	PlainUsDoc  float64 `json:"plain_us_per_doc"`
	QueryBytes  int     `json:"query_bytes"`
	AnswerBytes int     `json:"answer_bytes"`
}

func main() {
	var (
		docs    = flag.Int("docs", 1200, "base corpus size")
		synsets = flag.Int("synsets", 2500, "synthetic lexicon size")
		addFrac = flag.Float64("add-frac", 0.1, "fraction of new documents to add online")
		queries = flag.Int("queries", 12, "queries to average latency over")
		bktSz   = flag.Int("bktsz", 8, "bucket size")
		keyBits = flag.Int("keybits", 256, "Benaloh key size")
		seed    = flag.Int64("seed", 1, "world seed")
		quick   = flag.Bool("quick", false, "small world for CI smoke runs")
		out     = flag.String("out", "BENCH_PR10.json", "output JSON path")
		only    = flag.String("only", "", "run a single section: fetch, load, cluster or privacy (empty runs everything)")

		fetchSizes = flag.String("fetch-sizes", "1200,12000", "comma-separated corpus sizes for the PIR fetch legs (empty disables)")
		fetchCount = flag.Int("fetch-count", 2, "documents fetched per leg")
		fetchBlock = flag.Int("fetch-block", 1024, "PIR block size in bytes for the fetch legs")
		fetchBits  = flag.Int("fetch-keybits", 64, "PIR modulus size for the fetch legs")
		fetchPipe  = flag.Int("fetch-pipeline", 16, "fetch-pipeline depth for the loopback legs")

		durDocs    = flag.Int("durable-docs", 8000, "base corpus size for the durability leg (0 disables)")
		durSynsets = flag.Int("durable-synsets", 6000, "lexicon size for the durability leg")
		durOps     = flag.Int("durable-ops", 200, "journaled update batches for the durability leg")
		durBatch   = flag.Int("durable-batch", 3, "documents per journaled batch")
		durEvery   = flag.Int("durable-every", 64, "checkpoint every this many batches during the durable ingest")

		loadRates   = flag.String("load-rates", "auto", "open-loop arrival rates in req/s, comma-separated; auto sweeps 0.5/0.8/1.6x measured capacity; empty disables")
		loadSeconds = flag.Float64("load-seconds", 10, "duration of each open-loop rate leg")
		loadDocs    = flag.Int("load-docs", 200, "corpus size for the load leg")
		loadSynsets = flag.Int("load-synsets", 1500, "lexicon size for the load leg")
		loadBits    = flag.Int("load-keybits", 128, "Benaloh key size for the load leg")
		loadStrict  = flag.Bool("load-strict", false, "exit nonzero if any load-leg request fails outright (sheds are not failures)")

		clBase    = flag.Int("cluster-base", 60, "template corpus size for the cluster scatter-gather leg (0 disables)")
		clGrow    = flag.Int("cluster-docs", 12000, "documents ingested through the router for the cluster leg")
		clSynsets = flag.Int("cluster-synsets", 2500, "lexicon size for the cluster leg")
		clBits    = flag.Int("cluster-keybits", 256, "Benaloh key size for the cluster leg")
		clQueries = flag.Int("cluster-queries", 4, "queries per measurement round in the cluster leg")
		clRounds  = flag.Int("cluster-rounds", 2, "measurement rounds per cluster shape")

		privDocs    = flag.Int("privacy-docs", 3000, "corpus size for the privacy serving legs (0 disables)")
		privSynsets = flag.Int("privacy-synsets", 2500, "lexicon size for the privacy serving legs")
		privTrials  = flag.Int("privacy-trials", 25, "audited queries per risk leg")
		privQSize   = flag.Int("privacy-qsize", 4, "genuine terms per audited query")
		privBktSzs  = flag.String("privacy-bktszs", "2,4,8", "bucket sizes swept by the served risk figure")
		privGhosts  = flag.Int("privacy-ghosts", 4, "decoys per genuine query in the decoy-overhead leg")
		privQueries = flag.Int("privacy-queries", 40, "genuine queries timed per decoy-overhead pass")
	)
	flag.Parse()
	if *quick {
		*docs, *synsets, *queries = 300, 1500, 4
		if *fetchSizes == "1200,12000" {
			*fetchSizes = "120,600"
		}
		*durDocs, *durSynsets, *durOps, *durBatch, *durEvery = 300, 1500, 30, 2, 8
		*loadSeconds, *loadDocs, *loadSynsets = 2, 200, 1000
		*privDocs, *privSynsets, *privTrials, *privQueries = 300, 1500, 10, 20
		// Big enough that the per-partition posting scan, not the
		// loopback round trip, dominates — the scatter should still
		// show a real speedup in the smoke run.
		*clBase, *clGrow, *clSynsets, *clQueries, *clRounds = 60, 3000, 2000, 4, 2
	}

	clusterCfg := clusterConfig{
		base: *clBase, grow: *clGrow, synsets: *clSynsets,
		bktSz: *bktSz, keyBits: *clBits,
		queries: *clQueries, rounds: *clRounds, seed: *seed,
	}
	var privBkts []int
	for _, f := range strings.Split(*privBktSzs, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(fmt.Errorf("bad -privacy-bktszs entry %q: %w", f, err))
		}
		privBkts = append(privBkts, n)
	}
	privacyCfg := privacyConfig{
		docs: *privDocs, synsets: *privSynsets, keyBits: *keyBits,
		trials: *privTrials, querySize: *privQSize, bktSzs: privBkts,
		ghostRate: *privGhosts, latQueries: *privQueries, seed: *seed,
	}
	mkLegConfig := func(size int) legConfig {
		return legConfig{
			synsets: *synsets, size: size, bktSz: *bktSz, keyBits: *keyBits,
			fetchBits: *fetchBits, blockSize: *fetchBlock, fetches: *fetchCount,
			pipeline: *fetchPipe, seed: *seed,
		}
	}
	switch *only {
	case "":
	case "fetch":
		rep := Report{Seed: *seed}
		db := wngen.Generate(wngen.ScaledConfig(*synsets, *seed))
		if err := runFetchSection(&rep, db, *fetchSizes, mkLegConfig); err != nil {
			fatal(err)
		}
		writeReport(&rep, *out)
		return
	case "privacy":
		rep := Report{Seed: *seed}
		if err := runPrivacySection(&rep, privacyCfg); err != nil {
			fatal(err)
		}
		writeReport(&rep, *out)
		return
	case "load":
		rep := Report{Seed: *seed}
		runLoadSection(&rep, loadConfig{
			docs: *loadDocs, synsets: *loadSynsets, bktSz: *bktSz, keyBits: *loadBits,
			rates: *loadRates, seconds: *loadSeconds, seed: *seed,
		}, *loadStrict)
		writeReport(&rep, *out)
		return
	case "cluster":
		rep := Report{Seed: *seed}
		if err := runClusterSection(&rep, clusterCfg); err != nil {
			fatal(err)
		}
		writeReport(&rep, *out)
		return
	default:
		fatal(fmt.Errorf("unknown -only section %q (\"fetch\", \"load\", \"cluster\" and \"privacy\" are supported)", *only))
	}

	extra := int(float64(*docs) * *addFrac)
	db := wngen.Generate(wngen.ScaledConfig(*synsets, *seed))
	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = *docs + extra
	ccfg.Seed = *seed + 1
	corp := corpus.Generate(db, ccfg)
	world := make([]embellish.Document, len(corp.Docs))
	for i, d := range corp.Docs {
		world[i] = embellish.Document{ID: d.ID, Text: strings.Join(d.Tokens, " ")}
	}
	base, added := world[:*docs], world[*docs:]

	opts := embellish.DefaultOptions()
	opts.BucketSize = *bktSz
	opts.KeyBits = *keyBits
	engine, err := embellish.NewEngine(embellish.SyntheticLexicon(*synsets, *seed), base, opts)
	if err != nil {
		fatal(err)
	}
	client, err := engine.NewClient(nil)
	if err != nil {
		fatal(err)
	}

	// Embellish the query set once; latency measures the server side.
	lemmas := engine.SearchableLemmas()
	embellished := make([]*embellish.Query, *queries)
	for i := range embellished {
		q := lemmas[(7*i)%len(lemmas)] + " " + lemmas[(13*i+5)%len(lemmas)]
		embellished[i], err = client.Embellish(q)
		if err != nil {
			fatal(fmt.Errorf("embellish %q: %w", q, err))
		}
	}
	rep := Report{
		Docs: *docs, Added: extra, Synsets: *synsets, BktSz: *bktSz,
		KeyBits: *keyBits, Queries: *queries, Seed: *seed,
	}
	rep.StaticQueryMs = avgQueryMs(engine, embellished)

	t0 := time.Now()
	if err := engine.AddDocuments(added); err != nil {
		fatal(err)
	}
	rep.AddSeconds = time.Since(t0).Seconds()
	rep.AddDocsPerSec = float64(extra) / rep.AddSeconds
	rep.Segments = engine.NumSegments()
	rep.LiveQueryMs = avgQueryMs(engine, embellished)

	// Time only the engine build: a redeploy reuses its lexicon, so
	// lexicon generation stays outside the window.
	lex2 := embellish.SyntheticLexicon(*synsets, *seed)
	t0 = time.Now()
	if _, err := embellish.NewEngine(lex2, world, opts); err != nil {
		fatal(err)
	}
	rep.RebuildSeconds = time.Since(t0).Seconds()
	rep.Speedup = rep.RebuildSeconds / rep.AddSeconds

	if *fetchSizes != "" {
		if err := runFetchSection(&rep, db, *fetchSizes, mkLegConfig); err != nil {
			fatal(err)
		}
	}

	if *durDocs > 0 && *durOps > 0 {
		leg, err := durableLeg(durableConfig{
			docs: *durDocs, synsets: *durSynsets, bktSz: *bktSz, keyBits: *keyBits,
			ops: *durOps, batch: *durBatch, every: *durEvery, seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		rep.Durable = leg
		fmt.Printf("durable leg %d docs + %d ops: mem add %.0f docs/s, journaled %.0f docs/s (%.2fx overhead); recover %.3fs vs reingest %.3fs (%.1fx)\n",
			leg.BaseDocs, leg.Ops, leg.MemDocsPerSec, leg.DurDocsPerSec, leg.DurableOverhead,
			leg.RecoverSeconds, leg.ReingestSeconds, leg.ReplaySpeedup)
	}

	if *loadRates != "" {
		runLoadSection(&rep, loadConfig{
			docs: *loadDocs, synsets: *loadSynsets, bktSz: *bktSz, keyBits: *loadBits,
			rates: *loadRates, seconds: *loadSeconds, seed: *seed,
		}, *loadStrict)
	}

	if *clBase > 0 {
		if err := runClusterSection(&rep, clusterCfg); err != nil {
			fatal(err)
		}
	}

	if *privDocs > 0 {
		if err := runPrivacySection(&rep, privacyCfg); err != nil {
			fatal(err)
		}
	}

	writeReport(&rep, *out)
	fmt.Printf("wrote %s: add %d docs in %.3fs (%.0f docs/s), rebuild %.3fs, speedup %.1fx\n",
		*out, extra, rep.AddSeconds, rep.AddDocsPerSec, rep.RebuildSeconds, rep.Speedup)
}

// runFetchSection sweeps the PIR fetch legs over the configured corpus
// sizes into the report.
func runFetchSection(rep *Report, db *wordnet.Database, sizes string, mk func(size int) legConfig) error {
	for _, field := range strings.Split(sizes, ",") {
		size, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("bad -fetch-sizes entry %q: %w", field, err)
		}
		leg, err := fetchLeg(db, mk(size))
		if err != nil {
			return err
		}
		rep.Fetch = append(rep.Fetch, leg)
		fmt.Printf("fetch leg %d docs: flat %.1f ms/doc / wire %.1f ms/doc (batch %d), recursive %.1f ms/doc / wire %.1f ms/doc, plain %.1f us/doc\n",
			leg.Docs, leg.AmortMsPerDoc, leg.AmortPipeMsPerDoc, leg.AmortBatch,
			leg.RecMsPerDoc, leg.RecPipeMsPerDoc, leg.PlainUsDoc)
		if leg.PIRRuns > 0 && leg.RecBatch > 0 {
			fmt.Printf("  upload: flat %d B/query (%d vectors for %d blocks), recursive %d B/query (%.1fx flat's); recursive answers %d B/query\n",
				leg.QueryBytes/leg.PIRRuns, leg.PIRVectors, leg.PIRRuns, leg.RecQueryBytes/leg.RecBatch,
				(float64(leg.RecQueryBytes)/float64(leg.RecBatch))/(float64(leg.QueryBytes)/float64(leg.PIRRuns)),
				leg.RecAnswerBytes/leg.RecBatch)
		}
	}
	return nil
}

// runLoadSection runs the heavy-traffic legs into the report, applying
// the -load-strict failure policy.
func runLoadSection(rep *Report, cfg loadConfig, strict bool) {
	load, err := loadLegs(cfg)
	rep.Load = load
	if err != nil {
		fatal(err)
	}
	failed := 0
	for _, leg := range load.Legs {
		failed += leg.Failed
	}
	fmt.Printf("load sweep: capacity %.0f req/s, knee at %.0f req/s, p99 across knee %.2fx; cancel leg: %.0f%% of scan at half-latency deadline (overshoot %.1f ms)\n",
		load.CapacityPerSec, load.KneeRatePerSec, load.P99RatioAcrossKnee,
		load.Cancel.WorkFraction*100, load.Cancel.OvershootMs)
	if strict && failed > 0 {
		fatal(fmt.Errorf("load legs had %d failed requests", failed))
	}
}

// writeReport marshals the report to out and echoes it to stdout.
func writeReport(rep *Report, out string) {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fatal(err)
	}
	os.Stdout.Write(blob)
}

// legConfig parameterizes one fetch leg.
type legConfig struct {
	synsets, size, bktSz, keyBits int
	fetchBits, blockSize, fetches int
	pipeline                      int
	seed                          int64
}

// fetchLeg builds a retrieval-enabled engine over a size-doc corpus
// and measures per-document fetch latency for the flat and the
// recursive protocol, each locally and over a TCP loopback, all
// against a direct Engine.Document read. Every measurement's bytes are
// verified identical to the direct read.
func fetchLeg(db *wordnet.Database, cfg legConfig) (FetchLeg, error) {
	var leg FetchLeg
	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = cfg.size
	ccfg.Seed = cfg.seed + 3
	corp := corpus.Generate(db, ccfg)
	world := make([]embellish.Document, len(corp.Docs))
	stored := 0
	for i, d := range corp.Docs {
		world[i] = embellish.Document{ID: d.ID, Text: strings.Join(d.Tokens, " ")}
		stored += len(world[i].Text)
	}
	opts := embellish.DefaultOptions()
	opts.BucketSize = cfg.bktSz
	opts.KeyBits = cfg.keyBits
	opts.StoreDocuments = true
	opts.BlockSize = cfg.blockSize
	opts.RetrievalKeyBits = cfg.fetchBits
	e, err := embellish.NewEngine(embellish.SyntheticLexicon(cfg.synsets, cfg.seed), world, opts)
	if err != nil {
		return leg, fmt.Errorf("fetch leg %d docs: %w", cfg.size, err)
	}
	leg.Docs = cfg.size
	leg.StoredBytes = stored
	leg.BlockSize = cfg.blockSize
	leg.Blocks = (stored + cfg.blockSize - 1) / cfg.blockSize // lower bound; per-doc padding adds a few
	leg.FetchKeyBits = cfg.fetchBits
	leg.Fetches = cfg.fetches

	// Deterministic spread of fetched ids across the corpus.
	ids := make([]int, cfg.fetches)
	for i := range ids {
		ids[i] = (i*cfg.size)/cfg.fetches + cfg.size/(2*cfg.fetches)
	}

	// timeBatch fetches every id in ONE call (the top-k shape) and
	// verifies the bytes.
	timeBatch := func(fetch func() ([][]byte, embellish.FetchStats, error)) (float64, embellish.FetchStats, error) {
		t0 := time.Now()
		docs, st, err := fetch()
		elapsed := time.Since(t0).Seconds() * 1000 / float64(len(ids))
		if err != nil {
			return 0, st, fmt.Errorf("PIR fetch: %w", err)
		}
		for i, id := range ids {
			direct, err := e.Document(id)
			if err != nil || string(docs[i]) != string(direct) {
				return 0, st, fmt.Errorf("fetch %d: PIR bytes disagree with direct read (%v)", id, err)
			}
		}
		return elapsed, st, nil
	}

	// Flat protocol, local: every block query of the whole fetch in one
	// database pass.
	amortClient, err := e.NewClient(nil)
	if err != nil {
		return leg, err
	}
	var amortStats embellish.FetchStats
	if leg.AmortMsPerDoc, amortStats, err = timeBatch(func() ([][]byte, embellish.FetchStats, error) {
		return amortClient.FetchDocuments(ids)
	}); err != nil {
		return leg, err
	}
	leg.AmortBatch = amortStats.Runs
	leg.PIRRuns = amortStats.Runs
	leg.AnswerBytes = amortStats.AnswerBytes

	// The same one-call fetch over the wire: batch frames over TCP
	// loopback against a NetServer. A fresh client (fresh modulus of
	// the same size) keeps the measurement honest: answers are
	// recomputed, not replayed.
	srv := e.NewNetServer(embellish.ServeConfig{AllowRetrieval: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return leg, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	amortConn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return leg, err
	}
	amortPipeClient, err := e.NewClient(nil)
	if err != nil {
		return leg, err
	}
	// 0 means "library default", matching embellish-search's contract.
	if cfg.pipeline > 0 {
		if err := amortPipeClient.SetFetchPipeline(cfg.pipeline); err != nil {
			return leg, err
		}
	}
	var pipeStats embellish.FetchStats
	if leg.AmortPipeMsPerDoc, pipeStats, err = timeBatch(func() ([][]byte, embellish.FetchStats, error) {
		return amortPipeClient.FetchDocumentsRemote(amortConn, ids)
	}); err != nil {
		return leg, err
	}
	amortConn.Close()
	// The upload is the wire's: a local fetch writes its vectors out.
	leg.PIRVectors = pipeStats.Vectors
	leg.QueryBytes = pipeStats.QueryBytes

	// Recursive two-level protocol: one call fetches every id through
	// √n×√n grid queries. Local first.
	recClient, err := e.NewClient(nil)
	if err != nil {
		return leg, err
	}
	recClient.SetFetchRecursive(true)
	var recStats embellish.FetchStats
	if leg.RecMsPerDoc, recStats, err = timeBatch(func() ([][]byte, embellish.FetchStats, error) {
		return recClient.FetchDocuments(ids)
	}); err != nil {
		return leg, err
	}
	leg.RecBatch = recStats.Runs
	leg.RecQueryBytes = recStats.QueryBytes
	leg.RecAnswerBytes = recStats.AnswerBytes

	// The same recursive fetch over type-23 wire frames.
	recConn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return leg, err
	}
	recPipeClient, err := e.NewClient(nil)
	if err != nil {
		return leg, err
	}
	recPipeClient.SetFetchRecursive(true)
	if cfg.pipeline > 0 {
		if err := recPipeClient.SetFetchPipeline(cfg.pipeline); err != nil {
			return leg, err
		}
	}
	if leg.RecPipeMsPerDoc, _, err = timeBatch(func() ([][]byte, embellish.FetchStats, error) {
		return recPipeClient.FetchDocumentsRemote(recConn, ids)
	}); err != nil {
		return leg, err
	}
	recConn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		cancel()
		return leg, err
	}
	cancel()
	if err := <-done; err != nil {
		return leg, err
	}

	// Plaintext leg: the same documents, read directly, averaged over
	// enough repetitions to be measurable.
	const plainReps = 2000
	t0 := time.Now()
	for i := 0; i < plainReps; i++ {
		if _, err := e.Document(ids[i%len(ids)]); err != nil {
			return leg, err
		}
	}
	leg.PlainUsDoc = time.Since(t0).Seconds() * 1e6 / plainReps
	return leg, nil
}

// durableConfig parameterizes the durability leg.
type durableConfig struct {
	docs, synsets, bktSz, keyBits int
	ops, batch, every             int
	seed                          int64
}

// durableLeg measures the write-ahead log: journaled-ingest overhead
// (fsync=interval vs the identical in-memory op stream) and recovery
// speed (OpenDurable — newest checkpoint + log-tail replay — vs
// recomputing the same state through NewEngine + the same public-API
// ops). Every engine ends at the identical corpus; the recovered one
// is ranking-checked against the in-memory reference.
func durableLeg(cfg durableConfig) (DurableLeg, error) {
	leg := DurableLeg{
		BaseDocs: cfg.docs, Synsets: cfg.synsets, Ops: cfg.ops, DocsPerOp: cfg.batch,
		Fsync: "interval", CheckpointEvery: cfg.every,
	}
	db := wngen.Generate(wngen.ScaledConfig(cfg.synsets, cfg.seed))
	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = cfg.docs + cfg.ops*cfg.batch
	ccfg.Seed = cfg.seed + 5
	corp := corpus.Generate(db, ccfg)
	world := make([]embellish.Document, len(corp.Docs))
	for i, d := range corp.Docs {
		world[i] = embellish.Document{ID: d.ID, Text: strings.Join(d.Tokens, " ")}
	}
	base := world[:cfg.docs]
	batches := make([][]embellish.Document, cfg.ops)
	for i := range batches {
		start := cfg.docs + i*cfg.batch
		batches[i] = world[start : start+cfg.batch]
	}
	opts := embellish.DefaultOptions()
	opts.BucketSize = cfg.bktSz
	opts.KeyBits = cfg.keyBits
	lex := func() *embellish.Lexicon { return embellish.SyntheticLexicon(cfg.synsets, cfg.seed) }
	added := float64(cfg.ops * cfg.batch)

	ingest := func(e *embellish.Engine, checkpoint bool) (addSecs, ckptSecs float64, ckpts int, err error) {
		for i, b := range batches {
			t0 := time.Now()
			if err := e.AddDocuments(b); err != nil {
				return 0, 0, 0, err
			}
			addSecs += time.Since(t0).Seconds()
			if checkpoint && cfg.every > 0 && (i+1)%cfg.every == 0 && i+1 < len(batches) {
				t0 = time.Now()
				if err := e.Checkpoint(); err != nil {
					return 0, 0, 0, err
				}
				ckptSecs += time.Since(t0).Seconds()
				ckpts++
			}
		}
		return addSecs, ckptSecs, ckpts, nil
	}

	// In-memory reference: the same op stream without a journal.
	mem, err := embellish.NewEngine(lex(), base, opts)
	if err != nil {
		return leg, fmt.Errorf("durable leg: %w", err)
	}
	if leg.MemAddSeconds, _, _, err = ingest(mem, false); err != nil {
		return leg, err
	}
	leg.MemDocsPerSec = added / leg.MemAddSeconds

	// Journaled ingest with periodic checkpoints. The interval policy
	// is the acceptance criterion's configuration: appends hit the page
	// cache, a background flusher syncs.
	dir, err := os.MkdirTemp("", "embellish-bench-wal-")
	if err != nil {
		return leg, err
	}
	defer os.RemoveAll(dir)
	dopts := opts
	dopts.Durability = embellish.Durability{
		Dir: dir, Fsync: embellish.FsyncInterval,
		CheckpointEveryOps: -1, CheckpointEveryBytes: -1, // explicit cadence below
	}
	dur, err := embellish.NewEngine(lex(), base, dopts)
	if err != nil {
		return leg, fmt.Errorf("durable leg: %w", err)
	}
	var ckptSecs float64
	if leg.DurAddSeconds, ckptSecs, leg.Checkpoints, err = ingest(dur, true); err != nil {
		return leg, err
	}
	leg.DurDocsPerSec = added / leg.DurAddSeconds
	leg.DurableOverhead = leg.DurAddSeconds / leg.MemAddSeconds
	leg.CheckpointSeconds = ckptSecs
	if st, ok := dur.WALStatus(); ok {
		leg.ReplayedOps = int(st.Seq - st.CheckpointSeq)
	}
	if err := dur.Close(); err != nil {
		return leg, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return leg, err
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			continue
		}
		if strings.HasSuffix(ent.Name(), ".log") {
			leg.WALBytes += info.Size()
		} else if strings.HasSuffix(ent.Name(), ".bin") {
			leg.CheckpointBytes += info.Size()
		}
	}

	// Recovery: the crash-restart path.
	t0 := time.Now()
	rec, err := embellish.OpenDurable(dir, embellish.Options{})
	if err != nil {
		return leg, fmt.Errorf("durable leg recovery: %w", err)
	}
	leg.RecoverSeconds = time.Since(t0).Seconds()
	defer rec.Close()
	if rec.NumDocs() != mem.NumDocs() || rec.NextDocID() != mem.NextDocID() {
		return leg, fmt.Errorf("recovered corpus %d/%d docs, reference %d/%d",
			rec.NumDocs(), rec.NextDocID(), mem.NumDocs(), mem.NextDocID())
	}

	// Re-ingest: what a deployment without a journal does after a crash
	// — rebuild the engine, replay every operation through the public
	// API, and re-establish durability so the next crash is survivable
	// too (recovery above ends in exactly that state). The lexicon, as
	// in the rebuild leg above, is reusable and stays outside the
	// window.
	relex := lex()
	redir, err := os.MkdirTemp("", "embellish-bench-reingest-")
	if err != nil {
		return leg, err
	}
	defer os.RemoveAll(redir)
	t0 = time.Now()
	re, err := embellish.NewEngine(relex, base, opts)
	if err != nil {
		return leg, err
	}
	if _, _, _, err := ingest(re, false); err != nil {
		return leg, err
	}
	if err := re.EnableDurability(embellish.Durability{Dir: redir, Fsync: embellish.FsyncInterval}); err != nil {
		return leg, err
	}
	leg.ReingestSeconds = time.Since(t0).Seconds()
	if err := re.Close(); err != nil {
		return leg, err
	}
	leg.ReplaySpeedup = leg.ReingestSeconds / leg.RecoverSeconds

	// The three engines must rank identically: recovery is only a win
	// if it reproduces the corpus exactly.
	lemmas := mem.SearchableLemmas()
	q := lemmas[3] + " " + lemmas[11]
	want, err := mem.PlaintextSearch(q, 10)
	if err != nil {
		return leg, err
	}
	got, err := rec.PlaintextSearch(q, 10)
	if err != nil {
		return leg, err
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		return leg, fmt.Errorf("recovered ranking %v differs from reference %v", got, want)
	}
	return leg, nil
}

// avgQueryMs runs every embellished query once through Engine.Process
// and returns the mean latency in milliseconds.
func avgQueryMs(e *embellish.Engine, qs []*embellish.Query) float64 {
	total := time.Duration(0)
	for _, q := range qs {
		t0 := time.Now()
		if _, err := e.Process(q); err != nil {
			fatal(err)
		}
		total += time.Since(t0)
	}
	return total.Seconds() * 1000 / float64(len(qs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "embellish-bench:", err)
	os.Exit(1)
}
