// Command embellish-server runs a private-retrieval search engine as a
// concurrent network service. It either builds an engine from a
// synthetic world (and optionally saves it) or loads a previously saved
// engine file, and then serves the wire protocol on a TCP address with
// one goroutine per connection, a connection limit, and graceful
// shutdown on SIGINT/SIGTERM. Clients connect with the library's
// Client.SearchRemote / SearchRemoteBatch, or interactively with
// cmd/embellish-search -connect.
//
// Usage:
//
//	embellish-server [-listen :7878] [-load engine.bin]
//	                 [-lexicon mini|synthetic] [-synsets N] [-docs N]
//	                 [-bktsz B] [-save engine.bin] [-once]
//	                 [-max-conns N] [-idle-timeout D] [-stats-every D]
//	                 [-allow-updates] [-max-segments N]
//	                 [-store] [-block-size B] [-allow-retrieval]
//	                 [-data-dir DIR] [-fsync record|interval|off]
//	                 [-checkpoint-every N]
//	                 [-max-inflight N] [-queue-depth N] [-queue-timeout D]
//	                 [-request-timeout D] [-metrics ADDR]
//	                 [-allow-replication]
//	                 [-replicate-from ADDR] [-replicate-every D]
//	                 [-allow-lexicon-sync] [-risk-audit]
//
// With -allow-lexicon-sync the server ships its bucket organization
// and synset tables to remote clients on request, so a client that has
// never seen the engine file can embellish locally
// (cmd/embellish-search -connect -sync-lexicon). With -risk-audit the
// server scores every observed query stream with the paper's adversary
// model and serves a per-session privacy report
// (cmd/embellish-search -audit). See docs/THREAT_MODEL.md.
//
// With -max-inflight the server runs bounded admission control: at
// most N requests execute at once, excess requests park in a FIFO
// queue (-queue-depth, -queue-timeout), and overload is shed with a
// typed retry-hint error instead of collapsing every request's
// latency. -request-timeout cancels individual scans mid-flight at a
// server-side deadline. -metrics exposes the serving counters over
// HTTP (Prometheus text at /metrics, JSON at /stats.json); the same
// counters are also served in-protocol to any wire client. The listener
// serves the runtime's profiles under /debug/pprof/ too, so bind it to
// loopback. See docs/OPERATIONS.md.
//
// With -data-dir the server is crash-safe: every accepted update is
// journaled to a write-ahead log in DIR before it is acknowledged, and
// checkpoints periodically fold the log into a snapshot. A directory
// that already holds durable state is RECOVERED on boot — the server
// resumes the corpus exactly as of the last journaled operation, even
// after a SIGKILL mid-ingest — while an empty directory is initialized
// from the built (or -load'ed) engine. See docs/DURABILITY.md.
//
// With -allow-updates the server accepts online corpus updates
// (AddDocuments / DeleteDocuments over the wire, e.g. from
// cmd/embellish-search -add/-delete); queries keep running — and keep
// matching plaintext rankings — while segments are appended, tombstoned
// and merged.
//
// With -allow-replication a durable server ships its write-ahead log
// to pulling replicas (TypeWALPull); with -replicate-from the server
// runs AS a read replica — it tails the named primary's WAL and
// applies every shipped update to its own durable engine, staying a
// warm failover target for a cmd/embellish-router partition. See
// docs/ARCHITECTURE.md ("Cluster tier").
//
// With -store the built engine also keeps the document BYTES in a PIR
// block store (persisted in the engine file when combined with -save),
// and with -allow-retrieval the server answers private document
// fetches: clients rank with -connect and then fetch the winners with
// -fetch without revealing which documents won (cmd/embellish-search
// -fetch). Loaded engines carry their store in the file; -store only
// affects the build path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"embellish"
	"embellish/internal/cluster"
	"embellish/internal/corpus"
	"embellish/internal/wngen"
	"embellish/internal/wordnet"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7878", "TCP listen address")
		load    = flag.String("load", "", "load a saved engine file instead of building")
		save    = flag.String("save", "", "save the built engine to this file")
		lexKind = flag.String("lexicon", "mini", "lexicon source: mini or synthetic")
		synsets = flag.Int("synsets", 5000, "synthetic lexicon size")
		docs    = flag.Int("docs", 300, "synthetic corpus size")
		bktSz   = flag.Int("bktsz", 8, "bucket size")
		seed    = flag.Int64("seed", 1, "world seed")
		once    = flag.Bool("once", false, "serve a single connection and exit (for scripting)")

		dataDir   = flag.String("data-dir", "", "durable state directory (WAL + checkpoints); existing state is recovered on boot")
		fsyncMode = flag.String("fsync", "record", "WAL fsync policy with -data-dir: record, interval or off")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint after this many journaled updates (0 default, -1 disable)")

		store          = flag.Bool("store", false, "store document bytes for private retrieval (build path only)")
		blockSize      = flag.Int("block-size", 0, "PIR block size in bytes for -store (0 default)")
		allowRetrieval = flag.Bool("allow-retrieval", false, "answer private document fetches (requires a stored corpus)")

		maxConns     = flag.Int("max-conns", 0, "simultaneous connection cap (0 default, -1 unlimited)")
		allowUpdates = flag.Bool("allow-updates", false, "accept online corpus updates over the wire")
		maxSegments  = flag.Int("max-segments", 0, "live-index segment bound before background merge (0 default, -1 never merge)")
		idle         = flag.Duration("idle-timeout", 5*time.Minute, "close connections idle longer than this (0 never)")
		statsEvery   = flag.Duration("stats-every", 0, "print serving stats at this interval (0 off)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")

		maxInflight  = flag.Int("max-inflight", 0, "admission control: max executing requests (0 off, -1 GOMAXPROCS, N pinned)")
		queueDepth   = flag.Int("queue-depth", 0, "admission queue depth with -max-inflight (0 default)")
		queueTimeout = flag.Duration("queue-timeout", 0, "max queue wait before shedding with -max-inflight (0 default, negative forever)")
		reqTimeout   = flag.Duration("request-timeout", 0, "server-side deadline per request; scans are cancelled mid-flight (0 off)")
		metricsAddr  = flag.String("metrics", "", "HTTP listen address for /metrics, /stats.json and /debug/pprof/ (empty off)")

		allowLexSync = flag.Bool("allow-lexicon-sync", false, "ship the bucket organization and synset tables to remote clients on request")
		riskAudit    = flag.Bool("risk-audit", false, "score observed query streams with the adversary model and serve per-session privacy reports")

		allowRepl = flag.Bool("allow-replication", false, "ship the write-ahead log to pulling replicas (requires -data-dir)")
		replFrom  = flag.String("replicate-from", "", "run as a read replica tailing this primary's WAL (requires -data-dir)")
		replEvery = flag.Duration("replicate-every", 200*time.Millisecond, "replica polling interval with -replicate-from")
	)
	flag.Parse()

	if (*allowRepl || *replFrom != "") && *dataDir == "" {
		fatal(fmt.Errorf("replication needs -data-dir: the WAL is both the shipping source and the replica's cursor"))
	}

	var durability embellish.Durability
	if *dataDir != "" {
		policy, err := parseFsync(*fsyncMode)
		if err != nil {
			fatal(err)
		}
		durability = embellish.Durability{Dir: *dataDir, Fsync: policy, CheckpointEveryOps: *ckptEvery}
	}

	var engine *embellish.Engine
	recovered := false
	if *dataDir != "" {
		has, err := embellish.HasDurableState(*dataDir)
		if err != nil {
			fatal(err)
		}
		if has {
			if *load != "" {
				fatal(fmt.Errorf("%s already holds durable state; it would shadow -load %s (use one or the other)", *dataDir, *load))
			}
			var opts embellish.Options
			opts.Durability = durability
			engine, err = embellish.OpenDurable(*dataDir, opts)
			if err != nil {
				fatal(err)
			}
			st, _ := engine.WALStatus()
			fmt.Printf("recovered durable engine from %s: journal seq %d (checkpoint %d)\n",
				*dataDir, st.Seq, st.CheckpointSeq)
			recovered = true
		}
	}
	if recovered {
		// corpus comes from the durable state; nothing to build or load
	} else if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		engine, err = embellish.LoadEngine(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded engine from %s\n", *load)
	} else {
		var db *wordnet.Database
		var lex *embellish.Lexicon
		switch *lexKind {
		case "mini":
			db, lex = wordnet.MiniLexicon(), embellish.MiniLexicon()
		case "synthetic":
			db = wngen.Generate(wngen.ScaledConfig(*synsets, *seed))
			lex = embellish.SyntheticLexicon(*synsets, *seed)
		default:
			fatal(fmt.Errorf("unknown -lexicon %q", *lexKind))
		}
		ccfg := corpus.DefaultConfig()
		ccfg.NumDocs = *docs
		ccfg.Seed = *seed + 1
		corp := corpus.Generate(db, ccfg)
		documents := make([]embellish.Document, len(corp.Docs))
		for i, d := range corp.Docs {
			documents[i] = embellish.Document{ID: d.ID, Text: strings.Join(d.Tokens, " ")}
		}
		opts := embellish.DefaultOptions()
		opts.BucketSize = *bktSz
		opts.StoreDocuments = *store
		opts.BlockSize = *blockSize
		var err error
		engine, err = embellish.NewEngine(lex, documents, opts)
		if err != nil {
			fatal(err)
		}
	}
	// A freshly built or -load'ed engine becomes durable here; the
	// recovered path is durable already.
	if *dataDir != "" && !recovered {
		if err := engine.EnableDurability(durability); err != nil {
			fatal(err)
		}
		fmt.Printf("durable state initialized in %s\n", *dataDir)
	}
	// Merge policy is runtime-only (not persisted), so apply it in the
	// -load path too.
	if err := engine.ConfigureMergePolicy(*maxSegments); err != nil {
		fatal(err)
	}
	fmt.Printf("engine: %d docs, %d searchable terms, %d buckets\n",
		engine.NumDocs(), engine.NumSearchableTerms(), engine.NumBuckets())
	if engine.StoresDocuments() {
		fmt.Println("document store: present (documents can be fetched privately)")
	} else if *allowRetrieval {
		fmt.Println("WARNING: -allow-retrieval set but the engine stores no documents; fetches will be refused (build with -store)")
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := engine.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved engine to %s\n", *save)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving private retrieval on %s\n", l.Addr())
	if *once {
		conn, err := l.Accept()
		if err != nil {
			fatal(err)
		}
		if err := engine.ServeConn(conn); err != nil {
			fatal(err)
		}
		conn.Close()
		if err := engine.Close(); err != nil {
			fatal(err)
		}
		return
	}

	srv := engine.NewNetServer(embellish.ServeConfig{
		MaxConns:         *maxConns,
		IdleTimeout:      *idle,
		AllowUpdates:     *allowUpdates,
		AllowRetrieval:   *allowRetrieval,
		MaxInflight:      *maxInflight,
		QueueDepth:       *queueDepth,
		QueueTimeout:     *queueTimeout,
		RequestTimeout:   *reqTimeout,
		AllowReplication: *allowRepl,
		AllowLexiconSync: *allowLexSync,
		RiskAudit:        *riskAudit,
	})
	if *allowLexSync {
		v, err := engine.LexiconVersion()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("lexicon sync ENABLED: serving organization and synset tables (version %d)\n", v)
	}
	if *riskAudit {
		fmt.Println("risk auditing ENABLED: observed query streams are scored per session")
	}
	if *allowRepl {
		fmt.Println("WAL shipping ENABLED: this listener answers replica pulls")
	}
	replCtx, replCancel := context.WithCancel(context.Background())
	defer replCancel()
	if *replFrom != "" {
		rep := &cluster.Replica{Engine: engine, Primary: *replFrom, Interval: *replEvery}
		srv.SetReplicaStatus(rep.PrimarySeq)
		go func() {
			if err := rep.Run(replCtx); err != nil && replCtx.Err() == nil {
				fmt.Fprintln(os.Stderr, "embellish-server: replication:", err)
			}
		}()
		fmt.Printf("replicating from %s every %v\n", *replFrom, *replEvery)
	}
	if *allowUpdates {
		fmt.Println("online updates ENABLED: this listener accepts corpus adds/deletes")
	}
	if *allowRetrieval {
		fmt.Println("private retrieval ENABLED: this listener answers PIR document fetches")
	}
	if *maxInflight != 0 {
		fmt.Printf("admission control ENABLED: max-inflight %d, queue depth %d, queue timeout %v\n",
			*maxInflight, *queueDepth, *queueTimeout)
	}
	if *reqTimeout > 0 {
		fmt.Printf("request deadline ENABLED: scans cancelled after %v\n", *reqTimeout)
	}
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write(srv.MetricsText())
		})
		mux.HandleFunc("/stats.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(srv.Stats())
		})
		// Profiles of the live process: where the time and the memory go.
		// They show code paths and durations, never a term, document or
		// bucket id; bind the listener to loopback all the same.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go http.Serve(ml, mux)
	}
	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				printStats(srv.Stats())
			}
		}()
	}

	// Graceful shutdown: first signal drains in-flight queries, second
	// aborts immediately.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case sig := <-sigs:
		fmt.Printf("received %v, draining (deadline %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		go func() {
			<-sigs
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "embellish-server: shutdown:", err)
		}
		cancel()
	}
	printStats(srv.Stats())
	// Graceful Shutdown above already checkpointed a durable engine;
	// Close flushes and releases the journal.
	if err := engine.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "embellish-server: closing journal:", err)
	}
	if st, ok := engine.WALStatus(); ok {
		fmt.Printf("durable: journal seq %d, checkpoint %d (%s)\n", st.Seq, st.CheckpointSeq, st.Dir)
	}
}

// parseFsync maps the -fsync flag onto the Durability policy.
func parseFsync(mode string) (embellish.FsyncPolicy, error) {
	switch mode {
	case "record", "always":
		return embellish.FsyncEveryRecord, nil
	case "interval":
		return embellish.FsyncInterval, nil
	case "off", "never":
		return embellish.FsyncNever, nil
	}
	return 0, fmt.Errorf("unknown -fsync mode %q (record, interval or off)", mode)
}

func printStats(st embellish.ServeStats) {
	avg := time.Duration(0)
	if st.Queries > 0 {
		avg = st.QueryTime / time.Duration(st.Queries)
	}
	fmt.Printf("stats: conns %d accepted / %d rejected / %d active; queries %d (%d errors), %d updates, %d PIR retrievals, avg %v, max %v\n",
		st.Accepted, st.Rejected, st.Active, st.Queries, st.Errors, st.Updates, st.Retrievals, avg, st.MaxQueryTime)
	if st.QueuedTotal > 0 || st.ShedQueueFull > 0 || st.ShedQueueTimeout > 0 || st.Deadlines > 0 || st.Inflight > 0 || st.Queued > 0 {
		fmt.Printf("admission: %d inflight, %d queued (%d ever queued, max wait %v); shed %d full / %d timeout; %d deadline cancellations\n",
			st.Inflight, st.Queued, st.QueuedTotal, st.MaxQueueWait, st.ShedQueueFull, st.ShedQueueTimeout, st.Deadlines)
	}
	if st.Durable {
		fmt.Printf("durable: journal seq %d, checkpoint %d (age %v)\n",
			st.WALSeq, st.WALCheckpointSeq, st.CheckpointAge.Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "embellish-server:", err)
	os.Exit(1)
}
