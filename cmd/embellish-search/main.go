// Command embellish-search runs the full private-retrieval pipeline end
// to end on a self-contained world: generate (or hand it) a corpus,
// build the engine, embellish a query, execute Algorithm 4 on the
// server, post-filter on the client, and show that the ranking matches
// an unprotected search — while printing exactly what the search engine
// observed.
//
// With -connect, Algorithm 4 instead runs on a remote embellish-server:
// load the engine file both endpoints share (-load, so client and
// server agree on the bucket organization) and the query travels over
// the wire protocol. With -sync-lexicon instead of -load, the client
// fetches the bucket organization and synset tables FROM the server
// (which must run -allow-lexicon-sync) and embellishes locally without
// ever seeing the engine file — the fully remote deployment. Without a
// local engine copy the Claim 1 comparison and live updates are
// unavailable.
//
// With -decoys N each remote search travels inside a burst of N
// TrackMeNot-style ghost queries (decoy-marked cover traffic,
// embellished exactly like the genuine query), and with -audit the
// server's per-session privacy report — observed risk and the live
// coherence-adversary success rate, scored by the server playing the
// paper's adversary (it must run -risk-audit) — is printed after the
// search.
//
// With -add (a file of one document per line) and/or -delete (a
// comma-separated id list) the corpus is updated LIVE before the query
// runs — locally, or on the remote server when combined with -connect
// (the server must run -allow-updates; the same updates are applied to
// the locally loaded engine so the Claim 1 comparison tracks the
// server's corpus exactly).
//
// With -fetch N the top N result documents are retrieved after the
// ranking — privately through per-block PIR by default (the engine
// must hold a document store: build with -store, or serve/load an
// engine file saved from one; a remote server must also run
// -allow-retrieval), or in the clear with -fetch-mode plain for a
// side-by-side cost comparison. The PIR path reveals only how many
// blocks were fetched, never which document won the ranking.
//
// Usage:
//
//	embellish-search [-lexicon mini|synthetic] [-synsets N] [-docs N]
//	                 [-bktsz B] [-keybits K] [-query "terms..."] [-topk K]
//	                 [-add docs.txt] [-delete "3,17"]
//	                 [-store] [-block-size B] [-fetch N] [-fetch-mode private|plain]
//	                 [-fetch-keybits K] [-fetch-pipeline D]
//	embellish-search -connect HOST:PORT (-load engine.bin | -sync-lexicon)
//	                 [-keybits K] [-query "terms..."] [-topk K]
//	                 [-add docs.txt] [-delete "3,17"]
//	                 [-decoys N] [-audit]
//	                 [-fetch N] [-fetch-mode private|plain]
//	                 [-fetch-keybits K] [-fetch-pipeline D]
//	                 [-server-stats]
//
// With no -query, a random searchable term pair is used.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
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

func main() {
	var (
		lexKind = flag.String("lexicon", "mini", "lexicon source: mini or synthetic")
		synsets = flag.Int("synsets", 5000, "synthetic lexicon size")
		docs    = flag.Int("docs", 300, "synthetic corpus size")
		bktSz   = flag.Int("bktsz", 4, "bucket size")
		keyBits = flag.Int("keybits", 512, "Benaloh key size")
		query   = flag.String("query", "", "query text (default: random searchable terms)")
		topk    = flag.Int("topk", 10, "results to print")
		seed    = flag.Int64("seed", 1, "world seed")
		connect = flag.String("connect", "", "run the query against a remote embellish-server at this address")
		load    = flag.String("load", "", "load the engine file shared with the server")
		syncLex = flag.Bool("sync-lexicon", false, "with -connect: fetch the embellishment tables from the server instead of -load (server must run -allow-lexicon-sync)")
		decoys  = flag.Int("decoys", 0, "with -connect: send each query inside a burst of N decoy ghost queries (0 off)")
		audit   = flag.Bool("audit", false, "with -connect: print the server's per-session privacy-risk report after the search (server must run -risk-audit)")
		addFile = flag.String("add", "", "add documents live before querying: file with one document per line")
		delIDs  = flag.String("delete", "", "delete documents live before querying: comma-separated ids")

		store     = flag.Bool("store", false, "store document bytes so results can be fetched (build path only)")
		blockSize = flag.Int("block-size", 0, "PIR block size in bytes for -store (0 default)")
		fetchN    = flag.Int("fetch", 0, "retrieve the top N result documents after ranking (0 off)")
		fetchMode = flag.String("fetch-mode", "private", "document retrieval mode: private (PIR) or plain")
		fetchBits = flag.Int("fetch-keybits", 0, "PIR modulus size for -fetch (0 inherits the engine's key size)")
		fetchPipe = flag.Int("fetch-pipeline", 0, "block queries kept in flight during -fetch (0 default, 1 one query a frame); batches are also capped by the 16 MiB frame byte budget, so wide -fetch-keybits moduli over big stores pack fewer queries per frame")
		srvStats  = flag.Bool("server-stats", false, "with -connect: print the remote server's serving counters after the query")
	)
	flag.Parse()

	if *connect == "" && (*syncLex || *decoys > 0 || *audit) {
		fmt.Fprintln(os.Stderr, "-sync-lexicon, -decoys and -audit are remote features: they require -connect")
		os.Exit(2)
	}
	var engine *embellish.Engine
	var db *wordnet.Database
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
		engine, err = embellish.LoadEngine(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
	} else if *connect != "" && *syncLex {
		// Remote-only: the client world arrives over the wire below.
	} else {
		if *connect != "" {
			fmt.Fprintln(os.Stderr, "-connect requires -load or -sync-lexicon: the client must know the server's bucket organization")
			os.Exit(2)
		}
		var lex *embellish.Lexicon
		switch *lexKind {
		case "mini":
			db = wordnet.MiniLexicon()
			lex = embellish.MiniLexicon()
		case "synthetic":
			db = wngen.Generate(wngen.ScaledConfig(*synsets, *seed))
			lex = embellish.SyntheticLexicon(*synsets, *seed)
		default:
			fmt.Fprintf(os.Stderr, "unknown -lexicon %q\n", *lexKind)
			os.Exit(2)
		}

		// Synthesize a corpus over the lexicon's vocabulary.
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
		opts.KeyBits = *keyBits
		opts.StoreDocuments = *store || *fetchN > 0
		opts.BlockSize = *blockSize
		var err error
		engine, err = embellish.NewEngine(lex, documents, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "engine:", err)
			os.Exit(1)
		}
	}
	if engine != nil {
		fmt.Printf("engine: %d docs, %d searchable terms, %d buckets\n",
			engine.NumDocs(), engine.NumSearchableTerms(), engine.NumBuckets())
	}

	var conn net.Conn
	if *connect != "" {
		var err error
		conn, err = net.Dial("tcp", *connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "connect:", err)
			os.Exit(1)
		}
		defer conn.Close()
	}

	var client *embellish.Client
	var lemmas []string
	if engine == nil {
		world, err := embellish.SyncLexicon(conn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sync-lexicon:", err)
			os.Exit(1)
		}
		fmt.Printf("synced lexicon from %s: %d searchable terms, %d buckets (version %d)\n",
			*connect, world.NumSearchableTerms(), world.NumBuckets(), world.Version())
		if *addFile != "" || *delIDs != "" {
			fmt.Fprintln(os.Stderr, "-add/-delete need the local engine copy to assign ids and mirror state; use -load")
			os.Exit(2)
		}
		client, err = world.NewClient(nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "client:", err)
			os.Exit(1)
		}
		lemmas = world.SearchableLemmas()
	} else {
		if err := applyUpdates(engine, conn, *addFile, *delIDs); err != nil {
			fmt.Fprintln(os.Stderr, "update:", err)
			os.Exit(1)
		}
		var err error
		client, err = engine.NewClient(nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "client:", err)
			os.Exit(1)
		}
		lemmas = engine.SearchableLemmas()
	}
	if *fetchBits > 0 {
		// The PIR modulus is a per-client choice, so this works on loaded
		// engine files too (Options.RetrievalKeyBits is build-time only).
		if err := client.SetRetrievalKeyBits(*fetchBits); err != nil {
			fmt.Fprintln(os.Stderr, "fetch-keybits:", err)
			os.Exit(1)
		}
	}
	if *fetchPipe > 0 {
		if err := client.SetFetchPipeline(*fetchPipe); err != nil {
			fmt.Fprintln(os.Stderr, "fetch-pipeline:", err)
			os.Exit(1)
		}
	}

	q := *query
	if q == "" {
		// Pick two random searchable lemmas through the public API.
		rng := rand.New(rand.NewSource(*seed + 2))
		q = lemmas[rng.Intn(len(lemmas))] + " " + lemmas[rng.Intn(len(lemmas))]
	}
	fmt.Printf("\ngenuine query: %q\n", q)

	var results []embellish.Result
	if *connect != "" {
		var err error
		if *decoys > 0 {
			stream, serr := client.NewDecoyStream(embellish.DecoyStreamConfig{GhostRate: *decoys, Seed: *seed + 3})
			if serr != nil {
				fmt.Fprintln(os.Stderr, "decoys:", serr)
				os.Exit(1)
			}
			results, err = stream.SearchRemote(context.Background(), conn, q, *topk)
			if err == nil {
				st := stream.Stats()
				fmt.Printf("remote search via %s inside a burst of %d ghost queries (%d skipped)\n",
					*connect, st.Decoys, st.Skipped)
			}
		} else {
			results, err = client.SearchRemote(conn, q, *topk)
			if err == nil {
				fmt.Printf("remote search via %s\n", *connect)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "remote search:", err)
			os.Exit(1)
		}
	} else {
		eq, err := client.Embellish(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "embellish:", err)
			os.Exit(1)
		}
		if len(eq.Skipped) > 0 {
			fmt.Printf("skipped (not in dictionary): %v\n", eq.Skipped)
		}
		fmt.Printf("the search engine sees %d terms (%d bytes):\n  %s\n",
			len(eq.Terms()), eq.Bytes(), strings.Join(eq.Terms(), ", "))

		resp, err := engine.Process(eq)
		if err != nil {
			fmt.Fprintln(os.Stderr, "process:", err)
			os.Exit(1)
		}
		fmt.Printf("server: %d postings scanned, %d buckets fetched, %d candidates, %.2f ms simulated I/O\n",
			resp.Stats.PostingsScanned, resp.Stats.BucketsFetched, resp.Stats.Candidates, resp.Stats.SimulatedIOms)

		results, err = client.Decode(resp, *topk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "decode:", err)
			os.Exit(1)
		}
	}
	fmt.Println("\nprivate search results:")
	for i, r := range results {
		fmt.Printf("  %2d. doc %d (score %d)\n", i+1, r.DocID, r.Score)
	}

	if *fetchN > 0 {
		if err := fetchWinners(engine, client, conn, results, *fetchN, *fetchMode); err != nil {
			fmt.Fprintln(os.Stderr, "fetch:", err)
			os.Exit(1)
		}
	}

	if engine != nil {
		plain, err := engine.PlaintextSearch(q, *topk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plaintext:", err)
			os.Exit(1)
		}
		match := len(plain) <= len(results)
		if match {
			for i := range plain {
				if results[i].DocID != plain[i].DocID {
					match = false
					break
				}
			}
		}
		fmt.Printf("\nClaim 1 check — private ranking equals plaintext ranking: %v\n", match)
	} else {
		fmt.Println("\n(no local engine copy: Claim 1 plaintext comparison unavailable with -sync-lexicon)")
	}

	if *audit {
		report, err := embellish.SessionRiskAudit(conn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "audit:", err)
			os.Exit(1)
		}
		fmt.Printf("\nserver session audit (the server playing the paper's adversary):\n")
		fmt.Printf("  observed: %d genuine-marked queries, %d decoy-marked\n", report.Queries, report.Decoys)
		fmt.Printf("  risk-scored: %d (skipped %d); mean observed risk %.6f, worst %.6f\n",
			report.Audited, report.Skipped, report.MeanRisk, report.MaxRisk)
		if report.Rounds > 0 {
			fmt.Printf("  coherence adversary: picked the genuine query in %d of %d decoy rounds (%.0f%% success; chance would be ~%.0f%%)\n",
				report.RoundHits, report.Rounds, 100*report.AdversarySuccess(), 100/float64(*decoys+1))
			fmt.Printf("  mean term coherence: genuine %.3f, decoys %.3f (lower = more topically coherent)\n",
				report.MeanGenuineCoherence, report.MeanDecoyCoherence)
		}
	}

	if *srvStats {
		if conn == nil {
			fmt.Fprintln(os.Stderr, "-server-stats requires -connect")
			os.Exit(2)
		}
		st, err := embellish.ServerStats(conn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "server-stats:", err)
			os.Exit(1)
		}
		fmt.Printf("\nserver stats: %d queries (%d errors), %d updates, %d retrievals; %d inflight, %d queued; shed %d full / %d timeout; %d deadline cancellations\n",
			st.Queries, st.Errors, st.Updates, st.Retrievals, st.Inflight, st.Queued, st.ShedQueueFull, st.ShedQueueTimeout, st.Deadlines)
		if st.Durable {
			fmt.Printf("server durable: journal seq %d, checkpoint %d (age %v)\n",
				st.WALSeq, st.WALCheckpointSeq, st.CheckpointAge.Round(time.Millisecond))
		}
	}
}

// fetchWinners retrieves the top fetchN positive-score result
// documents — per-block PIR (mode "private"), remotely when conn is
// non-nil, or a direct read (mode "plain") for cost comparison — and
// prints each document (truncated) with the retrieval cost.
func fetchWinners(engine *embellish.Engine, client *embellish.Client, conn net.Conn, results []embellish.Result, fetchN int, mode string) error {
	var ids []int
	for _, r := range results {
		if r.Score > 0 && len(ids) < fetchN {
			ids = append(ids, r.DocID)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no positive-score results to fetch")
	}
	var docs [][]byte
	t0 := time.Now()
	switch mode {
	case "private":
		var st embellish.FetchStats
		var err error
		if conn != nil {
			docs, st, err = client.FetchDocumentsRemote(conn, ids)
		} else {
			docs, st, err = client.FetchDocuments(ids)
		}
		if err != nil {
			return err
		}
		fmt.Printf("\nfetched %d documents privately in %v: %d PIR runs on %d selection vectors, %d query bytes up, %d answer bytes down\n",
			len(ids), time.Since(t0).Round(time.Microsecond), st.Runs, st.Vectors, st.QueryBytes, st.AnswerBytes)
		fmt.Println("the server cannot tell which documents were fetched, only how many blocks")
	case "plain":
		if engine == nil {
			return fmt.Errorf("-fetch-mode plain reads the LOCAL engine copy; unavailable with -sync-lexicon")
		}
		for _, id := range ids {
			d, err := engine.Document(id)
			if err != nil {
				return err
			}
			docs = append(docs, d)
		}
		fmt.Printf("\nread %d documents in the clear from the LOCAL engine copy in %v\n",
			len(ids), time.Since(t0).Round(time.Microsecond))
		fmt.Println("(a conventional remote download would reveal every fetched id to the server)")
	default:
		return fmt.Errorf("unknown -fetch-mode %q", mode)
	}
	for i, d := range docs {
		text := string(d)
		if len(text) > 72 {
			text = text[:72] + "..."
		}
		fmt.Printf("  doc %d (%d bytes): %s\n", ids[i], len(d), text)
	}
	return nil
}

// applyUpdates runs the -add / -delete live updates: on the remote
// server when conn is non-nil (mirrored locally so the Claim 1
// comparison tracks the server's corpus), else on the local engine.
func applyUpdates(engine *embellish.Engine, conn net.Conn, addFile, delIDs string) error {
	if addFile != "" {
		data, err := os.ReadFile(addFile)
		if err != nil {
			return err
		}
		base := engine.NextDocID()
		var docs []embellish.Document
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				docs = append(docs, embellish.Document{ID: base + len(docs), Text: line})
			}
		}
		if len(docs) == 0 {
			return fmt.Errorf("%s holds no documents", addFile)
		}
		if conn != nil {
			st, err := embellish.AddDocumentsRemote(conn, docs)
			if err != nil {
				return err
			}
			fmt.Printf("added %d docs remotely: server now %d live docs in %d segments\n",
				len(docs), st.LiveDocs, st.Segments)
		}
		if err := engine.AddDocuments(docs); err != nil {
			return err
		}
		fmt.Printf("added docs %d..%d live (%d segments locally)\n",
			base, base+len(docs)-1, engine.NumSegments())
	}
	if delIDs != "" {
		var ids []int
		for _, f := range strings.Split(delIDs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad -delete id %q: %w", f, err)
			}
			ids = append(ids, id)
		}
		if conn != nil {
			st, err := embellish.DeleteDocumentsRemote(conn, ids)
			if err != nil {
				return err
			}
			fmt.Printf("deleted %d docs remotely: server now %d live docs\n", len(ids), st.LiveDocs)
		}
		if err := engine.DeleteDocuments(ids); err != nil {
			return err
		}
		fmt.Printf("deleted docs %v live (%d live docs locally)\n", ids, engine.NumDocs())
	}
	return nil
}
