package embellish_test

import (
	"bytes"
	"fmt"
	"log"
	"net"

	"embellish"
)

// exampleDocs is a tiny fixed corpus over the mini lexicon's
// vocabulary — small enough that every example below runs in
// milliseconds, rich enough that rankings are nontrivial.
func exampleDocs() []embellish.Document {
	texts := []string{
		"osteosarcoma radiation therapy osteosarcoma oncologist bone cancer",
		"amaranthaceae plant disease flooding leaf amaranthaceae",
		"hypocapnia diver oxygen diving asphyxia hypocapnia diver",
		"vintner wine zymosis vintner wine making yeast",
		"terrorism security abu sayyaf terrorism violent crime",
		"pigeon finch bird gray whale fish pigeon bird",
		"oncologist osteosarcoma therapy sarcoma tumor",
		"diver hypocapnia nitrogen diving bends",
	}
	docs := make([]embellish.Document, len(texts))
	for i, t := range texts {
		docs[i] = embellish.Document{ID: i, Text: t}
	}
	return docs
}

// exampleOptions returns demo-sized options: small keys keep the
// examples fast; production wants KeyBits >= 512 and retrieval keys
// >= 1024 bits.
func exampleOptions() embellish.Options {
	opts := embellish.DefaultOptions()
	opts.BucketSize = 2
	opts.KeyBits = 128
	opts.ScoreSpace = 10
	return opts
}

// ExampleNewEngine builds a searchable private-retrieval engine from
// a lexicon and a document collection.
func ExampleNewEngine() {
	engine, err := embellish.NewEngine(embellish.MiniLexicon(), exampleDocs(), exampleOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("documents:", engine.NumDocs())
	fmt.Println("stores document bytes:", engine.StoresDocuments())
	// Output:
	// documents: 8
	// stores document bytes: false
}

// ExampleClient_Search runs one end-to-end private search: the query
// is embellished with decoys, the engine accumulates encrypted
// scores, the client decrypts and ranks — identically to an
// unprotected search (the paper's Claim 1).
func ExampleClient_Search() {
	engine, err := embellish.NewEngine(embellish.MiniLexicon(), exampleDocs(), exampleOptions())
	if err != nil {
		log.Fatal(err)
	}
	client, err := engine.NewClient(nil) // fresh key pair; the engine never sees it
	if err != nil {
		log.Fatal(err)
	}
	results, err := client.Search("osteosarcoma", 2)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%d. doc %d score %d\n", i+1, r.DocID, r.Score)
	}
	plain, err := engine.PlaintextSearch("osteosarcoma", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches plaintext ranking:", results[0].DocID == plain[0].DocID && results[1].DocID == plain[1].DocID)
	// Output:
	// 1. doc 0 score 173
	// 2. doc 6 score 120
	// matches plaintext ranking: true
}

// ExampleEngine_AddDocuments updates the corpus online: ids continue
// the dense sequence NextDocID reports, deletes tombstone in place,
// and searches are never blocked.
func ExampleEngine_AddDocuments() {
	engine, err := embellish.NewEngine(embellish.MiniLexicon(), exampleDocs(), exampleOptions())
	if err != nil {
		log.Fatal(err)
	}
	next := engine.NextDocID()
	err = engine.AddDocuments([]embellish.Document{
		{ID: next, Text: "hypocapnia oxygen diver hypocapnia hypocapnia"},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.DeleteDocuments([]int{2}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("live documents:", engine.NumDocs())
	fmt.Println("next id:", engine.NextDocID())

	// The new document ranks; the tombstoned one never does. (Like
	// Lucene, an added batch computes impacts from its own segment's
	// statistics — see the AddDocuments doc comment — which is why the
	// term-dense newcomer does not automatically outrank doc 7 here.)
	results, err := engine.PlaintextSearch("hypocapnia", 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%d. doc %d\n", i+1, r.DocID)
	}
	// Output:
	// live documents: 8
	// next id: 9
	// 1. doc 7
	// 2. doc 8
}

// ExampleClient_FetchDocuments privately retrieves a ranked winner:
// the server multiplies over every stored block and learns only how
// many blocks were fetched, never which document won.
func ExampleClient_FetchDocuments() {
	opts := exampleOptions()
	opts.StoreDocuments = true // keep the bytes, laid out into PIR blocks
	opts.BlockSize = 64
	opts.RetrievalKeyBits = 64 // demo-sized PIR modulus
	engine, err := embellish.NewEngine(embellish.MiniLexicon(), exampleDocs(), opts)
	if err != nil {
		log.Fatal(err)
	}
	client, err := engine.NewClient(nil)
	if err != nil {
		log.Fatal(err)
	}
	results, err := client.Search("vintner", 1)
	if err != nil {
		log.Fatal(err)
	}
	docs, stats, err := client.FetchDocuments([]int{results[0].DocID})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched doc %d in %d PIR runs: %s\n", results[0].DocID, stats.Runs, docs[0])
	// Output:
	// fetched doc 3 in 1 PIR runs: vintner wine zymosis vintner wine making yeast
}

// ExampleClient_FetchDocumentsRemote ranks and then fetches over one
// TCP connection against a NetServer; block queries are pipelined in
// batch frames (SetFetchPipeline).
func ExampleClient_FetchDocumentsRemote() {
	opts := exampleOptions()
	opts.StoreDocuments = true
	opts.BlockSize = 64
	opts.RetrievalKeyBits = 64
	engine, err := embellish.NewEngine(embellish.MiniLexicon(), exampleDocs(), opts)
	if err != nil {
		log.Fatal(err)
	}
	srv := engine.NewNetServer(embellish.ServeConfig{AllowRetrieval: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	client, err := engine.NewClient(nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.SetFetchPipeline(8); err != nil {
		log.Fatal(err)
	}
	results, err := client.SearchRemote(conn, "terrorism", 1)
	if err != nil {
		log.Fatal(err)
	}
	docs, _, err := client.FetchDocumentsRemote(conn, []int{results[0].DocID})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("doc %d: %s\n", results[0].DocID, docs[0])
	// Output:
	// doc 4: terrorism security abu sayyaf terrorism violent crime
}

// ExampleEngine_Save persists an engine — lexicon, segments, bucket
// organization and document store — and loads it back; client and
// server load the same file so they agree on the bucket organization.
func ExampleEngine_Save() {
	opts := exampleOptions()
	opts.StoreDocuments = true
	opts.RetrievalKeyBits = 64
	engine, err := embellish.NewEngine(embellish.MiniLexicon(), exampleDocs(), opts)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.Save(&buf); err != nil {
		log.Fatal(err)
	}
	loaded, err := embellish.LoadEngine(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loaded documents:", loaded.NumDocs())
	fmt.Println("loaded store:", loaded.StoresDocuments())
	// Output:
	// loaded documents: 8
	// loaded store: true
}
