package embellish

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"embellish/internal/detrand"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// fetchAll fetches every live document id in the store world.
func fetchAllIDs(nDocs int) []int {
	ids := make([]int, nDocs)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestFetchDocumentsRecursiveLocal proves the recursive fetch path on
// the in-process transport: byte-identical documents to the flat path
// on the same corpus, with fewer uploaded query bytes than a written-out
// vector per block and the wider recursive answers accounted.
func TestFetchDocumentsRecursiveLocal(t *testing.T) {
	e, c, texts := storeWorld(t, 40, 32, Durability{})
	ids := fetchAllIDs(40)

	flat, flatSt, err := c.FetchDocuments(ids)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFetchRecursive(true)
	rec, recSt, err := c.FetchDocuments(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !bytes.Equal(flat[i], rec[i]) {
			t.Fatalf("doc %d: recursive fetch %q != flat fetch %q", id, rec[i], flat[i])
		}
		if string(rec[i]) != texts[id] {
			t.Fatalf("doc %d: fetched %q, want %q", id, rec[i], texts[id])
		}
	}
	// The recursive protocol runs once per block, the flat one once per
	// column of a class view: once per document here.
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, id := range ids {
		blocks += int(sn.Params().Exts[id].Blocks)
	}
	if recSt.Runs != blocks || flatSt.Runs != len(ids) {
		t.Fatalf("recursive ran %d executions, flat %d, for %d blocks of %d documents", recSt.Runs, flatSt.Runs, blocks, len(ids))
	}
	// The point of the recursion: per-query upload drops from n to <=
	// 3*ceil(sqrt(n)) group elements. (The flat protocol's seeded
	// vectors, a seed and two bits a column per document, undercut both.)
	key, err := c.pirKey()
	if err != nil {
		t.Fatal(err)
	}
	if perBlock := recSt.Runs * key.QueryBytes(sn.NumBlocks()); recSt.QueryBytes >= perBlock {
		t.Fatalf("recursive uploaded %d query bytes, a written-out vector per block %d — no upload win", recSt.QueryBytes, perBlock)
	}
	// The trade: recursive answers are modBytes times wider.
	if recSt.AnswerBytes <= flatSt.AnswerBytes {
		t.Fatalf("recursive answers %d bytes, flat %d — accounting broken", recSt.AnswerBytes, flatSt.AnswerBytes)
	}
}

// TestFetchDocumentsRecursiveRemote drives type-23 frames over TCP:
// byte-identity against direct reads, upload accounting below the flat
// path, and the server's recursive counters tracking the executions.
func TestFetchDocumentsRecursiveRemote(t *testing.T) {
	e, _, texts := storeWorld(t, 30, 32, Durability{})
	srv := e.NewNetServer(ServeConfig{AllowRetrieval: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.NewClient(detrand.New("recursive-remote"))
	if err != nil {
		t.Fatal(err)
	}
	c.SetFetchRecursive(true)
	ids := fetchAllIDs(20)
	got, st, err := c.FetchDocumentsRemote(conn, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if string(got[i]) != texts[id] {
			t.Fatalf("doc %d: fetched %q, want %q", id, got[i], texts[id])
		}
	}
	// Accounting sanity: the recursive frames really went over the wire.
	flatClient, err := e.NewClient(detrand.New("flat-remote"))
	if err != nil {
		t.Fatal(err)
	}
	_, flatSt, err := flatClient.FetchDocumentsRemote(conn, ids)
	if err != nil {
		t.Fatal(err)
	}
	if st.AnswerBytes <= flatSt.AnswerBytes {
		t.Fatalf("recursive downloaded %d answer bytes, flat %d", st.AnswerBytes, flatSt.AnswerBytes)
	}
	conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	stats := srv.Stats()
	if stats.PIRRecursiveQueries != int64(st.Runs) {
		t.Fatalf("server counted %d recursive queries, client ran %d", stats.PIRRecursiveQueries, st.Runs)
	}
	if stats.Retrievals != int64(st.Runs+flatSt.Runs) {
		t.Fatalf("server counted %d retrievals, clients ran %d", stats.Retrievals, st.Runs+flatSt.Runs)
	}
}

// TestFetchRecursiveRemoteCancellation: a deadline expiring mid-fetch
// surfaces ctx.Err() through the recursive path without wedging the
// client or the server.
func TestFetchRecursiveRemoteCancellation(t *testing.T) {
	e, _, _ := storeWorld(t, 30, 32, Durability{})
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := e.NewClient(detrand.New("cancel-client"))
	if err != nil {
		t.Fatal(err)
	}
	c.SetFetchRecursive(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.FetchDocumentsRemoteContext(ctx, conn, fetchAllIDs(20)); err == nil {
		t.Fatal("cancelled recursive fetch succeeded")
	}
}

// TestRecursiveFetchChecksumFailureKeepsConnectionUsable: a document
// deleted as the type-23 frame leaves fails its checksum, and the
// recursive fetch, like the flat one, reads the rest of the frame's
// answers before it returns — so the same session still searches and
// fetches, the reuse contract of FetchDocumentsRemote.
func TestRecursiveFetchChecksumFailureKeepsConnectionUsable(t *testing.T) {
	e, _, texts := storeWorld(t, 25, 32, Durability{})
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const victim, bystander = 5, 9
	conn := &onFirstBatch{Conn: raw, typ: wire.TypePIRRecursiveQuery, do: func() {
		if err := e.DeleteDocuments([]int{victim}); err != nil {
			t.Errorf("mid-fetch delete: %v", err)
		}
	}}
	c, err := e.NewClient(detrand.New("recursive-drain-client"))
	if err != nil {
		t.Fatal(err)
	}
	c.SetFetchRecursive(true)
	_, _, err = c.FetchDocumentsRemote(conn, []int{victim, bystander})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("mid-fetch delete not surfaced as checksum failure: %v", err)
	}

	if _, err := c.SearchRemote(conn, miniLemmas()[1], 3); err != nil {
		t.Fatalf("search after the failed recursive fetch: %v", err)
	}
	got, _, err := c.FetchDocumentsRemote(conn, []int{bystander})
	if err != nil {
		t.Fatalf("fetch after the failed recursive fetch: %v", err)
	}
	if string(got[0]) != texts[bystander] {
		t.Fatalf("post-failure fetch returned %q, want %q", got[0], texts[bystander])
	}
}

// TestRetiredRecursiveType: type 22 — the same frame layout under the
// retired bit-per-ciphertext semantics — reaches no decoder: a server
// answers a well-formed type-22 frame from the default branch, with the
// frozen unknown-type refusal, and the connection survives to serve the
// same body as type 23.
func TestRetiredRecursiveType(t *testing.T) {
	e, _, texts := storeWorld(t, 20, 32, Durability{})
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	params := sn.Params()
	const doc = 3
	block := int(params.Exts[doc].First)
	key, err := pir.GenerateKey(detrand.New("retired-22"), 64)
	if err != nil {
		t.Fatal(err)
	}
	q, err := key.NewRecursiveQuery(detrand.New("retired-22-q"), params.NumBlocks, block)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := wire.WritePIRRecursiveQuery(&frame, []*pir.RecursiveQuery{q}); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(&frame)
	if err != nil || typ != 23 {
		t.Fatalf("recursive frame has type %d (err %v), want 23", typ, err)
	}

	if err := wire.WriteRaw(conn, 22, body); err != nil {
		t.Fatal(err)
	}
	rtyp, rbody, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if rtyp != wire.TypeError || string(rbody) != wire.UnknownTypeRefusal+" 22" {
		t.Fatalf("type 22 answered type %d %q, want the default-branch refusal", rtyp, rbody)
	}
	if !strings.HasPrefix(string(rbody), wire.UnknownTypeRefusal) {
		t.Fatalf("refusal %q lost the frozen prefix", rbody)
	}

	if err := wire.WriteRaw(conn, wire.TypePIRRecursiveQuery, body); err != nil {
		t.Fatal(err)
	}
	rtyp, rbody, err = wire.ReadMessage(conn)
	if err != nil || rtyp != wire.TypePIRBatchResponse {
		t.Fatalf("type 23 after the refusal answered type %d %q (err %v)", rtyp, rbody, err)
	}
	_, ans, err := wire.DecodePIRBatchAnswer(rbody)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := key.DecodeRecursive(ans, params.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := texts[doc][:min(len(texts[doc]), params.BlockSize)]
	if got := pir.ColumnBytes(bits)[:len(want)]; string(got) != want {
		t.Fatalf("first block of document %d over type 23: %q, want %q", doc, got, want)
	}
}
