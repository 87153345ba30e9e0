package embellish

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"embellish/internal/detrand"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// startRetrievalServer serves the engine over TCP and returns the
// address plus a cleanup-registered shutdown.
func startRetrievalServer(t *testing.T, e *Engine, cfg ServeConfig) string {
	t.Helper()
	srv := e.NewNetServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return l.Addr().String()
}

// TestRemoteSearchThenPIRFetchDuringChurn is the end-to-end acceptance
// path: a remote client ranks privately over TCP and then PIR-fetches
// the winning documents over the same connection, byte-identical to
// the indexed text, while another goroutine churns the corpus with
// adds and deletes the whole time. A quiescent final pass ties the
// fetched bytes to PlaintextSearch's selection exactly.
func TestRemoteSearchThenPIRFetchDuringChurn(t *testing.T) {
	lemmas := miniLemmas()
	e, _, texts := storeWorld(t, 30, 32)
	var mu sync.Mutex // guards texts
	addr := startRetrievalServer(t, e, ServeConfig{AllowUpdates: true, AllowRetrieval: true})

	queries := []string{
		lemmas[1] + " " + lemmas[6],
		lemmas[11] + " " + lemmas[16],
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn: grow the corpus, delete only filler docs
		defer wg.Done()
		var fillers []int
		// Bounded and throttled: PIR fetch cost scales with the block
		// count, so unchecked growth would starve the fetch rounds.
		for i := 0; i < 25; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			base := e.NextDocID()
			docs := make([]Document, 2)
			mu.Lock()
			for j := range docs {
				id := base + j
				if j == 0 {
					texts[id] = fillerDocText(id, lemmas)
					fillers = append(fillers, id)
				} else {
					texts[id] = storeDocText(id, lemmas)
				}
				docs[j] = Document{ID: id, Text: texts[id]}
			}
			mu.Unlock()
			if err := e.AddDocuments(docs); err != nil {
				t.Errorf("churn add: %v", err)
				return
			}
			if len(fillers) > 3 {
				id := fillers[0]
				fillers = fillers[1:]
				if err := e.DeleteDocuments([]int{id}); err != nil {
					t.Errorf("churn delete %d: %v", id, err)
					return
				}
			}
		}
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := e.NewClient(detrand.New("remote-fetcher"))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		query := queries[round%len(queries)]
		res, err := c.SearchRemote(conn, query, 5)
		if err != nil {
			t.Fatalf("round %d search: %v", round, err)
		}
		var winners []int
		for _, r := range res {
			if r.Score > 0 {
				winners = append(winners, r.DocID)
			}
		}
		if len(winners) == 0 {
			t.Fatalf("round %d: query %q matched nothing", round, query)
		}
		got, st, err := c.FetchDocumentsRemote(conn, winners)
		if err != nil {
			t.Fatalf("round %d fetch: %v", round, err)
		}
		if st.Runs == 0 {
			t.Fatalf("round %d: no PIR executions accounted", round)
		}
		mu.Lock()
		for i, id := range winners {
			if want := texts[id]; string(got[i]) != want {
				mu.Unlock()
				t.Fatalf("round %d doc %d: fetched %q, want %q", round, id, got[i], want)
			}
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiescent pass: with churn stopped, the remote ranking equals
	// PlaintextSearch on the same corpus state, and the PIR-fetched
	// bytes equal the direct reads of exactly those selected documents.
	snap := e.Snapshot()
	query := queries[0]
	res, err := c.SearchRemote(conn, query, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := snap.PlaintextSearch(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < len(plain) {
		t.Fatalf("remote returned %d results for %d plaintext hits", len(res), len(plain))
	}
	ids := make([]int, len(plain))
	for i, p := range plain {
		if res[i].DocID != p.DocID || res[i].Score != p.Score {
			t.Fatalf("rank %d: remote %+v, plaintext %+v", i, res[i], p)
		}
		ids[i] = p.DocID
	}
	got, _, err := c.FetchDocumentsRemote(conn, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		direct, err := snap.Document(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[i]) != string(direct) {
			t.Fatalf("doc %d: PIR fetch %q != direct %q", id, got[i], direct)
		}
	}
	// A deleted id is refused remotely too.
	var deletedID = -1
	mu.Lock()
	for id, text := range texts {
		if strings.Contains(text, "#filler-") {
			if _, err := e.Document(id); err != nil {
				deletedID = id
				break
			}
		}
	}
	mu.Unlock()
	if deletedID >= 0 {
		if _, _, err := c.FetchDocumentsRemote(conn, []int{deletedID}); err == nil {
			t.Fatalf("tombstoned doc %d fetched remotely", deletedID)
		}
	}
}

// TestRetrievalDisabledByDefault: a server without AllowRetrieval
// refuses params and query messages with a wire error (and keeps the
// connection serving searches); a retrieval-enabled server over a
// store-less engine explains itself too.
func TestRetrievalDisabledByDefault(t *testing.T) {
	e, _, _ := storeWorld(t, 30, 32)
	addr := startRetrievalServer(t, e, ServeConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := e.NewClient(detrand.New("gate-client"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.FetchDocumentsRemote(conn, []int{0})
	if err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("retrieval not refused: %v", err)
	}
	// The connection survives the refusal: searches still work.
	lemmas := miniLemmas()
	if _, err := c.SearchRemote(conn, lemmas[1], 3); err != nil {
		t.Fatalf("search after refused retrieval: %v", err)
	}

	// Retrieval enabled but nothing stored.
	plain, pc := liveTestEngine(t, 0)
	addr2 := startRetrievalServer(t, plain, ServeConfig{AllowRetrieval: true})
	conn2, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	_, _, err = pc.FetchDocumentsRemote(conn2, []int{0})
	if err == nil || !strings.Contains(err.Error(), "stores no documents") {
		t.Fatalf("store-less retrieval not refused: %v", err)
	}
}

// TestServeStatsCountRetrievals: the Retrievals counter tracks PIR
// protocol executions.
func TestServeStatsCountRetrievals(t *testing.T) {
	e, _, _ := storeWorld(t, 20, 32)
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
	c, err := e.NewClient(detrand.New("stats-client"))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := c.FetchDocumentsRemote(conn, []int{2, 7})
	if err != nil {
		t.Fatal(err)
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
	if stats.Retrievals != int64(st.Runs) {
		t.Fatalf("server counted %d retrievals, client ran %d", stats.Retrievals, st.Runs)
	}
	if fmt.Sprint(st.Runs) == "0" {
		t.Fatal("no PIR executions ran")
	}
}

// pirFrameConn dials a retrieval server and returns the connection plus
// a client-side key for hand-built PIR frames.
func pirFrameConn(t *testing.T, e *Engine, c *Client, cfg ServeConfig) (net.Conn, *pir.ClientKey) {
	t.Helper()
	conn, err := net.Dial("tcp", startRetrievalServer(t, e, cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	key, err := c.pirKey()
	if err != nil {
		t.Fatal(err)
	}
	return conn, key
}

// TestPIRFramesShareOnePath: a seeded query is its vector. The same
// query sent written out and seeded, each a one-query batch frame,
// returns byte-identical gammas and charges the SAME multiplications to
// ServerStats, the executor's own count for a batch of one — one executor
// serves both — and a batch frame whose queries address different prefix
// widths (a fetch racing an append) is grouped by width and still
// answered in frame order.
func TestPIRFramesShareOnePath(t *testing.T) {
	e, c, texts := storeWorld(t, 20, 32)
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true})
	old, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const target = 5
	q, err := key.NewSeededQuery(detrand.New("one-path"), old.NumBlocks(), target)
	if err != nil {
		t.Fatal(err)
	}
	work := func() (int64, int64) {
		t.Helper()
		ss, err := ServerStats(conn)
		if err != nil {
			t.Fatal(err)
		}
		return ss.PIRModMuls, ss.PIRTableMuls
	}
	readAnswer := func(want byte) []byte {
		t.Helper()
		typ, body, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ != want {
			t.Fatalf("frame type %d (%q), want %d", typ, body, want)
		}
		return body
	}

	if err := wire.WritePIRBatchQuery(conn, []*pir.Query{{N: q.N, Values: q.Values}}); err != nil {
		t.Fatal(err)
	}
	idx, single, err := wire.DecodePIRBatchAnswer(readAnswer(wire.TypePIRBatchResponse))
	if err != nil || idx != 0 {
		t.Fatalf("written-out answer: index %d, err %v", idx, err)
	}
	mulsSingle, tableSingle := work()

	if err := wire.WritePIRBatchQuery(conn, []*pir.Query{q}); err != nil {
		t.Fatal(err)
	}
	idx, batched, err := wire.DecodePIRBatchAnswer(readAnswer(wire.TypePIRBatchResponse))
	if err != nil || idx != 0 {
		t.Fatalf("seeded answer: index %d, err %v", idx, err)
	}
	mulsBoth, tableBoth := work()

	if len(single.Gammas) != len(batched.Gammas) {
		t.Fatalf("written-out frame %d gammas, seeded frame %d", len(single.Gammas), len(batched.Gammas))
	}
	for r := range single.Gammas {
		if single.Gammas[r].Cmp(batched.Gammas[r]) != 0 {
			t.Fatalf("gamma %d differs between the written-out and the seeded frame", r)
		}
	}
	if mulsSingle <= 0 || mulsBoth != 2*mulsSingle || tableBoth != 2*tableSingle {
		t.Fatalf("work written-out frame (%d, %d), after the seeded one (%d, %d): the frames ran different plans",
			mulsSingle, tableSingle, mulsBoth, tableBoth)
	}
	// ... and that one plan is the executor's batch of one.
	_, direct, err := old.AnswerMultiExecCtx(context.Background(), []*pir.Query{q}, pir.Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if int64(direct[0].ModMuls) != mulsSingle || int64(direct[0].TableMuls) != tableSingle {
		t.Fatalf("written-out frame charged (%d, %d), the executor's batch of one costs %+v", mulsSingle, tableSingle, direct[0])
	}

	// Grow the store, then one frame mixing the old and the new width.
	id := e.NumDocs()
	texts[id] = storeDocText(id, miniLemmas())
	if err := e.AddDocuments([]Document{{ID: id, Text: texts[id]}}); err != nil {
		t.Fatal(err)
	}
	grown, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumBlocks() == old.NumBlocks() {
		t.Fatal("append did not grow the store")
	}
	targets := []int{3, grown.NumBlocks() - 1, 9}
	widths := []int{old.NumBlocks(), grown.NumBlocks(), old.NumBlocks()}
	frame := make([]*pir.Query, len(targets))
	for i := range frame {
		if frame[i], err = key.NewQuery(detrand.New(fmt.Sprintf("mixed-%d", i)), widths[i], targets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.WritePIRBatchQuery(conn, frame); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		idx, ans, err := wire.DecodePIRBatchAnswer(readAnswer(wire.TypePIRBatchResponse))
		if err != nil || idx != i {
			t.Fatalf("mixed-width answer %d: index %d, err %v", i, idx, err)
		}
		want, _, err := grown.AnswerCtx(context.Background(), frame[i])
		if err != nil {
			t.Fatal(err)
		}
		for r := range want.Gammas {
			if ans.Gammas[r].Cmp(want.Gammas[r]) != 0 {
				t.Fatalf("mixed-width answer %d gamma %d differs from the oracle", i, r)
			}
		}
	}
}

// TestPIRBatchDeadlineStreamsNoPartialAnswer: the deadline covers a
// whole batch frame, so an expired one is answered with exactly one
// deadline refusal — never a prefix of answers — and the connection
// stays frame-aligned.
func TestPIRBatchDeadlineStreamsNoPartialAnswer(t *testing.T) {
	e, c, _ := storeWorld(t, 20, 32)
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true, RequestTimeout: time.Nanosecond})
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]*pir.Query, 3)
	for i := range frame {
		if frame[i], err = key.NewQuery(detrand.New(fmt.Sprintf("deadline-%d", i)), sn.NumBlocks(), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.WritePIRBatchQuery(conn, frame); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError || !strings.HasPrefix(string(body), wire.DeadlineRefusal) {
		t.Fatalf("expired batch frame answered with type %d %q, want one deadline refusal", typ, body)
	}
	// The very next frame on the stream is the stats reply: nothing else
	// was streamed for the abandoned batch.
	ss, err := ServerStats(conn)
	if err != nil {
		t.Fatalf("stream misaligned after the refusal: %v", err)
	}
	if ss.Retrievals != 0 || ss.Deadlines != 1 {
		t.Fatalf("after one expired batch: %d retrievals, %d deadline cancellations", ss.Retrievals, ss.Deadlines)
	}
}
