package embellish

import (
	"bytes"
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

// TestFetchColdViewsConcurrently: several connections fetch the same
// documents at once from views no scan has transposed yet — each round
// runs on a fresh snapshot, the first on the built store and the rest
// after AddDocuments or DeleteDocuments — so their cold scans fill each
// view's transposition side by side and later frames read it. Every
// fetch returns Engine.Document's bytes.
func TestFetchColdViewsConcurrently(t *testing.T) {
	e, _, _ := storeWorld(t, 30, 32, Durability{})
	lemmas := miniLemmas()
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	const fetchers = 4
	clients := make([]*Client, fetchers)
	conns := make([]net.Conn, fetchers)
	for i := range clients {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		c, err := e.NewClient(detrand.New(fmt.Sprintf("cold-view-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		clients[i], conns[i] = c, conn
	}
	for round := 0; round < 4; round++ {
		switch round {
		case 1, 3:
			base := e.NextDocID()
			docs := []Document{{ID: base, Text: storeDocText(base, lemmas)}, {ID: base + 1, Text: fmt.Sprintf("%s %s #filler-%d", lemmas[30], lemmas[30], base+1)}}
			if err := e.AddDocuments(docs); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := e.DeleteDocuments([]int{2, 9, 16}); err != nil {
				t.Fatal(err)
			}
		}
		var ids []int
		var want [][]byte
		for id := round; id < e.NextDocID(); id += 3 {
			if doc, err := e.Document(id); err == nil {
				ids, want = append(ids, id), append(want, doc)
			}
		}
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, _, err := clients[i].FetchDocumentsRemote(conns[i], ids)
				if err != nil {
					t.Errorf("round %d, fetcher %d: %v", round, i, err)
					return
				}
				for j, id := range ids {
					if string(got[j]) != string(want[j]) {
						t.Errorf("round %d, fetcher %d: doc %d fetched %q, want %q", round, i, id, got[j], want[j])
					}
				}
			}(i)
		}
		wg.Wait()
	}
}

// TestRetrievalDisabledByDefault: a server without AllowRetrieval
// refuses params and query messages with a wire error (and keeps the
// connection serving searches); a retrieval-enabled server over a
// store-less engine explains itself too.
func TestRetrievalDisabledByDefault(t *testing.T) {
	e, _, _ := storeWorld(t, 30, 32, Durability{})
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
	e, _, _ := storeWorld(t, 20, 32, Durability{})
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
	e, c, texts := storeWorld(t, 20, 32, Durability{})
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true})
	old, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const target = 5
	h, col, _ := old.Layout().Place(target)
	q, err := key.NewSeededQuery(detrand.New("one-path"), old.Layout().Widths()[h], col)
	if err != nil {
		t.Fatal(err)
	}
	q.Height = h
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

	if err := wire.WritePIRBatchQuery(conn, []*pir.Query{{N: q.N, Values: q.Values, Height: h}}); err != nil {
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

	if !bytes.Equal(single.Image, batched.Image) {
		t.Fatalf("the written-out frame's %d gammas differ from the seeded frame's %d", single.Count(), batched.Count())
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
	hn, coln, _ := grown.Layout().Place(id)
	oldW, newW := old.Layout().Widths()[hn], grown.Layout().Widths()[hn]
	if newW == oldW || oldW == 0 {
		t.Fatalf("append left view %d at %d columns, from %d", hn, newW, oldW)
	}
	targets := []int{0, coln, oldW - 1}
	widths := []int{oldW, newW, oldW}
	frame := make([]*pir.Query, len(targets))
	for i := range frame {
		if frame[i], err = key.NewQuery(detrand.New(fmt.Sprintf("mixed-%d", i)), widths[i], targets[i]); err != nil {
			t.Fatal(err)
		}
		frame[i].Height = hn
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
		if !bytes.Equal(ans.Image, want.Image) {
			t.Fatalf("mixed-width answer %d differs from the oracle", i)
		}
	}
}

// TestPIRBatchDeadlineStreamsNoPartialAnswer: the deadline covers a
// whole batch frame, so an expired one is answered with exactly one
// deadline refusal — never a prefix of answers — and the connection
// stays frame-aligned.
func TestPIRBatchDeadlineStreamsNoPartialAnswer(t *testing.T) {
	e, c, _ := storeWorld(t, 20, 32, Durability{})
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true, RequestTimeout: time.Nanosecond})
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]*pir.Query, 3)
	for i := range frame {
		if frame[i], err = key.NewQuery(detrand.New(fmt.Sprintf("deadline-%d", i)), sn.Layout().Widths()[1], i%sn.Layout().Widths()[1]); err != nil {
			t.Fatal(err)
		}
		frame[i].Height = 1
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
