package embellish

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"embellish/internal/detrand"
	"embellish/internal/wire"
)

// shardedTestEngine builds an engine at GOMAXPROCS 4, so its one
// schedule runs the full concurrent pipeline on any host: four document
// shards, fixed-base precomputation, and the worker pool.
func shardedTestEngine(t *testing.T) (*Engine, *Client) {
	t.Helper()
	setProcs(t, 4)
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	e, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	c, err := e.NewClient(detrand.New("concurrency-test"))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return e, c
}

// testQueries returns distinct single- and multi-term queries drawn
// from the engine's searchable dictionary.
func testQueries(e *Engine, n int) []string {
	out := make([]string, n)
	for i := range out {
		a := e.lex.db.Lemma(e.searchable[(2*i)%len(e.searchable)])
		b := e.lex.db.Lemma(e.searchable[(2*i+7)%len(e.searchable)])
		out[i] = a + " " + b
	}
	return out
}

// TestSearchRemoteBatch sends several queries as one batch frame and
// checks each ranking against single-query SearchRemote and plaintext.
func TestSearchRemoteBatch(t *testing.T) {
	e, c := shardedTestEngine(t)
	client, server := net.Pipe()
	defer client.Close()
	go e.ServeConn(server)

	queries := testQueries(e, 3)
	batched, err := c.SearchRemoteBatch(client, queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(queries) {
		t.Fatalf("%d batch results, want %d", len(batched), len(queries))
	}
	for i, query := range queries {
		want, err := e.PlaintextSearch(query, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(batched[i]), len(want))
		}
		for j := range want {
			if batched[i][j] != want[j] {
				t.Fatalf("query %d rank %d: batch %+v plaintext %+v", i, j, batched[i][j], want[j])
			}
		}
	}

	// The connection stays usable for single queries after a batch.
	if _, err := c.SearchRemote(client, queries[0], 5); err != nil {
		t.Fatalf("single query after batch: %v", err)
	}
}

// TestNetServerConnLimit verifies connections over the cap are answered
// with a protocol error and closed, while existing sessions keep
// working.
func TestNetServerConnLimit(t *testing.T) {
	e, c := shardedTestEngine(t)
	srv := e.NewNetServer(ServeConfig{MaxConns: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	first, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	query := testQueries(e, 1)[0]
	if _, err := c.SearchRemote(first, query, 5); err != nil {
		t.Fatalf("first connection rejected: %v", err)
	}

	// The server answers an over-limit connection with an error frame
	// before hanging up; read it without sending anything (a write could
	// race the server's close and reset the connection).
	second, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, body, err := wire.ReadMessage(second)
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if typ != wire.TypeError || !strings.Contains(string(body), "connection limit") {
		t.Fatalf("got type %d body %q, want connection-limit error", typ, body)
	}

	// The first session must still answer after the rejection.
	if _, err := c.SearchRemote(first, query, 5); err != nil {
		t.Fatalf("existing session broken by rejected connection: %v", err)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

// TestNetServerShutdownIdle: Shutdown on an idle server returns
// promptly, closes the listener, and Serve returns nil.
func TestNetServerShutdownIdle(t *testing.T) {
	e, _ := shardedTestEngine(t)
	srv := e.NewNetServer(ServeConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// Give Serve a moment to register the listener.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
	if _, err := net.Dial("tcp", l.Addr().String()); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
