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

// TestEngineProcessConcurrent drives parallel Engine.Process calls on
// one sharded engine; under -race this is the data-race check for the
// shared sharded view, fixed-base tables and stats plumbing. Every
// concurrent private ranking must match PlaintextSearch (Claim 1).
func TestEngineProcessConcurrent(t *testing.T) {
	e, c := shardedTestEngine(t)
	queries := testQueries(e, 8)

	type prepared struct {
		q     *Query
		query string
		want  []Result
	}
	jobs := make([]prepared, len(queries))
	for i, query := range queries {
		q, err := c.Embellish(query)
		if err != nil {
			t.Fatalf("embellish %q: %v", query, err)
		}
		want, err := e.PlaintextSearch(query, 10)
		if err != nil {
			t.Fatalf("plaintext %q: %v", query, err)
		}
		jobs[i] = prepared{q: q, query: query, want: want}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*3)
	for round := 0; round < 3; round++ {
		for _, jb := range jobs {
			wg.Add(1)
			go func(jb prepared) {
				defer wg.Done()
				resp, err := e.Process(jb.q)
				if err != nil {
					errs <- fmt.Errorf("%q: %v", jb.query, err)
					return
				}
				got, err := c.Decode(resp, 10)
				if err != nil {
					errs <- fmt.Errorf("%q: decode: %v", jb.query, err)
					return
				}
				if len(got) != len(jb.want) {
					errs <- fmt.Errorf("%q: %d results, want %d", jb.query, len(got), len(jb.want))
					return
				}
				for i := range got {
					if got[i] != jb.want[i] {
						errs <- fmt.Errorf("%q rank %d: private %+v plaintext %+v", jb.query, i, got[i], jb.want[i])
						return
					}
				}
			}(jb)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNetServerConcurrentClients drives >= 8 simultaneous remote
// searches through a NetServer over real TCP, each client with its own
// key pair, and checks every private ranking against PlaintextSearch.
func TestNetServerConcurrentClients(t *testing.T) {
	e, _ := shardedTestEngine(t)
	srv := e.NewNetServer(ServeConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	const clients = 8
	queries := testQueries(e, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			query := queries[i]
			want, err := e.PlaintextSearch(query, 10)
			if err != nil {
				errs <- err
				return
			}
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			cl, err := e.NewClient(detrand.New(fmt.Sprintf("net-client-%d", i)))
			if err != nil {
				errs <- err
				return
			}
			got, err := cl.SearchRemote(conn, query, 10)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("client %d: %d results, want %d", i, len(got), len(want))
				return
			}
			for j := range want {
				if got[j] != want[j] {
					errs <- fmt.Errorf("client %d rank %d: private %+v plaintext %+v", i, j, got[j], want[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Accepted != clients {
		t.Fatalf("accepted %d connections, want %d", st.Accepted, clients)
	}
	if st.Queries != clients {
		t.Fatalf("answered %d queries, want %d", st.Queries, clients)
	}
	if st.QueryTime <= 0 || st.MaxQueryTime <= 0 {
		t.Fatalf("query timing not recorded: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve exited with %v", err)
	}
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
