package embellish

import (
	"net"
	"strings"
	"sync"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/wire"
)

// TestSearchRemoteOverPipe runs the protocol over an in-memory duplex
// pipe served by Engine.ServeConn: one connection answers two queries in
// turn, and the server exits cleanly when the client hangs up.
func TestSearchRemoteOverPipe(t *testing.T) {
	e, c := testEngine(t)
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- e.ServeConn(server) }()

	for _, query := range []string{
		e.lex.db.Lemma(e.searchable[4]) + " " + e.lex.db.Lemma(e.searchable[9]),
		e.lex.db.Lemma(e.searchable[1]),
	} {
		if _, err := c.SearchRemote(client, query, 5); err != nil {
			t.Fatalf("query %q on the shared connection: %v", query, err)
		}
	}

	client.Close()
	if err := <-done; err != nil {
		t.Fatalf("server exited with %v", err)
	}
}

// TestServeConnRecoverableError verifies malformed frames produce a
// protocol error without killing the session.
func TestServeConnRecoverableError(t *testing.T) {
	e, c := testEngine(t)
	client, server := net.Pipe()
	go e.ServeConn(server)
	defer client.Close()

	// Send a non-query frame; expect a TypeError reply.
	if err := wire.WriteError(client, "hello"); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError || !strings.Contains(string(body), "unexpected message type") {
		t.Fatalf("got type %d body %q", typ, body)
	}

	// The session must still answer a real query afterwards.
	query := e.lex.db.Lemma(e.searchable[3])
	if _, err := c.SearchRemote(client, query, 5); err != nil {
		t.Fatalf("query after protocol error: %v", err)
	}
}

// TestServeOverTCP exercises the real listener path with concurrent
// clients.
func TestServeOverTCP(t *testing.T) {
	e, _ := testEngine(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go e.Serve(l)
	defer l.Close()

	query := e.lex.db.Lemma(e.searchable[5])
	want, err := e.PlaintextSearch(query, 5)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			// Each client has its own key pair.
			cl, err := e.NewClient(detrand.New("tcp-client-" + string(rune('a'+i))))
			if err != nil {
				errs <- err
				return
			}
			got, err := cl.SearchRemote(conn, query, 5)
			if err != nil {
				errs <- err
				return
			}
			for j := range want {
				if got[j] != want[j] {
					errs <- &mismatchError{}
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
}

type mismatchError struct{}

func (*mismatchError) Error() string { return "remote ranking diverged from plaintext" }
