package serve

import (
	"context"
	"errors"
	"net"
	"testing"

	"embellish/internal/wire"
)

// TestLoopRefusals drives one toy table through every way the loop
// answers a frame: a reply, each column's refusal, a handler error, a
// deadline — each refusal counted once in Errors, deadlines also in
// Deadlines — and the session survives all of them.
func TestLoopRefusals(t *testing.T) {
	const (
		typReply = 1 + iota
		typGated
		typEmpty
		typFails
		typDeadline
		typUnknown
	)
	reply := func(req *Request[int]) error {
		*req.State++
		return wire.WriteRaw(req.W, typReply, []byte{byte(*req.State)})
	}
	s := New(Config{Name: "test"}, []Handler[int]{
		typReply:    {Admitted: true, Exec: reply},
		typGated:    {Gate: Gate{Off: true, Refusal: "gated off"}, Exec: reply},
		typEmpty:    {Name: "toy", EmptyBody: true, Exec: reply},
		typFails:    {Exec: func(*Request[int]) error { return errors.New("handler refused") }},
		typDeadline: {Exec: func(*Request[int]) error { return Deadline("cut short") }},
	})
	client, server := net.Pipe()
	defer client.Close()
	go s.ServeConn(context.Background(), server, server)

	for _, tc := range []struct {
		typ       byte
		body      []byte
		wantType  byte
		wantReply string
	}{
		{typReply, nil, typReply, "\x01"},
		{typGated, nil, wire.TypeError, "gated off"},
		{typEmpty, []byte{7}, wire.TypeError, "toy request carries no body"},
		{typFails, nil, wire.TypeError, "handler refused"},
		{typDeadline, nil, wire.TypeError, wire.DeadlineRefusal + ": cut short"},
		{typUnknown, nil, wire.TypeError, UnknownType(typUnknown)},
		{typReply, nil, typReply, "\x02"}, // the connection state survived
		// Unadmitted and last: the reply above has left inflight.
		{200, nil, wire.TypeError, wire.UnknownTypeRefusal + " 200"},
	} {
		if err := wire.WriteRaw(client, tc.typ, tc.body); err != nil {
			t.Fatal(err)
		}
		typ, body, err := wire.ReadMessage(client)
		if err != nil || typ != tc.wantType || string(body) != tc.wantReply {
			t.Fatalf("type %d answered %d %q (err %v), want %d %q", tc.typ, typ, body, err, tc.wantType, tc.wantReply)
		}
	}
	st := s.Snapshot()
	if st[wire.StatErrors] != 6 || st[wire.StatDeadlines] != 1 || st[wire.StatInflight] != 0 {
		t.Fatalf("errors %d deadlines %d inflight %d, want 6 1 0",
			st[wire.StatErrors], st[wire.StatDeadlines], st[wire.StatInflight])
	}
}

// TestLoopEndsSessionOnFailedReply: once a reply write fails, the loop
// neither refuses nor reads on — the session ends with the write error.
func TestLoopEndsSessionOnFailedReply(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	s := New(Config{Name: "test"}, []Handler[int]{
		1: {Exec: func(req *Request[int]) error {
			server.Close()
			return wire.WriteRaw(req.W, 1, nil)
		}},
	})
	done := make(chan error, 1)
	go func() { done <- s.ServeConn(context.Background(), server, server) }()
	if err := wire.WriteRaw(client, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("session survived a failed reply write")
	}
	if n := s.Counters[wire.StatErrors].Load(); n != 0 {
		t.Fatalf("a failed reply counted %d refusals", n)
	}
}
