package embellish

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"embellish/internal/detrand"
	"embellish/internal/wire"
)

// admStart listens on loopback, serves srv on it, and returns the
// address. The listener is closed by t.Cleanup, which also unsticks any
// goroutine still blocked in Serve.
func admStart(t *testing.T, srv *NetServer) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// admDial dials the server and builds a dedicated client for the
// connection (clients hold per-session randomness, so concurrent
// goroutines must not share one).
func admDial(t *testing.T, e *Engine, addr, who string) (net.Conn, *Client) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c, err := e.NewClient(detrand.New("adm-" + who))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return conn, c
}

// admWait polls the server's stats until cond holds; the admission
// queue has no test-visible hooks for "request parked", so ordering is
// established through the Queued gauge.
func admWait(t *testing.T, srv *NetServer, what string, cond func(ServeStats) bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond(srv.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats %+v)", what, srv.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionQueueFullShedsAndConnSurvives: with the single execution
// slot held and the one queue seat taken, a third request is shed
// immediately with the typed overload error — and the connection that
// was refused keeps working once capacity returns.
func TestAdmissionQueueFullShedsAndConnSurvives(t *testing.T) {
	e, _ := testEngine(t)
	srv := e.NewNetServer(ServeConfig{MaxConns: -1, MaxInflight: 1, QueueDepth: 1, QueueTimeout: -1})
	admitted := make(chan byte, 16)
	release := make(chan struct{})
	srv.loop.AfterAdmit = func(typ byte) { admitted <- typ; <-release }
	addr := admStart(t, srv)

	query := e.lex.db.Lemma(e.searchable[2])
	want, err := e.PlaintextSearch(query, 5)
	if err != nil {
		t.Fatal(err)
	}

	connA, clA := admDial(t, e, addr, "a")
	connB, clB := admDial(t, e, addr, "b")
	connC, clC := admDial(t, e, addr, "c")

	errA := make(chan error, 1)
	go func() { _, err := clA.SearchRemote(connA, query, 5); errA <- err }()
	<-admitted // A holds the slot, parked in the hook

	errB := make(chan error, 1)
	go func() { _, err := clB.SearchRemote(connB, query, 5); errB <- err }()
	admWait(t, srv, "B to queue", func(st ServeStats) bool { return st.Queued == 1 })

	// C finds slot and queue both taken: immediate typed shed.
	if _, err := clC.SearchRemote(connC, query, 5); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full refusal: err %v, want ErrOverloaded", err)
	} else if !strings.Contains(err.Error(), "admission queue full") {
		t.Fatalf("queue-full refusal lacks the retry hint: %v", err)
	}
	if st := srv.Stats(); st.ShedQueueFull != 1 {
		t.Fatalf("ShedQueueFull = %d, want 1", st.ShedQueueFull)
	}

	close(release)
	if err := <-errA; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}

	// The shed closed nothing: the same connection now gets a full answer.
	got, err := clC.SearchRemote(connC, query, 5)
	if err != nil {
		t.Fatalf("retry on shed connection: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retry ranking diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestAdmissionFIFOOrder: requests parked behind a held slot are
// admitted strictly in arrival order, across message types. Each
// parked request is a distinct wire type, so the admission hook's type
// trace IS the order.
func TestAdmissionFIFOOrder(t *testing.T) {
	e, _ := cancelEngine(t, 777, false)
	srv := e.NewNetServer(ServeConfig{MaxConns: -1, AllowUpdates: true, MaxInflight: 1, QueueDepth: 8, QueueTimeout: -1})
	var mu sync.Mutex
	var order []byte
	gate := make(chan struct{})
	srv.loop.AfterAdmit = func(typ byte) {
		mu.Lock()
		order = append(order, typ)
		first := len(order) == 1
		mu.Unlock()
		if first {
			<-gate
		}
	}
	addr := admStart(t, srv)

	query := e.lex.db.Lemma(e.searchable[1])
	docText := strings.Repeat(query+" ", 40)

	conn0, cl0 := admDial(t, e, addr, "blocker")
	conn1, _ := admDial(t, e, addr, "add")
	conn2, cl2 := admDial(t, e, addr, "search")
	conn3, _ := admDial(t, e, addr, "delete")
	conn4, cl4 := admDial(t, e, addr, "batch")

	errs := make(chan error, 5)
	go func() { _, err := cl0.SearchRemote(conn0, query, 5); errs <- err }()
	admWait(t, srv, "blocker admission", func(ServeStats) bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 1
	})

	// Park four requests of four distinct types, strictly one after the
	// other (each send waits until the previous is in the queue).
	go func() { _, err := AddDocumentsRemote(conn1, []Document{{ID: 120, Text: docText}}); errs <- err }()
	admWait(t, srv, "add to queue", func(st ServeStats) bool { return st.Queued == 1 })
	go func() { _, err := cl2.SearchRemote(conn2, query, 5); errs <- err }()
	admWait(t, srv, "search to queue", func(st ServeStats) bool { return st.Queued == 2 })
	go func() { _, err := DeleteDocumentsRemote(conn3, []int{120}); errs <- err }()
	admWait(t, srv, "delete to queue", func(st ServeStats) bool { return st.Queued == 3 })
	go func() { _, err := cl4.SearchRemoteBatch(conn4, []string{query, query}, 5); errs <- err }()
	admWait(t, srv, "batch to queue", func(st ServeStats) bool { return st.Queued == 4 })

	close(gate)
	for i := 0; i < 5; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	wantOrder := []byte{wire.TypeQuery, wire.TypeAddDocs, wire.TypeQuery, wire.TypeDeleteDocs, wire.TypeBatchQuery}
	if len(order) != len(wantOrder) {
		t.Fatalf("admitted %d requests, want %d (%v)", len(order), len(wantOrder), order)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("admission order %v, want %v: queue is not FIFO", order, wantOrder)
		}
	}
}

// TestAdmissionQueueTimeout: a request whose queue wait exceeds
// QueueTimeout is shed with the typed overload error, counted, and its
// connection stays usable.
func TestAdmissionQueueTimeout(t *testing.T) {
	e, _ := testEngine(t)
	srv := e.NewNetServer(ServeConfig{MaxConns: -1, MaxInflight: 1, QueueDepth: 8, QueueTimeout: 80 * time.Millisecond})
	admitted := make(chan byte, 16)
	release := make(chan struct{})
	srv.loop.AfterAdmit = func(typ byte) { admitted <- typ; <-release }
	addr := admStart(t, srv)

	query := e.lex.db.Lemma(e.searchable[4])
	connA, clA := admDial(t, e, addr, "ta")
	connB, clB := admDial(t, e, addr, "tb")

	errA := make(chan error, 1)
	go func() { _, err := clA.SearchRemote(connA, query, 5); errA <- err }()
	<-admitted

	start := time.Now()
	_, err := clB.SearchRemote(connB, query, 5)
	waited := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-timeout refusal: err %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "queue wait exceeded") {
		t.Fatalf("queue-timeout refusal lacks the reason: %v", err)
	}
	if waited < 80*time.Millisecond {
		t.Fatalf("request shed after %v, before its 80ms queue allowance", waited)
	}
	if st := srv.Stats(); st.ShedQueueTimeout != 1 {
		t.Fatalf("ShedQueueTimeout = %d, want 1", st.ShedQueueTimeout)
	}

	close(release)
	if err := <-errA; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	if _, err := clB.SearchRemote(connB, query, 5); err != nil {
		t.Fatalf("retry on timed-out connection: %v", err)
	}
}

// TestShutdownDrainsQueuedRequests: a graceful Shutdown must answer
// requests already parked in the admission queue — they were accepted,
// so the drain covers them exactly like executing ones.
func TestShutdownDrainsQueuedRequests(t *testing.T) {
	e, _ := testEngine(t)
	srv := e.NewNetServer(ServeConfig{MaxConns: -1, MaxInflight: 1, QueueDepth: 8, QueueTimeout: -1})
	admitted := make(chan byte, 16)
	release := make(chan struct{})
	srv.loop.AfterAdmit = func(typ byte) { admitted <- typ; <-release }
	addr := admStart(t, srv)

	query := e.lex.db.Lemma(e.searchable[3])
	want, err := e.PlaintextSearch(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	connA, clA := admDial(t, e, addr, "sa")
	connB, clB := admDial(t, e, addr, "sb")

	errA := make(chan error, 1)
	go func() { _, err := clA.SearchRemote(connA, query, 5); errA <- err }()
	<-admitted

	type res struct {
		got []Result
		err error
	}
	resB := make(chan res, 1)
	go func() {
		got, err := clB.SearchRemote(connB, query, 5)
		resB <- res{got, err}
	}()
	admWait(t, srv, "B to queue", func(st ServeStats) bool { return st.Queued == 1 })

	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	if err := <-errA; err != nil {
		t.Fatalf("executing request cut by Shutdown: %v", err)
	}
	r := <-resB
	if r.err != nil {
		t.Fatalf("queued request cut by Shutdown: %v", r.err)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("drained answer diverged at %d: %v != %v", i, r.got[i], want[i])
		}
	}
}

// TestIdleDeadlineQueuedRequest is the satellite regression test for
// the idle-deadline/queued-request interaction: on a slow-draining
// server (slot held far longer than IdleTimeout), a request parked in
// the admission queue must be answered — the idle read deadline exists
// to reap silent peers, never a peer whose request the server already
// read — and the connection must survive for the next request.
func TestIdleDeadlineQueuedRequest(t *testing.T) {
	e, _ := testEngine(t)
	const idle = 120 * time.Millisecond
	const hold = 500 * time.Millisecond
	srv := e.NewNetServer(ServeConfig{MaxConns: -1, MaxInflight: 1, QueueDepth: 8, QueueTimeout: -1, IdleTimeout: idle})
	admitted := make(chan byte, 16)
	var holdOnce sync.Once
	srv.loop.AfterAdmit = func(typ byte) {
		admitted <- typ
		holdOnce.Do(func() { time.Sleep(hold) }) // slow-draining slot holder
	}
	addr := admStart(t, srv)

	query := e.lex.db.Lemma(e.searchable[6])
	want, err := e.PlaintextSearch(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	connA, clA := admDial(t, e, addr, "ia")
	connB, clB := admDial(t, e, addr, "ib")

	errA := make(chan error, 1)
	go func() { _, err := clA.SearchRemote(connA, query, 5); errA <- err }()
	<-admitted

	// B parks in the queue for ~hold, which is >4x the idle window.
	start := time.Now()
	got, err := clB.SearchRemote(connB, query, 5)
	parked := time.Since(start)
	if err != nil {
		t.Fatalf("queued request killed on an idle-deadline server: %v", err)
	}
	if parked < hold/2 {
		t.Fatalf("request answered after %v; it never actually parked behind the %v hold", parked, hold)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parked answer diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
	if err := <-errA; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}

	// The connection outlives the long park: a fresh request on the
	// same conn (sent well within a NEW idle window) is served.
	if _, err := clB.SearchRemote(connB, query, 5); err != nil {
		t.Fatalf("connection dead after queued request: %v", err)
	}
}

// TestServerStatsWhileSaturated: the stats surface bypasses admission,
// so an operator can still read queue depth and inflight while the
// server is wedged — exactly when it matters.
func TestServerStatsWhileSaturated(t *testing.T) {
	e, _ := testEngine(t)
	srv := e.NewNetServer(ServeConfig{MaxConns: -1, MaxInflight: 1, QueueDepth: 4, QueueTimeout: -1})
	admitted := make(chan byte, 16)
	release := make(chan struct{})
	srv.loop.AfterAdmit = func(typ byte) { admitted <- typ; <-release }
	addr := admStart(t, srv)

	query := e.lex.db.Lemma(e.searchable[5])
	connA, clA := admDial(t, e, addr, "ma")
	connB, clB := admDial(t, e, addr, "mb")
	connS, _ := admDial(t, e, addr, "ms")

	errA := make(chan error, 1)
	go func() { _, err := clA.SearchRemote(connA, query, 5); errA <- err }()
	<-admitted
	errB := make(chan error, 1)
	go func() { _, err := clB.SearchRemote(connB, query, 5); errB <- err }()
	admWait(t, srv, "B to queue", func(st ServeStats) bool { return st.Queued == 1 })

	start := time.Now()
	st, err := ServerStats(connS)
	if err != nil {
		t.Fatalf("ServerStats on a saturated server: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("ServerStats took %v on a saturated server; it must not queue", took)
	}
	if st.Queued != 1 {
		t.Fatalf("Queued = %d, want 1", st.Queued)
	}
	if st.Inflight < 2 {
		t.Fatalf("Inflight = %d, want >= 2 (executing + queued)", st.Inflight)
	}

	close(release)
	if err := <-errA; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
}

// TestGateRefusesBeforeAdmission: a frame whose gate is off is refused
// at once with its gate text while the server is saturated — slot held,
// queue full — and is never queued or shed.
func TestGateRefusesBeforeAdmission(t *testing.T) {
	e, _ := testEngine(t)
	srv := e.NewNetServer(ServeConfig{MaxConns: -1, MaxInflight: 1, QueueDepth: 1, QueueTimeout: -1})
	admitted := make(chan byte, 16)
	release := make(chan struct{})
	srv.loop.AfterAdmit = func(typ byte) { admitted <- typ; <-release }
	addr := admStart(t, srv)

	query := e.lex.db.Lemma(e.searchable[2])
	connA, clA := admDial(t, e, addr, "ga")
	connB, clB := admDial(t, e, addr, "gb")
	connC, _ := admDial(t, e, addr, "gc")

	errA := make(chan error, 1)
	go func() { _, err := clA.SearchRemote(connA, query, 5); errA <- err }()
	<-admitted
	errB := make(chan error, 1)
	go func() { _, err := clB.SearchRemote(connB, query, 5); errB <- err }()
	admWait(t, srv, "B to queue", func(st ServeStats) bool { return st.Queued == 1 })

	_, err := AddDocumentsRemote(connC, []Document{{ID: 1 << 20, Text: query}})
	if err == nil || errors.Is(err, ErrOverloaded) || !strings.Contains(err.Error(), "live updates are disabled on this server") {
		t.Fatalf("gated add on a saturated server: %v, want the gate refusal", err)
	}
	if err := wire.WritePIRParamsRequest(connC); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(connC)
	if err != nil || typ != wire.TypeError || string(body) != "private document retrieval is disabled on this server" {
		t.Fatalf("gated params on a saturated server: type %d %q err %v", typ, body, err)
	}
	st := srv.Stats()
	if st.ShedQueueFull != 0 || st.Queued != 1 || st.Errors != 2 {
		t.Fatalf("gated frames touched admission: shed %d, queued %d, errors %d", st.ShedQueueFull, st.Queued, st.Errors)
	}

	close(release)
	if err := <-errA; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
}
