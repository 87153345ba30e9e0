// Package serve is the one request loop behind every serving process —
// the engine's NetServer and the cluster router alike. It owns the
// connection lifecycle: accept under a connection cap, one goroutine per
// connection, an idle read deadline between requests, optional FIFO
// admission in front of execution, an optional per-request deadline,
// every refusal frame, the counters of all of it, and the graceful
// drain. What a frame type does is one row of the process's handler
// table, indexed by the type byte.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"embellish/internal/wire"
)

// Handler is one frame type's row in a process's table. The loop checks
// the row's columns in order — gate, empty body, admission, deadline —
// before Exec runs, so a frame a column refuses never queues.
type Handler[S any] struct {
	// Name names the request in the empty-body refusal ("stats" ->
	// "stats request carries no body").
	Name string
	// Gate switches the type off.
	Gate Gate
	// EmptyBody refuses a frame that carries a body.
	EmptyBody bool
	// Admitted frames pass the admission queue, when one is configured,
	// and count as inflight for the whole exchange, so the drain covers
	// them.
	Admitted bool
	// Deadline runs Exec under Config.RequestTimeout.
	Deadline bool
	// Exec answers one frame, writing replies to req.W. A returned error
	// is refused: Deadline's as wire.DeadlineRefusal, any other with its
	// own text. Once a write to the client fails, the session ends.
	Exec func(req *Request[S]) error
}

// Gate is a config switch and the refusal sent while it is off.
type Gate struct {
	Off     bool
	Refusal string
}

// Request is one frame in hand. The loop reuses one per connection.
type Request[S any] struct {
	// Ctx is the session's context, carrying RequestTimeout when the
	// row's Deadline is set.
	Ctx  context.Context
	Type byte
	Body []byte
	// State is the connection's own state, zero at accept.
	State *S
	// W writes replies to the client.
	W io.Writer
}

// deadline is the error a handler returns for a request its deadline
// cut short; the text is the refusal's detail.
type deadline string

func (d deadline) Error() string { return string(d) }

// Deadline refuses a request that RequestTimeout cut short, with detail
// after the wire.DeadlineRefusal prefix.
func Deadline(detail string) error { return deadline(detail) }

// UnknownType is the refusal of a frame type the table has no row for.
func UnknownType(typ byte) string {
	return fmt.Sprintf("%s %d", wire.UnknownTypeRefusal, typ)
}

// Config tunes the loop.
type Config struct {
	// Name opens the loop's Go errors ("cluster: router").
	Name string
	// MaxConns caps open connections; zero or negative disables the cap.
	MaxConns int
	// IdleTimeout closes a connection that sends no request within the
	// window; 0 disables it.
	IdleTimeout time.Duration
	// RequestTimeout bounds Exec of the rows with Deadline set, from
	// admission on; 0 disables it.
	RequestTimeout time.Duration
	// MaxInflight enables admission: the number of admitted requests
	// executing at once (0 off, -1 GOMAXPROCS). QueueDepth (0 selects
	// DefaultQueueDepth) and QueueTimeout (0 DefaultQueueTimeout,
	// negative forever) bound the queue behind them.
	MaxInflight  int
	QueueDepth   int
	QueueTimeout time.Duration
}

// Counters are one process's serving counters, indexed like wire.Stats.
// The loop keeps the connection, inflight, admission, error and deadline
// rows; the handlers keep the rest.
type Counters [wire.NumStatFields]atomic.Int64

// Max raises counter f to v if v is larger.
func (c *Counters) Max(f wire.Stat, v int64) {
	for {
		cur := c[f].Load()
		if v <= cur || c[f].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Server runs the loop over one handler table. S is the per-connection
// state handed to every Exec on that connection.
type Server[S any] struct {
	cfg   Config
	table []Handler[S]
	adm   *admission // nil when admission is off

	// Counters are the process's serving counters.
	Counters Counters
	// AfterAdmit, when set, runs after an admitted frame clears
	// admission and before it executes: the seam that makes slot
	// occupancy deterministic in tests.
	AfterAdmit func(typ byte)

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	shutdown  bool
}

// New builds a loop over table, indexed by frame type; a type without an
// Exec is refused as unknown.
func New[S any](cfg Config, table []Handler[S]) *Server[S] {
	s := &Server[S]{
		cfg:       cfg,
		table:     table,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	if cfg.MaxInflight != 0 {
		slots := cfg.MaxInflight
		if slots < 0 {
			slots = runtime.GOMAXPROCS(0)
		}
		depth := cfg.QueueDepth
		if depth <= 0 {
			depth = DefaultQueueDepth
		}
		timeout := cfg.QueueTimeout
		if timeout == 0 {
			timeout = DefaultQueueTimeout
		}
		s.adm = newAdmission(slots, depth, timeout)
	}
	return s
}

// Snapshot reads the counters into their wire form, gauges clamped at
// zero, with the admission queue's current depth.
func (s *Server[S]) Snapshot() wire.Stats {
	var st wire.Stats
	for i := range s.Counters {
		v := s.Counters[i].Load()
		if v < 0 && wire.StatFields[i].Unit == wire.UnitGauge {
			v = 0
		}
		st[i] = uint64(v)
	}
	if s.adm != nil {
		st[wire.StatQueued] = uint64(s.adm.queued())
	}
	return st
}

// Serve accepts connections until the listener is closed, directly or
// by Shutdown, serving each in its own goroutine. A clean shutdown
// returns nil.
func (s *Server[S]) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("%s is shut down", s.cfg.Name)
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.register(conn) {
			// Over the cap, or shutting down: tell the peer why before
			// hanging up, so clients fail with a useful error.
			s.Counters[wire.StatRejected].Add(1)
			_ = wire.WriteError(conn, wire.OverloadRefusal+": connection limit reached; retry later")
			conn.Close()
			continue
		}
		s.Counters[wire.StatAccepted].Add(1)
		go func() {
			defer s.unregister(conn)
			_ = s.ServeConn(context.Background(), conn, conn)
		}()
	}
}

func (s *Server[S]) register(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown || (s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns) {
		return false
	}
	s.conns[conn] = struct{}{}
	s.Counters[wire.StatActive].Add(1)
	return true
}

func (s *Server[S]) unregister(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.Counters[wire.StatActive].Add(-1)
	}
	s.mu.Unlock()
}

// Shutdown stops the loop gracefully: close the listeners, wait for
// admitted requests — executing and queued — to finish (up to the
// context deadline), shed whatever is still queued, and close every
// connection. It returns the context's error when the deadline fired
// before the drain.
func (s *Server[S]) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var err error
drain:
	for s.Counters[wire.StatInflight].Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break drain
		case <-tick.C:
		}
	}
	// Queued requests hold inflight, so the queue is normally empty
	// here; shed any left before cutting the transports under them.
	if s.adm != nil {
		s.adm.abort()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// replyWriter is the client side of a connection as handlers see it: it
// remembers the first failed write, which ends the session.
type replyWriter struct {
	w   io.Writer
	err error
}

func (r *replyWriter) Write(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.w.Write(p)
	r.err = err
	return n, err
}

// ServeConn answers frames on one transport until EOF or a transport
// error, without connection accounting, each request running under ctx.
// A refused frame leaves the session up; a failed read or reply write
// ends it. deadliner is the connection for the idle deadline, nil for
// plain io.ReadWriters.
func (s *Server[S]) ServeConn(ctx context.Context, rw io.ReadWriter, deadliner net.Conn) error {
	var state S
	w := &replyWriter{w: rw}
	req := &Request[S]{State: &state, W: w}
	idle := s.cfg.IdleTimeout > 0 && deadliner != nil
	for {
		if idle {
			_ = deadliner.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		typ, body, err := wire.ReadMessage(rw)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		// The idle window measures PEER silence only. A request is in
		// hand, so clear the deadline before it queues or executes: a
		// request parked in the admission queue longer than IdleTimeout
		// must not leave a deadline meant for dead peers armed against
		// its connection.
		if idle {
			_ = deadliner.SetReadDeadline(time.Time{})
		}
		req.Ctx, req.Type, req.Body = ctx, typ, body
		s.serve(req, w)
		if w.err != nil {
			return w.err
		}
	}
}

// serve answers one frame: the row's columns, then Exec, then the
// refusal of whatever Exec returned — unless a reply write failed, which
// ends the session instead.
func (s *Server[S]) serve(req *Request[S], w *replyWriter) {
	if int(req.Type) >= len(s.table) || s.table[req.Type].Exec == nil {
		s.refuse(w, UnknownType(req.Type))
		return
	}
	h := &s.table[req.Type]
	switch {
	case h.Gate.Off:
		s.refuse(w, h.Gate.Refusal)
		return
	case h.EmptyBody && len(req.Body) != 0:
		s.refuse(w, h.Name+" request carries no body")
		return
	}
	if h.Admitted {
		// inflight rises BEFORE the queue, so the drain covers queued
		// requests too, and spans the reply: Shutdown never cuts a
		// connection between computing an answer and delivering it.
		s.Counters[wire.StatInflight].Add(1)
		defer s.Counters[wire.StatInflight].Add(-1)
		if s.adm != nil {
			if err := s.admit(); err != nil {
				s.refuse(w, err.Error())
				return
			}
			defer s.adm.release()
		}
		if s.AfterAdmit != nil {
			s.AfterAdmit(req.Type)
		}
	}
	if h.Deadline && s.cfg.RequestTimeout > 0 {
		// The clock starts after admission: queue wait never eats into
		// the execution budget (QueueTimeout bounds it separately).
		var cancel context.CancelFunc
		req.Ctx, cancel = context.WithTimeout(req.Ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	err := h.Exec(req)
	if err == nil || w.err != nil {
		return
	}
	if d, ok := err.(deadline); ok {
		s.Counters[wire.StatDeadlines].Add(1)
		s.refuse(w, wire.DeadlineRefusal+": "+string(d))
		return
	}
	s.refuse(w, err.Error())
}

// admit waits for an execution slot, accounting the wait and the shed.
func (s *Server[S]) admit() error {
	wait, err := s.adm.acquire()
	if wait > 0 {
		s.Counters[wire.StatQueuedTotal].Add(1)
		s.Counters[wire.StatQueueWaitNs].Add(int64(wait))
		s.Counters.Max(wire.StatMaxQueueWaitNs, int64(wait))
	}
	switch err {
	case errQueueFull:
		s.Counters[wire.StatShedQueueFull].Add(1)
	case errQueueTimeout:
		s.Counters[wire.StatShedQueueTimeout].Add(1)
	}
	return err
}

// refuse answers the frame with a refusal, counted in Errors.
func (s *Server[S]) refuse(w io.Writer, text string) {
	s.Counters[wire.StatErrors].Add(1)
	_ = wire.WriteError(w, text)
}
