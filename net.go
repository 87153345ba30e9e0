package embellish

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"embellish/internal/core"
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// Network deployment: the paper's protocol is client-server — the
// client embellishes and decrypts, the engine only ever sees the
// embellished query. NetServer turns an Engine into a long-running
// concurrent service speaking the internal/wire framing: one goroutine
// per connection, a connection limit, graceful shutdown, and per-query
// timing. SearchRemote runs the client side of one query against any
// such service; SearchRemoteBatch amortizes framing over several
// queries. Both endpoints typically load the same engine file
// (Save/LoadEngine), which is how they come to agree on the bucket
// organization.

// DefaultMaxConns is the simultaneous-connection limit applied when
// ServeConfig.MaxConns is zero.
const DefaultMaxConns = 1024

// ServeConfig tunes a NetServer.
type ServeConfig struct {
	// MaxConns caps simultaneous connections: above the cap, new
	// connections are answered with a protocol error and closed. 0
	// selects DefaultMaxConns; negative disables the cap.
	MaxConns int
	// IdleTimeout closes a connection when no query arrives within the
	// window (a dead peer would otherwise hold a connection slot
	// forever). 0 disables the deadline.
	IdleTimeout time.Duration
	// AllowUpdates opts the server in to the admin messages
	// (TypeAddDocs / TypeDeleteDocs) that add and delete documents
	// online. Off by default: updates come from the corpus owner, not
	// from searching users, so a deployment must deliberately expose
	// them — typically on a separate, access-controlled listener.
	AllowUpdates bool
	// AllowRetrieval opts the server in to the private document-fetch
	// messages (TypePIRParams / TypePIRQuery / TypePIRBatchQuery). Off
	// by default: each PIR answer costs ~8·BlockSize·NumBlocks modular
	// multiplications, so a deployment must deliberately expose that
	// CPU surface. Requires an engine built with
	// Options.StoreDocuments (or loaded from a version-3 file carrying
	// a store).
	AllowRetrieval bool
	// PIRWorkers caps the parallelism of the PIR scans this server
	// computes, overriding the engine's Options.PIRWorkers knob: 0
	// inherits the engine option (read at answer time, so
	// Engine.ConfigurePIRWorkers affects live servers exactly like the
	// other execution knobs), -1 selects GOMAXPROCS workers, and any
	// positive value pins the worker count (1 = one goroutine). Values
	// outside the Options.PIRWorkers range [-1, 4096] are clamped to
	// it (the constructor has no error path). Answers are
	// byte-identical at every count.
	PIRWorkers int
	// PIRRecursive overrides the engine's Options.PIRRecursive switch
	// for recursive (two-level) fetch frames served by this server: 0
	// inherits the engine knob (read at answer time, so
	// Engine.ConfigurePIRRecursive affects live servers), -1 refuses
	// TypePIRRecursiveQuery frames (clients fall back to flat queries),
	// 1 forces serving them. Values outside [-1, 1] are clamped.
	// Decoded documents are byte-identical either way.
	PIRRecursive int
	// MaxInflight enables bounded admission control: at most this many
	// requests execute at once, and requests past the limit park in a
	// FIFO queue (QueueDepth, QueueTimeout) instead of piling onto the
	// CPU. Under overload the server then sheds with a typed
	// retry-hint error (the wire.OverloadRefusal prefix) rather than
	// letting every request's latency collapse together. 0 disables
	// admission control (every request executes immediately — the
	// pre-queue behavior); -1 selects GOMAXPROCS; positive values pin
	// the limit.
	MaxInflight int
	// QueueDepth bounds the admission queue when MaxInflight is set: a
	// request arriving with QueueDepth requests already parked is shed
	// immediately. 0 selects DefaultQueueDepth.
	QueueDepth int
	// QueueTimeout bounds one request's queue wait when MaxInflight is
	// set: a request still parked when it expires is shed with the
	// overload error. 0 selects DefaultQueueTimeout; negative waits
	// forever.
	QueueTimeout time.Duration
	// AllowReplication opts the server in to the WAL-shipping message
	// (TypeWALPull) that lets read replicas pull the journal suffix
	// they are missing. Off by default: shipped records carry raw
	// document bytes, so a deployment must deliberately expose them —
	// typically on the same access-controlled listener as the admin
	// messages. Requires a durable engine (the journal is the
	// replication log).
	AllowReplication bool
	// AllowLexiconSync opts the server in to the lexicon-sync message
	// (TypeLexiconSync) that ships the bucket organization and synset
	// tables to remote clients so they can embellish locally without
	// the engine file. The payload is public knowledge in the paper's
	// threat model (the adversary knows the organization); the gate
	// controls operational exposure — the tables can be megabytes, so a
	// deployment must deliberately expose that bandwidth surface.
	AllowLexiconSync bool
	// RiskAudit opts the server in to per-session privacy-risk
	// auditing: every decoded query frame (genuine or decoy) on a
	// connection is scored by the paper's Section 6 adversary model,
	// and the session's accumulated report is served on TypeRiskAudit.
	// Off by default: auditing spends semantic-distance work per query
	// frame, so a deployment must deliberately enable it.
	RiskAudit bool
	// RequestTimeout is the server-side deadline for one request's
	// engine work (search queries, batch frames and PIR scans — admin
	// updates are exempt, see docs/OPERATIONS.md): a scan still
	// running when it expires is cancelled mid-scan (the partial work
	// is accounted and freed) and answered with the
	// wire.DeadlineRefusal error. The clock starts when the request is
	// ADMITTED, not when it arrives — queue wait is bounded separately
	// by QueueTimeout. 0 disables the deadline.
	RequestTimeout time.Duration
}

// ServeStats is a snapshot of a NetServer's counters.
type ServeStats struct {
	// Accepted and Rejected count connections; Rejected ones were turned
	// away at the MaxConns cap.
	Accepted, Rejected int64
	// Active is the number of currently open connections.
	Active int64
	// Queries counts queries answered (each batch member counts once).
	Queries int64
	// Updates counts applied admin operations (adds and deletes).
	Updates int64
	// Retrievals counts answered PIR block queries (one per protocol
	// execution; a k-block document fetch counts k times).
	Retrievals int64
	// Errors counts protocol-level errors answered with a wire error
	// message (the connection survives those).
	Errors int64
	// QueryTime is the total server-side processing time across all
	// queries; MaxQueryTime is the slowest single query.
	QueryTime, MaxQueryTime time.Duration
	// Inflight is the number of requests executing right now; Queued is
	// the number parked in the admission queue right now; QueuedTotal
	// counts every request that ever had to queue.
	Inflight, Queued, QueuedTotal int64
	// QueueWait is the total time requests spent parked in the
	// admission queue; MaxQueueWait is the longest single wait.
	QueueWait, MaxQueueWait time.Duration
	// ShedQueueFull and ShedQueueTimeout count requests shed with the
	// wire.OverloadRefusal error because the queue was at capacity, or
	// because the request's queue wait exceeded QueueTimeout.
	ShedQueueFull, ShedQueueTimeout int64
	// Deadlines counts requests cancelled mid-scan by RequestTimeout
	// and answered with the wire.DeadlineRefusal error.
	Deadlines int64
	// Durable reports whether the served engine journals updates;
	// WALSeq / WALCheckpointSeq are its last journaled operation and
	// newest checkpoint, and CheckpointAge is the time since that
	// checkpoint landed. All zero on non-durable engines.
	Durable                  bool
	WALSeq, WALCheckpointSeq uint64
	CheckpointAge            time.Duration
	// ReplPrimarySeq and ReplLag surface a replica's staleness: the
	// primary's newest journaled operation at the last successful pull,
	// and how many operations this server still trails it by. Both zero
	// unless SetReplicaStatus wired a replication probe (ReplPrimarySeq
	// distinguishes "not a replica" from "replica with zero lag").
	ReplPrimarySeq, ReplLag uint64
	// PIRModMuls is the total modular multiplications spent serving PIR
	// block queries, including the partial work of cancelled scans —
	// the cost unit of the paper's Section 5.2 model, and the numerator
	// operators need to see whether batch amortization is actually
	// shrinking per-answer cost. PIRTableMuls is the subset spent on
	// per-query setup (squares, subset-product tables, Montgomery
	// conversions); each batch query carries exactly its own setup, so
	// these sums never double-count.
	PIRModMuls, PIRTableMuls int64
	// PIRRecursiveQueries counts recursive (two-level) block queries
	// answered — a subset of Retrievals. PIRRecursivePartials counts
	// the level-1-only partition answers served to cluster routers (a
	// subset of PIRRecursiveQueries); a plain client-facing server
	// reports it as zero.
	PIRRecursiveQueries, PIRRecursivePartials int64
	// RouterPartitions, RouterRetries and RouterFailovers are filled
	// only when the stats came from a cluster router: the partition
	// count behind it, per-partition attempts beyond the first, and
	// attempts answered by a non-primary endpoint. A plain NetServer
	// reports all three as zero.
	RouterPartitions, RouterRetries, RouterFailovers uint64
	// DecoyQueries counts decoy-marked query frames answered
	// (TypeDecoyQuery) — also included in Queries, since the server
	// does identical work for them.
	DecoyQueries int64
	// RiskAudited and RiskSkipped count query frames the per-session
	// risk audit scored and declined (non-embellished streams or
	// over-cap candidate spaces); both zero unless ServeConfig.RiskAudit
	// is on. RiskSumMicros is the audited frames' total observed risk
	// in micro-units: RiskSumMicros / 1e6 / RiskAudited is the serverwide
	// mean per-query risk.
	RiskAudited, RiskSkipped, RiskSumMicros int64
}

// NetServer serves the private-retrieval wire protocol for one Engine
// over any number of listeners and connections concurrently. The
// zero value is not usable; construct with Engine.NewNetServer.
type NetServer struct {
	engine           *Engine
	maxConns         int
	idle             time.Duration
	allowUpdates     bool
	allowRetrieval   bool
	allowReplication bool
	allowLexiconSync bool
	riskAudit        bool
	// pirOverride is ServeConfig.PIRWorkers (clamped); 0 defers to the
	// engine's Options.PIRWorkers at answer time. recursiveOverride is
	// ServeConfig.PIRRecursive under the same contract.
	pirOverride       int
	recursiveOverride int
	// adm is the bounded admission queue; nil when MaxInflight is 0
	// (admission control disabled).
	adm        *admission
	reqTimeout time.Duration
	// testHookAdmitted, when set, runs after a request clears admission
	// and before it executes — the test seam that makes slot occupancy
	// deterministic. Never set in production.
	testHookAdmitted func(typ byte)

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	shutdown  bool
	// replicaStatus, when set (SetReplicaStatus), reports the primary's
	// newest known sequence number for the staleness rows of the stats
	// surface. Guarded by mu.
	replicaStatus func() (uint64, bool)

	accepted   atomic.Int64
	rejected   atomic.Int64
	active     atomic.Int64
	queries    atomic.Int64
	updates    atomic.Int64
	retrievals atomic.Int64
	errs       atomic.Int64
	busyNs     atomic.Int64 // total processing time
	maxNs      atomic.Int64 // slowest single query
	inflight   atomic.Int64 // queries currently being processed

	queuedTotal    atomic.Int64
	queueWaitNs    atomic.Int64
	maxQueueWaitNs atomic.Int64
	shedFull       atomic.Int64
	shedTimeout    atomic.Int64
	deadlines      atomic.Int64

	pirModMuls   atomic.Int64
	pirTableMuls atomic.Int64

	pirRecQueries  atomic.Int64
	pirRecPartials atomic.Int64

	decoyQueries  atomic.Int64
	riskAudited   atomic.Int64
	riskSkipped   atomic.Int64
	riskSumMicros atomic.Int64
}

// NewNetServer builds a concurrent protocol server around the engine.
func (e *Engine) NewNetServer(cfg ServeConfig) *NetServer {
	maxConns := cfg.MaxConns
	if maxConns == 0 {
		maxConns = e.opts.MaxConns
	}
	if maxConns == 0 {
		maxConns = DefaultMaxConns
	}
	// Clamp the override to the validated Options.PIRWorkers range:
	// the engine value passed validation, but the ServeConfig override
	// arrives unchecked and an unbounded count would size a per-scan
	// goroutine pool.
	pirOverride := cfg.PIRWorkers
	if pirOverride < -1 {
		pirOverride = -1
	}
	if pirOverride > maxPIRWorkers {
		pirOverride = maxPIRWorkers
	}
	recursiveOverride := cfg.PIRRecursive
	if recursiveOverride < -1 {
		recursiveOverride = -1
	}
	if recursiveOverride > 1 {
		recursiveOverride = 1
	}
	var adm *admission
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
		adm = newAdmission(slots, depth, timeout)
	}
	return &NetServer{
		engine:            e,
		maxConns:          maxConns,
		idle:              cfg.IdleTimeout,
		allowUpdates:      cfg.AllowUpdates,
		allowRetrieval:    cfg.AllowRetrieval,
		allowReplication:  cfg.AllowReplication,
		allowLexiconSync:  cfg.AllowLexiconSync,
		riskAudit:         cfg.RiskAudit,
		pirOverride:       pirOverride,
		recursiveOverride: recursiveOverride,
		adm:               adm,
		reqTimeout:        cfg.RequestTimeout,
		listeners:         make(map[net.Listener]struct{}),
		conns:             make(map[net.Conn]struct{}),
	}
}

// pirWorkers resolves the worker count for one PIR scan: the
// ServeConfig override when set, else the engine's CURRENT count —
// read atomically at answer time, so ConfigurePIRWorkers affects
// live servers.
func (s *NetServer) pirWorkers() int {
	if s.pirOverride != 0 {
		return s.pirOverride
	}
	return s.engine.livePIRWorkers()
}

// pirRecursive resolves the recursive-serving switch for one recursive
// frame: the ServeConfig override when set, else the engine's current
// knob.
func (s *NetServer) pirRecursive() bool {
	if s.recursiveOverride != 0 {
		return s.recursiveOverride > 0
	}
	return s.engine.livePIRRecursive()
}

// countPIRWork folds one answer's Stats into the server-wide mul
// counters — called on error paths too, so cancelled scans' partial
// work stays visible to work_fraction consumers.
func (s *NetServer) countPIRWork(st pir.Stats) {
	s.pirModMuls.Add(int64(st.ModMuls))
	s.pirTableMuls.Add(int64(st.TableMuls))
}

// Stats returns a snapshot of the server's counters.
func (s *NetServer) Stats() ServeStats {
	st := ServeStats{
		Accepted:             s.accepted.Load(),
		Rejected:             s.rejected.Load(),
		Active:               s.active.Load(),
		Queries:              s.queries.Load(),
		Updates:              s.updates.Load(),
		Retrievals:           s.retrievals.Load(),
		Errors:               s.errs.Load(),
		QueryTime:            time.Duration(s.busyNs.Load()),
		MaxQueryTime:         time.Duration(s.maxNs.Load()),
		Inflight:             s.inflight.Load(),
		QueuedTotal:          s.queuedTotal.Load(),
		QueueWait:            time.Duration(s.queueWaitNs.Load()),
		MaxQueueWait:         time.Duration(s.maxQueueWaitNs.Load()),
		ShedQueueFull:        s.shedFull.Load(),
		ShedQueueTimeout:     s.shedTimeout.Load(),
		Deadlines:            s.deadlines.Load(),
		PIRModMuls:           s.pirModMuls.Load(),
		PIRTableMuls:         s.pirTableMuls.Load(),
		PIRRecursiveQueries:  s.pirRecQueries.Load(),
		PIRRecursivePartials: s.pirRecPartials.Load(),
		DecoyQueries:         s.decoyQueries.Load(),
		RiskAudited:          s.riskAudited.Load(),
		RiskSkipped:          s.riskSkipped.Load(),
		RiskSumMicros:        s.riskSumMicros.Load(),
	}
	if s.adm != nil {
		st.Queued = int64(s.adm.queued())
	}
	if ws, ok := s.engine.WALStatus(); ok {
		st.Durable = true
		st.WALSeq = ws.Seq
		st.WALCheckpointSeq = ws.CheckpointSeq
		if !ws.LastCheckpointAt.IsZero() {
			st.CheckpointAge = time.Since(ws.LastCheckpointAt)
		}
	}
	s.mu.Lock()
	replicaStatus := s.replicaStatus
	s.mu.Unlock()
	if replicaStatus != nil {
		if primarySeq, ok := replicaStatus(); ok {
			st.ReplPrimarySeq = primarySeq
			if primarySeq > st.WALSeq {
				st.ReplLag = primarySeq - st.WALSeq
			}
		}
	}
	return st
}

// Serve accepts connections until the listener is closed (directly or
// via Shutdown), handling each connection in its own goroutine. It
// returns the listener's accept error — net.ErrClosed after a clean
// shutdown becomes nil.
func (s *NetServer) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		l.Close()
		return errors.New("embellish: server is shut down")
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
			// Over the cap (or shutting down): tell the peer why before
			// hanging up, so clients fail with a useful error.
			s.rejected.Add(1)
			_ = wire.WriteError(conn, wire.OverloadRefusal+": connection limit reached; retry later")
			conn.Close()
			continue
		}
		s.accepted.Add(1)
		go func() {
			defer s.unregister(conn)
			_ = s.serveConn(conn, conn)
		}()
	}
}

func (s *NetServer) register(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return false
	}
	if s.maxConns > 0 && len(s.conns) >= s.maxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	s.active.Add(1)
	return true
}

func (s *NetServer) unregister(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.active.Add(-1)
	}
	s.mu.Unlock()
}

// Shutdown gracefully stops the server: close the listeners, wait for
// in-flight queries to finish (up to the context deadline), then close
// all connections. It returns the context's error when the deadline
// fired before the server drained.
func (s *NetServer) Shutdown(ctx context.Context) error {
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
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break drain
		case <-tick.C:
		}
	}

	// Shed whatever is still parked in the admission queue (normally
	// empty after the drain — queued requests hold inflight) before
	// cutting the transports under them.
	if s.adm != nil {
		s.adm.abort()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// A graceful shutdown leaves a durable engine checkpoint-clean, so
	// the next boot loads the snapshot and replays nothing. Runs after
	// the drain: every acknowledged update is in the captured state.
	if cerr := s.engine.checkpointIfDirty(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// serveConn answers queries on one transport until EOF or a transport
// error. Malformed queries are answered with a protocol error message
// and the connection stays up; transport failures end the session.
// deadliner is the connection for deadline control, nil for plain
// io.ReadWriter transports.
func (s *NetServer) serveConn(rw io.ReadWriter, deadliner net.Conn) error {
	// The session's privacy audit, when enabled. Owned by this
	// goroutine — the protocol is strictly request-response per
	// connection, so observe() and answerRiskAudit never race.
	var sess *sessionAudit
	if s.riskAudit {
		sess = s.newSessionAudit()
	}
	for {
		if s.idle > 0 && deadliner != nil {
			_ = deadliner.SetReadDeadline(time.Now().Add(s.idle))
		}
		typ, body, err := wire.ReadMessage(rw)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		// The idle window measures PEER silence only. A request is now in
		// hand, so clear the read deadline before it queues or executes —
		// a request parked in the admission queue longer than IdleTimeout
		// must not leave a deadline meant for dead peers armed against its
		// connection. The loop re-arms a fresh deadline before its own
		// next read, but the stale expiry would be live for any read
		// issued between dispatch and that re-arm — the batch handlers
		// are one frame-read refactor away from exactly that.
		if s.idle > 0 && deadliner != nil {
			_ = deadliner.SetReadDeadline(time.Time{})
		}
		switch typ {
		case wire.TypeQuery, wire.TypeBatchQuery, wire.TypeDecoyQuery,
			wire.TypeAddDocs, wire.TypeDeleteDocs,
			wire.TypePIRParams, wire.TypePIRQuery, wire.TypePIRBatchQuery,
			wire.TypePIRRecursiveQuery:
			// TypeDecoyQuery is admitted exactly like TypeQuery: decoys
			// are real server work, and exempting them from admission
			// would make them an overload side channel.
			err = s.admitAndDispatch(rw, typ, body, sess)
		case wire.TypeLexiconSync:
			// Served without admission, like the other metadata surfaces:
			// the payload is cached bytes, and a client that cannot sync
			// cannot form queries at all.
			err = s.answerLexiconSync(rw, body)
		case wire.TypeRiskAudit:
			// Also without admission: the audit is a read of accumulated
			// counters, and it must stay readable while the server is
			// saturated — like the stats surface.
			err = s.answerRiskAudit(rw, body, sess)
		case wire.TypeStats:
			// Served without admission: the stats surface must stay
			// readable while the server is saturated — that is when an
			// operator most needs it.
			err = s.answerStats(rw, body)
		case wire.TypeWALPull:
			// Also served without admission: replicas are the failover
			// targets, and saturation is exactly when they must not be
			// starved into staleness. See replication.go.
			err = s.answerWALPull(rw, body)
		default:
			s.errs.Add(1)
			err = wire.WriteError(rw, fmt.Sprintf("%s %d", wire.UnknownTypeRefusal, typ))
		}
		if err != nil {
			return err
		}
	}
}

// admitAndDispatch runs one request through the admission queue (when
// enabled) and then the per-type handler. inflight is raised BEFORE
// acquiring a slot so a graceful Shutdown's drain covers queued
// requests too — a request parked in the queue is work the server has
// accepted responsibility for.
func (s *NetServer) admitAndDispatch(rw io.ReadWriter, typ byte, body []byte, sess *sessionAudit) error {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.adm != nil {
		wait, err := s.adm.acquire()
		if wait > 0 {
			s.queuedTotal.Add(1)
			ns := int64(wait)
			s.queueWaitNs.Add(ns)
			for {
				cur := s.maxQueueWaitNs.Load()
				if ns <= cur || s.maxQueueWaitNs.CompareAndSwap(cur, ns) {
					break
				}
			}
		}
		if err != nil {
			s.errs.Add(1)
			switch {
			case errors.Is(err, errQueueFull):
				s.shedFull.Add(1)
				return wire.WriteError(rw, wire.OverloadRefusal+": admission queue full; retry later")
			case errors.Is(err, errQueueTimeout):
				s.shedTimeout.Add(1)
				return wire.WriteError(rw, wire.OverloadRefusal+": queue wait exceeded; retry later")
			default: // errQueueClosed
				return wire.WriteError(rw, wire.OverloadRefusal+": server is shutting down")
			}
		}
		defer s.adm.release()
	}
	if s.testHookAdmitted != nil {
		s.testHookAdmitted(typ)
	}
	switch typ {
	case wire.TypeQuery, wire.TypeDecoyQuery:
		// inflight spans decode through response write (for batches,
		// the whole batch), so a graceful Shutdown never cuts a
		// connection between computing an answer and delivering it.
		return s.answerQuery(rw, body, sess, typ == wire.TypeDecoyQuery)
	case wire.TypeBatchQuery:
		return s.answerBatch(rw, body, sess)
	case wire.TypeAddDocs, wire.TypeDeleteDocs:
		// inflight also spans admin operations so a graceful Shutdown
		// never cuts a connection between applying an update and
		// acknowledging it.
		return s.answerAdmin(rw, typ, body)
	default: // wire.TypePIRParams, wire.TypePIRQuery, wire.TypePIRBatchQuery, wire.TypePIRRecursiveQuery
		return s.answerRetrieval(rw, typ, body)
	}
}

// requestCtx starts the server-side deadline for one admitted request.
// The clock starts here — after admission — so queue wait never eats
// into a request's execution budget (QueueTimeout bounds that wait
// separately).
func (s *NetServer) requestCtx() (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(context.Background(), s.reqTimeout)
	}
	return context.Background(), func() {}
}

// process runs one embellished query through the engine's configured
// pipeline, timing it into the server counters. The caller (serveConn)
// holds the inflight count for the whole message exchange.
func (s *NetServer) process(ctx context.Context, q *core.Query) (*core.Response, core.Stats, error) {
	start := time.Now()
	resp, st, err := s.engine.processCoreCtx(ctx, q)
	elapsed := time.Since(start)
	s.queries.Add(1)
	s.busyNs.Add(int64(elapsed))
	for {
		cur := s.maxNs.Load()
		if int64(elapsed) <= cur || s.maxNs.CompareAndSwap(cur, int64(elapsed)) {
			break
		}
	}
	return resp, st, err
}

// deadlineError answers one deadline-cancelled request with the typed
// DeadlineRefusal wire error (the connection stays up) and counts it.
func (s *NetServer) deadlineError(rw io.ReadWriter, detail string) error {
	s.deadlines.Add(1)
	s.errs.Add(1)
	return wire.WriteError(rw, wire.DeadlineRefusal+": "+detail)
}

// isCtxErr reports whether err is the context's own cancellation —
// the signal that the scan was cut short by the server deadline, as
// opposed to failing on its own.
func isCtxErr(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	// Sentinel check rather than comparing against ctx.Err(): a scan
	// stopped by its wall-clock deadline check reports DeadlineExceeded
	// before the context's own timer has necessarily fired.
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *NetServer) answerQuery(rw io.ReadWriter, body []byte, sess *sessionAudit, decoy bool) error {
	q, err := wire.DecodeQuery(body)
	if err != nil {
		s.errs.Add(1)
		return wire.WriteError(rw, err.Error())
	}
	if decoy {
		s.decoyQueries.Add(1)
	}
	sess.observe(q, decoy)
	ctx, cancel := s.requestCtx()
	defer cancel()
	resp, stats, err := s.process(ctx, q)
	if err != nil {
		if isCtxErr(ctx, err) {
			return s.deadlineError(rw, fmt.Sprintf("query cancelled after %d postings", stats.Postings))
		}
		s.errs.Add(1)
		return wire.WriteError(rw, err.Error())
	}
	return wire.WriteResponse(rw, resp, stats)
}

// answerAdmin applies one online corpus update — behind the opt-in
// AllowUpdates flag — and acknowledges with the resulting corpus shape.
// Rejected and malformed requests are answered with a wire error and
// the connection stays up.
func (s *NetServer) answerAdmin(rw io.ReadWriter, typ byte, body []byte) error {
	if !s.allowUpdates {
		s.errs.Add(1)
		return wire.WriteError(rw, "live updates are disabled on this server")
	}
	var err error
	switch typ {
	case wire.TypeAddDocs:
		var dts []wire.DocText
		if dts, err = wire.DecodeAddDocs(body); err == nil {
			docs := make([]Document, len(dts))
			for i, d := range dts {
				docs[i] = Document{ID: int(d.ID), Text: d.Text}
			}
			err = s.engine.AddDocuments(docs)
		}
	case wire.TypeDeleteDocs:
		var ids []uint32
		if ids, err = wire.DecodeDeleteDocs(body); err == nil {
			del := make([]int, len(ids))
			for i, id := range ids {
				del[i] = int(id)
			}
			err = s.engine.DeleteDocuments(del)
		}
	}
	if err != nil {
		s.errs.Add(1)
		return wire.WriteError(rw, err.Error())
	}
	s.updates.Add(1)
	// On durable engines, fold the journal into a checkpoint in the
	// background once the Durability thresholds are crossed — bounding
	// both log growth and the next restart's replay time. Single-flight
	// and off the request path, so the ack below never waits on it.
	s.engine.maybeCheckpointAsync()
	// One snapshot for the whole ack, so the (docs, segments) pair is
	// internally consistent even when other updates or merges land
	// between the apply and the ack.
	snap := s.engine.Snapshot()
	return wire.WriteAdminOK(rw, snap.NumDocs(), snap.NumSegments())
}

// answerRetrieval serves the private document-fetch messages — behind
// the opt-in AllowRetrieval flag — from one store snapshot per
// message. Refusals and malformed queries are answered with a wire
// error and the connection stays up, matching the admin path.
func (s *NetServer) answerRetrieval(rw io.ReadWriter, typ byte, body []byte) error {
	if !s.allowRetrieval {
		s.errs.Add(1)
		return wire.WriteError(rw, "private document retrieval is disabled on this server")
	}
	snap, err := s.engine.storeSnapshot()
	if err != nil {
		s.errs.Add(1)
		return wire.WriteError(rw, "this server stores no documents")
	}
	switch typ {
	case wire.TypePIRParams:
		if len(body) != 0 {
			s.errs.Add(1)
			return wire.WriteError(rw, "params request carries no body")
		}
		return wire.WritePIRParams(rw, snap.Params())
	case wire.TypePIRRecursiveQuery:
		// The recursive layout is gated separately from AllowRetrieval:
		// the refusal reuses the frozen UnknownTypeRefusal prefix, so a
		// client cannot distinguish "knob off" from "server predates the
		// frame" and falls back to flat queries in both cases.
		if !s.pirRecursive() {
			s.errs.Add(1)
			return wire.WriteError(rw, fmt.Sprintf("%s %d: recursive retrieval is disabled on this server", wire.UnknownTypeRefusal, typ))
		}
		qs, err := wire.DecodePIRRecursiveQuery(body)
		if err != nil {
			s.errs.Add(1)
			return wire.WriteError(rw, err.Error())
		}
		ctx, cancel := s.requestCtx()
		defer cancel()
		answers, stats, err := answerPIRRecursiveCtx(ctx, snap, qs, s.pirWorkers())
		for _, st := range stats {
			s.countPIRWork(st)
		}
		if err != nil {
			if isCtxErr(ctx, err) {
				return s.deadlineError(rw, "recursive scan cancelled")
			}
			s.errs.Add(1)
			return wire.WriteError(rw, err.Error())
		}
		// Answers reuse the batch-response frame, streamed in batch
		// order like the flat path.
		for i, ans := range answers {
			s.retrievals.Add(1)
			s.pirRecQueries.Add(1)
			if len(qs[i].Cols) == 0 {
				s.pirRecPartials.Add(1)
			}
			if err := wire.WritePIRBatchAnswer(rw, i, ans); err != nil {
				return err
			}
		}
		return nil
	case wire.TypePIRBatchQuery:
		// One snapshot answers the whole batch, so a pipelined fetch
		// reads an internally consistent corpus prefix. Answers stream
		// back one frame each, strictly in batch order; a failing block
		// is answered with a wire error in place of the whole batch
		// (the connection survives, matching the single-query path). A
		// seeded vector wider than the store is refused before it expands.
		qs, err := wire.DecodePIRBatchQueryWithin(body, snap.NumBlocks())
		if err != nil {
			s.errs.Add(1)
			return wire.WriteError(rw, err.Error())
		}
		// One deadline covers the whole batch frame, matching the
		// search-batch path.
		ctx, cancel := s.requestCtx()
		defer cancel()
		answers, at, err := s.answerPIRFrame(ctx, snap, qs)
		if err != nil {
			if isCtxErr(ctx, err) {
				return s.deadlineError(rw, fmt.Sprintf("batch cancelled in block %d", at))
			}
			s.errs.Add(1)
			return wire.WriteError(rw, fmt.Sprintf("batch block %d: %v", at, err))
		}
		for i, ans := range answers {
			s.retrievals.Add(1)
			if err := wire.WritePIRBatchAnswer(rw, i, ans); err != nil {
				return err
			}
		}
		return nil
	default: // wire.TypePIRQuery: a frame of one
		q, err := wire.DecodePIRQuery(body)
		if err != nil {
			s.errs.Add(1)
			return wire.WriteError(rw, err.Error())
		}
		ctx, cancel := s.requestCtx()
		defer cancel()
		answers, _, err := s.answerPIRFrame(ctx, snap, []*pir.Query{q})
		if err != nil {
			if isCtxErr(ctx, err) {
				return s.deadlineError(rw, "block scan cancelled")
			}
			s.errs.Add(1)
			return wire.WriteError(rw, err.Error())
		}
		s.retrievals.Add(1)
		return wire.WritePIRAnswer(rw, answers[0])
	}
}

// answerPIRFrame computes the answers of one flat PIR frame — the
// queries of a TypePIRBatchQuery, or the one query of a TypePIRQuery —
// in frame order through the one-pass executor. Queries of equal width
// are computed together in a single pass over the store (prefix
// addressing under churn means widths MAY differ inside one frame, so
// positions are grouped by width first), which also means a deadline
// cancels the whole frame before any answer streams rather than between
// blocks. On failure it returns the frame position of the failing
// group's first query; every group's per-query Stats are counted even
// then.
func (s *NetServer) answerPIRFrame(ctx context.Context, snap *docstore.Snapshot, qs []*pir.Query) ([]*pir.Answer, int, error) {
	var widths []int
	byWidth := make(map[int][]int)
	for i, q := range qs {
		w := len(q.Values)
		if _, ok := byWidth[w]; !ok {
			widths = append(widths, w)
		}
		byWidth[w] = append(byWidth[w], i)
	}
	answers := make([]*pir.Answer, len(qs))
	for _, w := range widths {
		idx := byWidth[w]
		sub := make([]*pir.Query, len(idx))
		for j, i := range idx {
			sub[j] = qs[i]
		}
		got, stats, err := answerPIRMultiCtx(ctx, snap, sub, s.pirWorkers())
		for _, st := range stats {
			s.countPIRWork(st)
		}
		if err != nil {
			return nil, idx[0], err
		}
		for j, i := range idx {
			answers[i] = got[j]
		}
	}
	return answers, 0, nil
}

func (s *NetServer) answerBatch(rw io.ReadWriter, body []byte, sess *sessionAudit) error {
	qs, err := wire.DecodeBatchQuery(body)
	if err != nil {
		s.errs.Add(1)
		return wire.WriteError(rw, err.Error())
	}
	for _, q := range qs {
		sess.observe(q, false)
	}
	// One deadline covers the whole batch: the peer sent one frame and
	// gets one response, so the batch is the unit of server work.
	ctx, cancel := s.requestCtx()
	defer cancel()
	resps := make([]*core.Response, len(qs))
	stats := make([]core.Stats, len(qs))
	for i, q := range qs {
		resp, st, err := s.process(ctx, q)
		if err != nil {
			if isCtxErr(ctx, err) {
				return s.deadlineError(rw, fmt.Sprintf("batch cancelled in query %d", i))
			}
			s.errs.Add(1)
			return wire.WriteError(rw, fmt.Sprintf("batch query %d: %v", i, err))
		}
		resps[i] = resp
		stats[i] = st
	}
	return wire.WriteBatchResponse(rw, resps, stats)
}

// Serve accepts connections on a default-configured NetServer. Kept as
// the simple entry point; deployments needing connection limits,
// timeouts or graceful shutdown construct a NetServer explicitly.
func (e *Engine) Serve(l net.Listener) error {
	return e.NewNetServer(ServeConfig{}).Serve(l)
}

// ServeConn answers queries on one transport until EOF or a transport
// error, without connection accounting — the transport is managed by
// the caller.
func (e *Engine) ServeConn(conn io.ReadWriter) error {
	deadliner, _ := conn.(net.Conn)
	return e.NewNetServer(ServeConfig{}).serveConn(conn, deadliner)
}

// Client-visible classifications of a server refusal. Both are
// transient: the request was not executed (or was cancelled mid-scan),
// the connection survives, and a retry — after backoff for
// ErrOverloaded — may succeed.
var (
	// ErrOverloaded is wrapped by client calls when the server shed the
	// request under admission control (queue full, queue timeout, or
	// connection cap).
	ErrOverloaded = errors.New("embellish: server overloaded")
	// ErrRemoteDeadline is wrapped by client calls when the server
	// cancelled the request mid-scan at its RequestTimeout.
	ErrRemoteDeadline = errors.New("embellish: server deadline exceeded")
)

// remoteError classifies one TypeError body from a server: typed
// overload and deadline refusals wrap the matching sentinel (so
// callers can errors.Is their way to a retry policy); everything else
// stays an opaque server error.
func remoteError(body []byte) error {
	msg := string(body)
	switch {
	case strings.HasPrefix(msg, wire.OverloadRefusal):
		// The sentinel's text already says "server overloaded"; keep
		// only the server's detail after the typed prefix.
		return fmt.Errorf("%w%s", ErrOverloaded, strings.TrimPrefix(msg, wire.OverloadRefusal))
	case strings.HasPrefix(msg, wire.DeadlineRefusal):
		return fmt.Errorf("%w%s", ErrRemoteDeadline, strings.TrimPrefix(msg, wire.DeadlineRefusal))
	case strings.HasPrefix(msg, wire.StaleLexiconRefusal):
		return fmt.Errorf("%w%s", ErrStaleLexicon, strings.TrimPrefix(msg, wire.StaleLexiconRefusal))
	default:
		return fmt.Errorf("embellish: server error: %s", msg)
	}
}

// SearchRemote runs one private query against a remote engine: Algorithm
// 3 locally, Algorithm 4 on the server, Algorithm 5 locally. The
// connection can be reused across calls.
func (c *Client) SearchRemote(conn io.ReadWriter, query string, k int) ([]Result, error) {
	eq, err := c.Embellish(query)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteQuery(conn, eq.inner); err != nil {
		return nil, fmt.Errorf("embellish: sending query: %w", err)
	}
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("embellish: reading response: %w", err)
	}
	switch typ {
	case wire.TypeError:
		return nil, remoteError(body)
	case wire.TypeResponse:
	default:
		return nil, fmt.Errorf("embellish: unexpected message type %d", typ)
	}
	cands, _, err := wire.DecodeResponse(body)
	if err != nil {
		return nil, err
	}
	return c.decodeCandidates(cands, k)
}

// SearchRemoteBatch runs several private queries against a remote
// engine in one round-trip: every query is embellished locally, the
// batch travels as a single frame carrying the public key once, and the
// per-query rankings come back in order. Queries that cannot be
// embellished fail the whole batch (the caller knows exactly which —
// the error names the query index).
func (c *Client) SearchRemoteBatch(conn io.ReadWriter, queries []string, k int) ([][]Result, error) {
	if len(queries) == 0 {
		return nil, errors.New("embellish: empty batch")
	}
	qs := make([]*core.Query, len(queries))
	for i, query := range queries {
		eq, err := c.Embellish(query)
		if err != nil {
			return nil, fmt.Errorf("embellish: batch query %d: %w", i, err)
		}
		qs[i] = eq.inner
	}
	if err := wire.WriteBatchQuery(conn, qs); err != nil {
		return nil, fmt.Errorf("embellish: sending batch: %w", err)
	}
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("embellish: reading batch response: %w", err)
	}
	switch typ {
	case wire.TypeError:
		return nil, remoteError(body)
	case wire.TypeBatchResponse:
	default:
		return nil, fmt.Errorf("embellish: unexpected message type %d", typ)
	}
	cands, _, err := wire.DecodeBatchResponse(body)
	if err != nil {
		return nil, err
	}
	if len(cands) != len(queries) {
		return nil, fmt.Errorf("embellish: batch response has %d results for %d queries", len(cands), len(queries))
	}
	out := make([][]Result, len(cands))
	for i := range cands {
		res, err := c.decodeCandidates(cands[i], k)
		if err != nil {
			return nil, fmt.Errorf("embellish: batch result %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// AdminStatus reports a remote server's corpus shape after an applied
// online update.
type AdminStatus struct {
	// LiveDocs is the server's live (non-deleted) document count.
	LiveDocs int
	// Segments is the server's live-index segment count.
	Segments int
}

// AddDocumentsRemote adds documents to a remote engine that was started
// with updates enabled (ServeConfig.AllowUpdates). Document ids must
// continue the remote engine's dense sequence, exactly as with
// Engine.AddDocuments; when both endpoints share an engine file, the
// local engine's NextDocID supplies them. Ingests larger than one
// admin frame (wire.MaxAdminDocs documents) are batched across frames;
// each frame is applied atomically on the server, so an error partway
// through a batched ingest means the earlier frames ARE applied — the
// returned status always reflects the server's state after the last
// acknowledged frame. The connection can be reused for queries before
// and after.
func AddDocumentsRemote(conn io.ReadWriter, docs []Document) (AdminStatus, error) {
	if len(docs) == 0 {
		return AdminStatus{}, errors.New("embellish: no documents to add")
	}
	dts := make([]wire.DocText, len(docs))
	for i, d := range docs {
		if d.ID < 0 || d.ID > 1<<31-1 {
			return AdminStatus{}, fmt.Errorf("embellish: document id %d out of range", d.ID)
		}
		dts[i] = wire.DocText{ID: uint32(d.ID), Text: d.Text}
	}
	// Chunk by count AND by cumulative text bytes: every document can be
	// individually valid yet a MaxAdminDocs-sized frame of large ones
	// would blow the wire frame cap.
	const maxChunkBytes = 16 << 20
	var st AdminStatus
	sent := 0
	for start := 0; start < len(dts); {
		end, bytes := start, 0
		for end < len(dts) && end-start < wire.MaxAdminDocs {
			bytes += len(dts[end].Text)
			if end > start && bytes > maxChunkBytes {
				break
			}
			end++
		}
		chunk := dts[start:end]
		next, err := adminRoundTrip(conn, func() error { return wire.WriteAddDocs(conn, chunk) })
		if err != nil {
			if sent > 0 {
				return st, fmt.Errorf("embellish: %d of %d documents applied: %w", sent, len(dts), err)
			}
			return st, err
		}
		st = next
		sent += len(chunk)
		start = end
	}
	return st, nil
}

// DeleteDocumentsRemote tombstones documents on a remote engine that
// was started with updates enabled (ServeConfig.AllowUpdates). Deletes
// larger than one admin frame batch across frames like
// AddDocumentsRemote.
func DeleteDocumentsRemote(conn io.ReadWriter, ids []int) (AdminStatus, error) {
	if len(ids) == 0 {
		return AdminStatus{}, errors.New("embellish: no documents to delete")
	}
	u := make([]uint32, len(ids))
	for i, id := range ids {
		if id < 0 || id > 1<<31-1 {
			return AdminStatus{}, fmt.Errorf("embellish: document id %d out of range", id)
		}
		u[i] = uint32(id)
	}
	var st AdminStatus
	for start := 0; start < len(u); start += wire.MaxAdminDocs {
		chunk := u[start:min(start+wire.MaxAdminDocs, len(u))]
		next, err := adminRoundTrip(conn, func() error { return wire.WriteDeleteDocs(conn, chunk) })
		if err != nil {
			if start > 0 {
				return st, fmt.Errorf("embellish: %d of %d deletions applied: %w", start, len(u), err)
			}
			return st, err
		}
		st = next
	}
	return st, nil
}

// adminRoundTrip sends one admin frame and reads the acknowledgement.
func adminRoundTrip(conn io.ReadWriter, write func() error) (AdminStatus, error) {
	if err := write(); err != nil {
		return AdminStatus{}, fmt.Errorf("embellish: sending update: %w", err)
	}
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		return AdminStatus{}, fmt.Errorf("embellish: reading update response: %w", err)
	}
	switch typ {
	case wire.TypeError:
		return AdminStatus{}, remoteError(body)
	case wire.TypeAdminOK:
	default:
		return AdminStatus{}, fmt.Errorf("embellish: unexpected message type %d", typ)
	}
	live, segs, err := wire.DecodeAdminOK(body)
	if err != nil {
		return AdminStatus{}, err
	}
	return AdminStatus{LiveDocs: live, Segments: segs}, nil
}

// decodeCandidates runs Algorithm 5 over a candidate set, decoded off the
// wire or answered in process.
func (c *Client) decodeCandidates(cands []core.DocScore, k int) ([]Result, error) {
	ranked, err := c.inner.PostFilter(&core.Response{Docs: cands}, k)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(ranked))
	for i, r := range ranked {
		out[i] = Result{DocID: int(r.Doc), Score: r.Score}
	}
	return out, nil
}
