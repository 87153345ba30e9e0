package embellish

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"embellish/internal/core"
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/serve"
	"embellish/internal/wire"
)

// Network deployment: the paper's protocol is client-server — the
// client embellishes and decrypts, the engine only ever sees the
// embellished query. NetServer turns an Engine into a long-running
// concurrent service speaking the internal/wire framing: its frame
// types are rows of one handler table, run by internal/serve's request
// loop (connection cap, idle deadline, admission, request deadline,
// refusals, counters, graceful shutdown). SearchRemote runs the client
// side of one query against any such service; SearchRemoteBatch
// amortizes framing over several queries. Both endpoints typically load
// the same engine file (Save/LoadEngine), which is how they come to
// agree on the bucket organization.

// DefaultMaxConns is the simultaneous-connection limit applied when
// ServeConfig.MaxConns is zero.
const DefaultMaxConns = 1024

// DefaultQueueDepth is the admission-queue depth applied when
// ServeConfig.QueueDepth is zero and admission control is enabled.
const DefaultQueueDepth = serve.DefaultQueueDepth

// DefaultQueueTimeout is the per-request queue wait bound applied when
// ServeConfig.QueueTimeout is zero and admission control is enabled.
const DefaultQueueTimeout = serve.DefaultQueueTimeout

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
	// messages (TypePIRParams / TypePIRBatchQuery /
	// TypePIRRecursiveQuery). Off by default: a flat PIR answer scans
	// its document's class view, ~8·h·BlockSize modular multiplications
	// per column of the view of height h (Options.BlockSize), and a
	// recursive one the whole block array, so a deployment must
	// deliberately expose that CPU surface. Requires an engine built
	// with Options.StoreDocuments (or loaded from a version-3 file
	// carrying a store).
	AllowRetrieval bool
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
	engine *Engine
	// loop runs the handler table and holds the counters.
	loop      *serve.Server[sessionAudit]
	riskAudit bool
	// replicaStatus, when set (SetReplicaStatus), reports the primary's
	// newest known sequence number for the staleness rows of the stats
	// surface.
	replicaStatus atomic.Pointer[func() (uint64, bool)]
}

// netRequest is one frame in hand on a NetServer connection; the
// connection's state is its session audit.
type netRequest = serve.Request[sessionAudit]

// NewNetServer builds a concurrent protocol server around the engine.
func (e *Engine) NewNetServer(cfg ServeConfig) *NetServer {
	maxConns := cfg.MaxConns
	if maxConns == 0 {
		maxConns = DefaultMaxConns
	}
	s := &NetServer{engine: e, riskAudit: cfg.RiskAudit}
	updates := serve.Gate{Off: !cfg.AllowUpdates, Refusal: "live updates are disabled on this server"}
	// An engine's store is fixed when it is built, so a server with
	// retrieval on and no store refuses those frames at the gate too.
	retrieval := serve.Gate{Off: !cfg.AllowRetrieval, Refusal: "private document retrieval is disabled on this server"}
	if !retrieval.Off && e.store == nil {
		retrieval = serve.Gate{Off: true, Refusal: "this server stores no documents"}
	}
	// Every frame that spends engine work is admitted. TypeDecoyQuery is
	// admitted exactly like TypeQuery: decoys are real server work, and
	// exempting them from admission would make them an overload side
	// channel. Admin updates are admitted, so the drain never cuts one
	// between applying and acknowledging it, but deadline-exempt. The
	// unadmitted rows read cached or accumulated state that must stay
	// answerable while the server is saturated: stats (that is when an
	// operator needs them), WAL pulls (replicas are the failover
	// targets), the lexicon and the session audit.
	table := []serve.Handler[sessionAudit]{
		wire.TypeQuery:             {Admitted: true, Deadline: true, Exec: s.answerQuery},
		wire.TypeDecoyQuery:        {Admitted: true, Deadline: true, Exec: s.answerQuery},
		wire.TypeBatchQuery:        {Admitted: true, Deadline: true, Exec: s.answerBatch},
		wire.TypeAddDocs:           {Gate: updates, Admitted: true, Exec: s.answerAdmin},
		wire.TypeDeleteDocs:        {Gate: updates, Admitted: true, Exec: s.answerAdmin},
		wire.TypePIRParams:         {Gate: retrieval, Admitted: true, Exec: s.answerPIRParams},
		wire.TypePIRBatchQuery:     {Gate: retrieval, Admitted: true, Deadline: true, Exec: s.answerPIRBatch},
		wire.TypePIRRecursiveQuery: {Gate: retrieval, Admitted: true, Deadline: true, Exec: s.answerPIRRecursive},
		wire.TypeStats:             {Name: "stats", EmptyBody: true, Exec: s.answerStats},
		wire.TypeWALPull: {
			Gate: serve.Gate{Off: !cfg.AllowReplication, Refusal: "replication is disabled on this server"},
			Exec: s.answerWALPull,
		},
		wire.TypeLexiconSync: {
			Gate: serve.Gate{Off: !cfg.AllowLexiconSync, Refusal: "lexicon sync is disabled on this server"},
			Exec: s.answerLexiconSync,
		},
		wire.TypeRiskAudit: {
			Name:      "risk audit",
			Gate:      serve.Gate{Off: !cfg.RiskAudit, Refusal: "risk auditing is disabled on this server"},
			EmptyBody: true,
			Exec:      s.answerRiskAudit,
		},
	}
	s.loop = serve.New(serve.Config{
		Name:           "embellish: server",
		MaxConns:       maxConns,
		IdleTimeout:    cfg.IdleTimeout,
		RequestTimeout: cfg.RequestTimeout,
		MaxInflight:    cfg.MaxInflight,
		QueueDepth:     cfg.QueueDepth,
		QueueTimeout:   cfg.QueueTimeout,
	}, table)
	return s
}

// countPIRWork folds one answer's Stats into the server-wide mul
// counters — called on error paths too, so a cancelled scan's partial
// work stays visible in the PIR work counters.
func (s *NetServer) countPIRWork(st pir.Stats) {
	s.loop.Counters[wire.StatPIRModMuls].Add(int64(st.ModMuls))
	s.loop.Counters[wire.StatPIRTableMuls].Add(int64(st.TableMuls))
}

// Stats returns a snapshot of the server's counters.
func (s *NetServer) Stats() ServeStats {
	return serveStats(s.statsPayload())
}

// Serve accepts connections until the listener is closed (directly or
// via Shutdown), handling each connection in its own goroutine. It
// returns the listener's accept error — net.ErrClosed after a clean
// shutdown becomes nil.
func (s *NetServer) Serve(l net.Listener) error {
	return s.loop.Serve(l)
}

// Shutdown gracefully stops the server: close the listeners, wait for
// in-flight and queued requests to finish (up to the context deadline),
// then close all connections. It returns the context's error when the
// deadline fired before the server drained.
func (s *NetServer) Shutdown(ctx context.Context) error {
	err := s.loop.Shutdown(ctx)
	// A graceful shutdown leaves a durable engine checkpoint-clean, so
	// the next boot loads the snapshot and replays nothing. Runs after
	// the drain: every acknowledged update is in the captured state.
	if cerr := s.engine.checkpointIfDirty(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// process runs one embellished query through the engine's configured
// pipeline, timing it into the server counters.
func (s *NetServer) process(ctx context.Context, q *core.Query) (*core.Response, core.Stats, error) {
	start := time.Now()
	resp, st, err := s.engine.processCoreCtx(ctx, q)
	elapsed := int64(time.Since(start))
	s.loop.Counters[wire.StatQueries].Add(1)
	s.loop.Counters[wire.StatQueryNs].Add(elapsed)
	s.loop.Counters.Max(wire.StatMaxQueryNs, elapsed)
	return resp, st, err
}

// isCtxErr reports whether err is a context's cancellation — the
// signal that the scan was cut short by the server deadline, as opposed
// to failing on its own. Sentinel check rather than comparing against
// ctx.Err(): a scan stopped by its wall-clock deadline check reports
// DeadlineExceeded before the context's own timer has necessarily
// fired.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *NetServer) answerQuery(req *netRequest) error {
	q, err := wire.DecodeQuery(req.Body)
	if err != nil {
		return err
	}
	decoy := req.Type == wire.TypeDecoyQuery
	if decoy {
		s.loop.Counters[wire.StatDecoyQueries].Add(1)
	}
	s.observe(req.State, q, decoy)
	resp, stats, err := s.process(req.Ctx, q)
	if err != nil {
		if isCtxErr(err) {
			return serve.Deadline(fmt.Sprintf("query cancelled after %d postings", stats.Postings))
		}
		return err
	}
	return wire.WriteResponse(req.W, resp, stats)
}

func (s *NetServer) answerBatch(req *netRequest) error {
	qs, err := wire.DecodeBatchQuery(req.Body)
	if err != nil {
		return err
	}
	for _, q := range qs {
		s.observe(req.State, q, false)
	}
	// One deadline covers the whole batch: the peer sent one frame and
	// gets one response, so the batch is the unit of server work.
	resps := make([]*core.Response, len(qs))
	stats := make([]core.Stats, len(qs))
	for i, q := range qs {
		resp, st, err := s.process(req.Ctx, q)
		if err != nil {
			if isCtxErr(err) {
				return serve.Deadline(fmt.Sprintf("batch cancelled in query %d", i))
			}
			return fmt.Errorf("batch query %d: %v", i, err)
		}
		resps[i] = resp
		stats[i] = st
	}
	return wire.WriteBatchResponse(req.W, resps, stats)
}

// answerAdmin applies one online corpus update and acknowledges with
// the resulting corpus shape.
func (s *NetServer) answerAdmin(req *netRequest) error {
	var err error
	if req.Type == wire.TypeAddDocs {
		var dts []wire.DocText
		if dts, err = wire.DecodeAddDocs(req.Body); err == nil {
			docs := make([]Document, len(dts))
			for i, d := range dts {
				docs[i] = Document{ID: int(d.ID), Text: d.Text}
			}
			err = s.engine.AddDocuments(docs)
		}
	} else {
		var ids []uint32
		if ids, err = wire.DecodeDeleteDocs(req.Body); err == nil {
			del := make([]int, len(ids))
			for i, id := range ids {
				del[i] = int(id)
			}
			err = s.engine.DeleteDocuments(del)
		}
	}
	if err != nil {
		return err
	}
	s.loop.Counters[wire.StatUpdates].Add(1)
	// On durable engines, fold the journal into a checkpoint in the
	// background once the Durability thresholds are crossed — bounding
	// both log growth and the next restart's replay time. Single-flight
	// and off the request path, so the ack below never waits on it.
	s.engine.maybeCheckpointAsync()
	// One snapshot for the whole ack, so the (docs, segments) pair is
	// internally consistent even when other updates or merges land
	// between the apply and the ack.
	snap := s.engine.Snapshot()
	return wire.WriteAdminOK(req.W, snap.NumDocs(), snap.NumSegments())
}

// The private document-fetch messages are each served from one store
// snapshot per frame.

// answerPIRParams answers the empty request with the table alone and the
// hello with the unchanged or changed reply.
func (s *NetServer) answerPIRParams(req *netRequest) error {
	params := s.engine.store.Snapshot().Params()
	if len(req.Body) == 0 {
		return wire.WritePIRParams(req.W, params)
	}
	have, err := wire.DecodePIRHello(req.Body)
	if err != nil {
		return err
	}
	return wire.WritePIRHelloReply(req.W, params, have)
}

// answerPIRBatch serves a TypePIRBatchQuery. One snapshot answers the
// whole batch, so a pipelined fetch reads an internally consistent
// corpus prefix, and one deadline covers it, matching the search-batch
// path. Answers stream back one frame each, strictly in batch order; a
// failing column is refused in place of the whole batch. An entry whose
// height names no view of the store, or that is wider than its view, is
// refused before any seed expands.
func (s *NetServer) answerPIRBatch(req *netRequest) error {
	snap := s.engine.store.Snapshot()
	qs, err := wire.DecodePIRBatchQueryWithin(req.Body, snap.Layout().Widths())
	if err != nil {
		return err
	}
	answers, stats, at, err := answerPIRFrame(req.Ctx, snap, qs)
	for _, st := range stats {
		s.countPIRWork(st)
	}
	if err != nil {
		if isCtxErr(err) {
			return serve.Deadline(fmt.Sprintf("batch cancelled in block %d", at))
		}
		return fmt.Errorf("batch block %d: %v", at, err)
	}
	for i, ans := range answers {
		s.loop.Counters[wire.StatRetrievals].Add(1)
		if err := wire.WritePIRBatchAnswerPacked(req.W, i, ans, qs[0].N); err != nil {
			return err
		}
	}
	return nil
}

// answerPIRRecursive serves a TypePIRRecursiveQuery, whose answers reuse
// the batch-response frame, streamed in batch order like the flat path.
func (s *NetServer) answerPIRRecursive(req *netRequest) error {
	snap := s.engine.store.Snapshot()
	qs, err := wire.DecodePIRRecursiveQuery(req.Body)
	if err != nil {
		return err
	}
	answers, stats, err := answerPIRRecursiveCtx(req.Ctx, snap, qs)
	for _, st := range stats {
		s.countPIRWork(st)
	}
	if err != nil {
		if isCtxErr(err) {
			return serve.Deadline("recursive scan cancelled")
		}
		return err
	}
	for i, ans := range answers {
		s.loop.Counters[wire.StatRetrievals].Add(1)
		s.loop.Counters[wire.StatPIRRecursiveQueries].Add(1)
		if len(qs[i].Cols) == 0 {
			s.loop.Counters[wire.StatPIRRecursivePartials].Add(1)
		}
		if err := wire.WritePIRBatchAnswerPacked(req.W, i, ans, qs[i].N); err != nil {
			return err
		}
	}
	return nil
}

// answerPIRFrame computes the answers of one flat PIR frame — the
// queries of a TypePIRBatchQuery — in frame order through the one-pass executor, and returns them with
// the Stats of every pass that ran. Queries of equal height and width
// are computed together in a single pass over their database (a frame
// may name several class views, and prefix addressing under churn means
// widths MAY differ inside one view, so positions are grouped by both
// first), which also means a deadline cancels the whole frame before any
// answer streams rather than between columns. On failure it returns the
// frame position of the failing group's first query. Local fetches
// serve their batches through it too.
func answerPIRFrame(ctx context.Context, snap *docstore.Snapshot, qs []*pir.Query) ([]*pir.Answer, []pir.Stats, int, error) {
	type shape struct{ height, width int }
	var shapes []shape
	byShape := make(map[shape][]int)
	for i, q := range qs {
		sh := shape{q.Height, len(q.Values)}
		if _, ok := byShape[sh]; !ok {
			shapes = append(shapes, sh)
		}
		byShape[sh] = append(byShape[sh], i)
	}
	answers := make([]*pir.Answer, len(qs))
	var all []pir.Stats
	for _, sh := range shapes {
		idx := byShape[sh]
		sub := make([]*pir.Query, len(idx))
		for j, i := range idx {
			sub[j] = qs[i]
		}
		got, stats, err := answerPIRMultiCtx(ctx, snap, sub)
		all = append(all, stats...)
		if err != nil {
			return nil, all, idx[0], err
		}
		for j, i := range idx {
			answers[i] = got[j]
		}
	}
	return answers, all, 0, nil
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
	return e.NewNetServer(ServeConfig{}).loop.ServeConn(conn, deadliner)
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

// readReply reads one server reply: the wanted type yields its body, a
// TypeError its remoteError, any other type an error. what names the
// reply in a read failure.
func readReply(conn io.Reader, want byte, what string) ([]byte, error) {
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("embellish: reading %s: %w", what, err)
	}
	switch typ {
	case want:
		return body, nil
	case wire.TypeError:
		return nil, remoteError(body)
	default:
		return nil, fmt.Errorf("embellish: unexpected message type %d", typ)
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
	body, err := readReply(conn, wire.TypeResponse, "response")
	if err != nil {
		return nil, err
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
	body, err := readReply(conn, wire.TypeBatchResponse, "batch response")
	if err != nil {
		return nil, err
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
	body, err := readReply(conn, wire.TypeAdminOK, "update response")
	if err != nil {
		return AdminStatus{}, err
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
