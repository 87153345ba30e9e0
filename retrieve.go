package embellish

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"sync"
	"sync/atomic"

	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// Private document retrieval: the second stage of the paper's privacy
// story. Stage one (Embellish/Process/Decode) ranks without revealing
// the query; this file fetches the winning documents without revealing
// which ones won. The engine lays document bytes out into fixed-size
// PIR blocks (Options.StoreDocuments), and every document of b blocks
// into a column of its class view, the documents of min(b, H) blocks
// (internal/docstore). The client maps each ranked doc id to its class
// and column through the public block mapping (docstore.Params.Layout)
// and runs one Kushilevitz-Ostrovsky PIR execution per column over that
// view through the wire protocol (TypePIRParams / TypePIRBatchQuery /
// TypePIRBatchResponse, behind ServeConfig.AllowRetrieval), in process
// over an in-memory session to the engine. A document taller than H
// blocks is k consecutive columns, so the flat protocol draws ONE
// selection vector per document and asks for every further column as
// that vector rotated one column up (pir.Query.Next) — a public
// permutation the server applies for itself, one byte on the wire. The
// vector itself travels as a seed and two bits a column (pir.Seed),
// which the server expands into the group elements.
//
// What the server observes: each fetched document's class — the height
// its frame names — and its number of PIR executions, and nothing else.
// Which column of the class was touched is hidden by the
// quadratic-residuosity assumption, exactly as in Section 5.2's PIR
// baseline. The layout itself is churn-stable (tombstoned documents are
// padded out, never compacted away), so fetch offsets do not leak
// corpus updates.

// StoresDocuments reports whether the engine holds a document store
// (Options.StoreDocuments at construction, or loaded from a version-3
// engine file) and can therefore serve document fetches.
func (e *Engine) StoresDocuments() bool { return e.store != nil }

// Document returns document id's stored bytes, read directly in the
// clear — the server-side/test path; remote users fetch privately with
// Client.FetchDocumentsRemote. It errors for unassigned ids, for
// tombstoned documents, and on engines without a document store.
func (e *Engine) Document(id int) ([]byte, error) {
	sn, err := e.storeSnapshot()
	if err != nil {
		return nil, err
	}
	b, err := sn.Document(id)
	if err != nil {
		return nil, fmt.Errorf("embellish: %w", err)
	}
	return b, nil
}

// Document returns document id's bytes as pinned by this snapshot: a
// document deleted after the snapshot was taken still reads, exactly
// like PlaintextSearch still ranks it.
func (s *Snapshot) Document(id int) ([]byte, error) {
	if s.store == nil {
		return nil, errNoStore
	}
	b, err := s.store.Document(id)
	if err != nil {
		return nil, fmt.Errorf("embellish: %w", err)
	}
	return b, nil
}

var errNoStore = errors.New("embellish: engine stores no documents (enable Options.StoreDocuments)")

// maxStoredDocBytes bounds a single stored document so the docstore's
// uint32 extents can never overflow; AddDocuments validates against it
// BEFORE mutating anything.
const maxStoredDocBytes = 1 << 30

func (e *Engine) storeSnapshot() (*docstore.Snapshot, error) {
	if e.store == nil {
		return nil, errNoStore
	}
	return e.store.Snapshot(), nil
}

// SetRetrievalKeyBits overrides the PIR modulus size for this client's
// document fetches. The default comes from the engine's
// Options.RetrievalKeyBits (falling back to KeyBits) — but that knob
// is not persisted, so clients of LOADED engines use this to pick
// their own security/latency point; the modulus is a per-client
// choice the server never constrains (beyond the wire-protocol
// ceiling). Must be called before the first fetch.
func (c *Client) SetRetrievalKeyBits(bits int) error {
	if err := pir.CheckKeyBits(bits); err != nil {
		return fmt.Errorf("embellish: RetrievalKeyBits: %w", err)
	}
	if c.fetchKey != nil {
		return errors.New("embellish: the PIR key is already generated; set the size before the first fetch")
	}
	c.fetchBits = bits
	return nil
}

// pirKey returns the client's PIR key, generating it on first use (key
// generation costs two primes, so clients that never fetch never pay).
func (c *Client) pirKey() (*pir.ClientKey, error) {
	if c.fetchKey == nil {
		bits := c.fetchBits
		if bits == 0 {
			bits = c.world.fetchBits
		}
		key, err := pir.GenerateKey(c.inner.CryptoRand, bits)
		if err != nil {
			return nil, fmt.Errorf("embellish: PIR key generation: %w", err)
		}
		c.fetchKey = key
	}
	return c.fetchKey, nil
}

// DefaultFetchPipeline is the fetch-pipeline window applied when a
// client never calls SetFetchPipeline: up to this many block queries
// are in flight at once during a fetch.
const DefaultFetchPipeline = 8

// maxFetchPipeline bounds SetFetchPipeline: past this the window only
// buys memory pressure — batches are capped at wire.MaxPIRBatch
// queries (and by the frame byte budget) regardless of depth.
const maxFetchPipeline = 1024

// SetFetchPipeline sets this client's fetch-pipeline window: the
// approximate number of PIR column queries in flight at once during
// FetchDocuments / FetchDocumentsRemote. Query generation, server-side
// database scans and client-side answer decoding all overlap, and a
// remote fetch packs up to half the window into each batch frame
// (TypePIRBatchQuery), so a k-column fetch costs about 2k/depth frames;
// depth 1 sends frames of one query each. The protocol answers are
// identical at every depth; only the scheduling changes.
func (c *Client) SetFetchPipeline(depth int) error {
	if depth < 1 || depth > maxFetchPipeline {
		return fmt.Errorf("embellish: fetch pipeline depth %d out of range [1, %d]", depth, maxFetchPipeline)
	}
	c.fetchDepth = depth
	return nil
}

// pipelineDepth resolves the fetch-pipeline window.
func (c *Client) pipelineDepth() int {
	if c.fetchDepth == 0 {
		return DefaultFetchPipeline
	}
	return c.fetchDepth
}

// SetFetchRecursive opts this client's document fetches into the
// two-level recursive PIR protocol: each block query carries two
// selection vectors of at most 3*ceil(sqrt(n)) group elements over a
// sqrt(n) x sqrt(n) grid, where the flat protocol uploads one seeded
// vector per document — ceil(n/4)+19 bytes for 128 <= n < 16,384 blocks
// (wire.SeededEntryBytes) — and a byte per further block. Its answer is
// modBytes times larger (one ciphertext per byte of the level-1 answer).
// The answers decode to byte-identical documents either way.
//
// Fetches, in process and remote alike, then send TypePIRRecursiveQuery
// frames, which every single-node server with AllowRetrieval serves. A
// cluster router refuses them as an unknown type, and a refused frame
// fails the fetch.
func (c *Client) SetFetchRecursive(on bool) {
	c.fetchRecursive = on
}

// remotePIR speaks the wire protocol over one connection: the hello,
// then streamed TypePIRBatchQuery / TypePIRBatchResponse frames.
type remotePIR struct {
	conn  io.ReadWriter
	depth int
	at    *fetchConn // what the client remembers of conn
}

// fetchConn is what a client remembers of the connection it fetched over
// last: the block mapping the server sent on it and the digest that names
// it.
type fetchConn struct {
	conn io.ReadWriter
	// digest names params, the mapping the last hello reply left the
	// client holding; nil until a server answered the hello.
	digest *wire.ParamsDigest
	params docstore.Params
	layout *docstore.Layout // params's class views, derived once per mapping
}

// sameConn reports whether a and b are one connection value; a value ==
// cannot compare is never the one a client fetched over last.
func sameConn(a, b io.ReadWriter) bool {
	return a != nil && reflect.ValueOf(b).Comparable() && a == b
}

// Params sends the hello — naming the mapping the client holds on this
// connection, if any — and returns the mapping the reply leaves it
// holding. The class views of a mapping are derived once, when the
// mapping arrives. A reply that is not a reply to the hello (the table
// alone) is a protocol error.
func (r remotePIR) Params() (docstore.Params, *docstore.Layout, error) {
	at := r.at
	if err := wire.WritePIRHello(r.conn, at.digest); err != nil {
		return docstore.Params{}, nil, fmt.Errorf("embellish: sending the PIR hello: %w", err)
	}
	body, err := readReply(r.conn, wire.TypePIRParams, "PIR params")
	if err != nil {
		return docstore.Params{}, nil, err
	}
	reply, err := wire.DecodePIRParamsReply(body)
	if err != nil {
		return docstore.Params{}, nil, err
	}
	switch {
	case reply.Changed:
		at.params, at.layout = reply.Params, reply.Params.Layout()
	case at.digest == nil || *at.digest != reply.Digest:
		return docstore.Params{}, nil, errors.New("embellish: the server called current a block mapping the client does not hold")
	}
	at.digest = &reply.Digest
	return at.params, at.layout, nil
}

// maxPIRBatchFrameBytes budgets one batch frame well under the wire
// frame cap: a batch of b queries costs ~b·values·modBytes on the
// wire, so wide moduli over big stores must shrink the batch, not
// overflow the frame.
const maxPIRBatchFrameBytes = 16 << 20

// pirBatchLimit sizes one batch: half the pipeline window (so two
// batches keep the window full), capped by the wire batch limit, by the
// frame byte budget at what one seeded entry of numValues columns, the
// widest of the fetch, costs on the wire — priced as a vector — and by
// the values the server may expand one frame to.
func pirBatchLimit(depth, numValues, modBits int) int {
	limit := min(max(depth/2, 1), wire.MaxPIRBatch, wire.MaxSeededValues((modBits+7)/8)/numValues)
	perQuery := wire.SeededEntryBytes(numValues, docstore.MaxColumnBytes, numValues-1)
	return max(1, min(limit, maxPIRBatchFrameBytes/perQuery))
}

// Run keeps a window of block queries in flight on one
// connection: a writer goroutine packs queries into TypePIRBatchQuery
// frames while this goroutine reads the streamed per-block answers
// back in order — so query generation, the server's database scans
// and the client's decoding all overlap, and round-trips amortize
// across the window.
//
// Failure handling preserves the connection where that is sound: on a
// delivery error (e.g. a document failing its checksum after a
// mid-fetch delete) the stream is still frame-aligned, so the
// remaining in-flight answers are drained and the connection stays
// reusable. Transport and protocol-level failures leave the stream in
// an undefined state — the caller must close the connection (which
// also unblocks the writer). In every case the writer goroutine exits
// once the connection is closed; it never outlives a successful or
// drained call.
func (r remotePIR) Run(ctx context.Context, qs <-chan *pir.Query, widest int, deliver func(wire.PIRAnswerView) error) error {
	var (
		committed  atomic.Int64 // answer frames the server owes us (queries written)
		abortOnce  sync.Once
		abort      = make(chan struct{})
		werr       = make(chan error, 1)
		sizes      = make(chan int, 2) // entries of written, not-yet-fully-read batches
		writerDone = make(chan struct{})
		commitPing = make(chan struct{}, 1) // wakes a draining reader per commit
	)
	stop := func() { abortOnce.Do(func() { close(abort) }) }
	defer stop()
	go func() {
		defer close(writerDone)
		defer close(sizes)
		var batchMax int
		for {
			first, ok := <-qs
			if !ok {
				return
			}
			select {
			case <-abort:
				return
			default:
			}
			if batchMax == 0 {
				batchMax = pirBatchLimit(r.depth, widest, first.N.BitLen())
			}
			batch := append(make([]*pir.Query, 0, batchMax), first)
			// Every frame, the first included, blocks on the generator
			// until it carries a full batch or generation ends: the
			// server scans the store once per frame, so a frame's width
			// is what its one-pass scan shares the database read over,
			// and how many frames a fetch takes must not depend on which
			// goroutine ran first. Generation is far cheaper than
			// serving, and from the second frame on the previous batch's
			// scan overlaps the wait.
		fill:
			for len(batch) < batchMax {
				select {
				case q, ok := <-qs:
					if !ok {
						break fill
					}
					batch = append(batch, q)
				case <-abort:
					return
				}
			}
			if err := wire.WritePIRBatchQuery(r.conn, batch); err != nil {
				werr <- fmt.Errorf("embellish: sending PIR batch: %w", err)
				return
			}
			committed.Add(int64(len(batch)))
			select {
			case commitPing <- struct{}{}:
			default: // a pending ping already wakes the drainer
			}
			select {
			case sizes <- len(batch):
			case <-abort:
				return
			}
		}
	}()

	consumed := 0
	// Every answer frame of the fetch is read into this one buffer, and a
	// packed answer is delivered as a view of it: deliver decodes the
	// gammas before it returns, so the next ReadMessageBuf may overwrite
	// them.
	var frame []byte
	for entries := range sizes {
		if err := ctx.Err(); err != nil {
			// Cancelled between batches: stop the writer and drain the
			// answers the server still owes, so the stream stays
			// frame-aligned and the connection survives the abandon.
			stop()
			return r.drain(consumed, &committed, writerDone, commitPing, err)
		}
		for i := 0; i < entries; i++ {
			typ, body, err := wire.ReadMessageBuf(r.conn, &frame)
			if err != nil {
				return fmt.Errorf("embellish: reading PIR batch answer: %w", err)
			}
			consumed++
			switch typ {
			case wire.TypeError:
				// The server aborted this batch partway; the remaining
				// frame accounting is unknowable, so the connection is
				// not reusable after this error.
				return remoteError(body)
			case wire.TypePIRBatchResponse:
			default:
				return fmt.Errorf("embellish: unexpected message type %d", typ)
			}
			ans, err := wire.ViewPIRBatchAnswer(body)
			if err != nil {
				return err
			}
			if ans.Index != i {
				return fmt.Errorf("embellish: batch answer %d arrived at position %d", ans.Index, i)
			}
			if err := deliver(ans); err != nil {
				// Delivery failures (checksum, shape) leave the stream
				// frame-aligned: drain what is in flight so the
				// connection survives for the next search or fetch.
				stop()
				return r.drain(consumed, &committed, writerDone, commitPing, err)
			}
		}
	}
	select {
	case err := <-werr:
		return err
	default:
		return nil
	}
}

// drain consumes the answer frames still owed by the server after a
// delivery error, leaving the connection at a frame boundary. The
// writer has been told to stop; it may still commit the one batch it
// was writing, so drain tracks its committed count until it exits —
// woken by the per-commit ping, never polling. The original failure
// is always returned; if the connection breaks (or the server errors)
// mid-drain, the stream is left undefined and the caller should
// discard the connection.
func (r remotePIR) drain(consumed int, committed *atomic.Int64, writerDone, commitPing <-chan struct{}, failure error) error {
	for {
		if int64(consumed) < committed.Load() {
			typ, _, err := wire.ReadMessage(r.conn)
			if err != nil || typ == wire.TypeError {
				return failure
			}
			consumed++
			continue
		}
		select {
		case <-writerDone:
			if int64(consumed) == committed.Load() {
				return failure
			}
			// One more batch was committed as the writer exited; loop
			// to read it.
		case <-commitPing:
		}
	}
}

// recursiveBatchLimit sizes one TypePIRRecursiveQuery frame: the wire
// batch cap, shrunk by the frame byte budget for queries of this shape
// (values group elements per query — the two selection vectors).
func recursiveBatchLimit(values, modBits int) int {
	limit := wire.MaxPIRRecursiveBatch
	perQuery := values*((modBits+7)/8+3) + 16
	if byBytes := maxPIRBatchFrameBytes / perQuery; byBytes < limit {
		limit = byBytes
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// RunRecursive speaks the recursive protocol: batches of up to
// wire.MaxPIRRecursiveBatch queries per TypePIRRecursiveQuery frame,
// answered by that many index-checked TypePIRBatchResponse frames.
// Frames are synchronous: the answer stream is read to the end before
// the next frame is written, and a refused frame fails the fetch.
// Collection blocks on the generator to fill each frame: recursive
// query generation costs sqrt(n) residuosity draws, orders of
// magnitude cheaper than the grid scan it feeds.
func (r remotePIR) RunRecursive(ctx context.Context, qs <-chan *pir.RecursiveQuery, deliver func(*pir.Answer) error) error {
	var batchMax int
	batch := make([]*pir.RecursiveQuery, 0, wire.MaxPIRRecursiveBatch)
	var frame []byte // every ~590 KB answer frame of the fetch is read into this one buffer
	serve := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := wire.WritePIRRecursiveQuery(r.conn, batch); err != nil {
			return fmt.Errorf("embellish: sending recursive PIR batch: %w", err)
		}
		for i := range batch {
			typ, body, err := wire.ReadMessageBuf(r.conn, &frame)
			if err != nil {
				return fmt.Errorf("embellish: reading recursive PIR answer: %w", err)
			}
			switch typ {
			case wire.TypeError:
				return remoteError(body)
			case wire.TypePIRBatchResponse:
			default:
				return fmt.Errorf("embellish: unexpected message type %d", typ)
			}
			idx, ans, err := wire.DecodePIRBatchAnswer(body)
			if err != nil {
				return err
			}
			if idx != i {
				return fmt.Errorf("embellish: recursive answer %d arrived at position %d", idx, i)
			}
			if err := deliver(ans); err != nil {
				return err
			}
		}
		batch = batch[:0]
		return nil
	}
	for q := range qs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if batchMax == 0 {
			batchMax = recursiveBatchLimit(len(q.Rows)+len(q.Cols), q.N.BitLen())
		}
		batch = append(batch, q)
		if len(batch) == batchMax {
			if err := serve(); err != nil {
				return err
			}
		}
	}
	if err := serve(); err != nil {
		return err
	}
	return ctx.Err()
}

// FetchStats describes the cost of one FetchDocuments call, feeding
// the PIR-vs-plaintext cost comparison of the Section 5.2 experiments.
type FetchStats struct {
	// Runs is the number of PIR protocol executions: one per column of
	// a document's class view — one for a document of at most H blocks —
	// or, in the recursive protocol, one per block.
	Runs int
	// Vectors is the number of selection vectors drawn. The flat
	// protocol draws one per document and asks for the document's further
	// columns as one-byte rotations of it, so Runs − Vectors executions
	// cost a byte of upload each; the recursive protocol draws one per
	// block (Vectors == Runs).
	Vectors int
	// QueryBytes and AnswerBytes total the protocol traffic: per vector
	// drawn its seeded entry (wire.SeededEntryBytes: width, height, seed,
	// rotation and two bits a column) plus one byte per rotation up; the
	// gammas down. The figure is the protocol's, not the frame
	// schedule's: a rotation that a frame boundary separates from its
	// vector travels as an entry of its own, once per boundary, and is
	// still counted as its byte.
	QueryBytes, AnswerBytes int
}

// FetchDocuments privately fetches the given documents from the
// engine's own store: FetchDocumentsRemote over an in-memory wire
// session, so tests and benchmarks measure the real fetch path and its
// FetchStats are a remote fetch's. Results align with ids. The server
// answers each batch frame from one store snapshot, so a document
// deleted mid-fetch fails its checksum rather than reading as a mix of
// states. Query generation overlaps serving through the client's fetch
// pipeline (SetFetchPipeline).
func (c *Client) FetchDocuments(ids []int) ([][]byte, FetchStats, error) {
	return c.FetchDocumentsContext(context.Background(), ids)
}

// FetchDocumentsContext is FetchDocuments under a context: the session's
// scans run under ctx, so a cancelled or deadline-expired fetch stops
// its block scans mid-database (the executor checks ctx inside the
// multiplication loops) and returns an error satisfying
// errors.Is(err, ctx.Err()). No partial results are returned.
func (c *Client) FetchDocumentsContext(ctx context.Context, ids []int) ([][]byte, FetchStats, error) {
	if c.engine == nil {
		return nil, FetchStats{}, ErrRemoteOnly
	}
	conn := c.engine.dial(ctx)
	defer conn.Close()
	// The session is fetched over once: the mapping the client holds
	// for its remote connection stays put.
	docs, st, err := c.fetchVia(ctx, remotePIR{conn: conn, depth: c.pipelineDepth(), at: &fetchConn{conn: conn}}, ids)
	if errors.Is(err, ErrRemoteDeadline) {
		// The session's only deadline is ctx's, which a scan's clock check
		// can see pass before ctx's own timer fires.
		cause := ctx.Err()
		if cause == nil {
			cause = context.DeadlineExceeded
		}
		err = fmt.Errorf("%w: %w", err, cause)
	}
	return docs, st, err
}

// FetchDocumentsRemote privately fetches the given documents from a
// remote engine over the wire protocol. The server must run with
// ServeConfig.AllowRetrieval and a document store; the connection can
// be reused for searches before and after, so one session typically
// ranks (SearchRemote) and then fetches the winners. The server
// observes only the number of blocks fetched, never which ones.
//
// Every fetch opens with the hello (wire.WritePIRHello), and the server
// answers every block packed, each gamma at the modulus's width. The
// hello names the block mapping the client holds for conn: the client
// keeps the mapping of the one conn it fetched over last and downloads it
// again only when the server's changed, so only a fetch that reuses the
// conn of the previous one while the store stays unchanged skips the
// table; a first fetch on a conn pays 18 bytes more for the hello's reply
// than the table alone. The mapping follows the conn value passed in, not
// the socket under it: a wrapper that reconnects underneath names its old
// mapping on the new socket, and the client holds a reference to conn
// until it fetches over another. A hello answered by anything but a reply
// to the hello fails the fetch.
//
// Column queries are pipelined over the single connection: up to the
// fetch-pipeline window (SetFetchPipeline, default
// DefaultFetchPipeline) of them travel seeded in batch frames while
// earlier answers stream back, so the connection must support
// concurrent Read and Write (every net.Conn does). A client that opted
// into the recursive protocol (SetFetchRecursive) fetches through it
// instead, one synchronous frame at a time, from a single-node server:
// a cluster router refuses the recursive protocol, and the fetch fails.
//
// After a successful fetch the connection is immediately reusable.
// After a document-level failure (a checksum error from a mid-fetch
// delete, an unfetchable id) the in-flight answers are drained and
// the connection remains usable. After a transport or protocol
// failure the stream state is undefined: close the connection and
// dial a fresh one.
func (c *Client) FetchDocumentsRemote(conn io.ReadWriter, ids []int) ([][]byte, FetchStats, error) {
	return c.FetchDocumentsRemoteContext(context.Background(), conn, ids)
}

// FetchDocumentsRemoteContext is FetchDocumentsRemote under a context:
// cancellation is honored at frame boundaries — the client stops
// committing new block queries and drains the answers already in
// flight, so the connection stays reusable after an abandoned fetch.
// (The server applies its own per-request deadline to each scan; see
// ServeConfig.RequestTimeout.)
func (c *Client) FetchDocumentsRemoteContext(ctx context.Context, conn io.ReadWriter, ids []int) ([][]byte, FetchStats, error) {
	if !sameConn(c.fetched.conn, conn) {
		c.fetched = fetchConn{conn: conn}
	}
	return c.fetchVia(ctx, remotePIR{conn: conn, depth: c.pipelineDepth(), at: &c.fetched}, ids)
}

// fetchVia runs the client side of the fetch protocol: obtain the
// block mapping, then one PIR execution per column of each document —
// over its class view, or per block of the block array in the recursive
// protocol — generated by a pipeline goroutine, served by the
// transport, and reassembled strictly in order, each document
// checksum-verified as its last column arrives. Any unfetchable id
// (never assigned, or tombstoned) fails the whole call — the error names
// the id, and no partial results are returned. Under SetFetchRecursive
// the executions are two-level recursive queries (RunRecursive) whose
// answers decode to the same block bytes — the reassembly, truncation
// and checksum logic is deliberately shared so the protocols cannot
// drift.
func (c *Client) fetchVia(ctx context.Context, t remotePIR, ids []int) ([][]byte, FetchStats, error) {
	recursive := c.fetchRecursive
	var st FetchStats
	if len(ids) == 0 {
		return nil, st, errors.New("embellish: no documents to fetch")
	}
	key, err := c.pirKey()
	if err != nil {
		return nil, st, err
	}
	params, layout, err := t.Params()
	if err != nil {
		return nil, st, err
	}
	// Validate every id BEFORE the first (expensive) PIR run.
	for _, id := range ids {
		if id < 0 || id >= len(params.Exts) {
			return nil, st, fmt.Errorf("embellish: document %d does not exist", id)
		}
		if params.Exts[id].Deleted {
			return nil, st, fmt.Errorf("embellish: document %d is deleted", id)
		}
	}

	// One task per PIR run, in delivery order: run j of document pos, at
	// column col of the database of height h (a class view, or the block
	// array at 0), width columns wide in the mapping; remaining[i] counts
	// the runs of ids[i] still to arrive.
	type task struct{ pos, run, col, height, width int }
	var tasks []task
	out := make([][]byte, len(ids))
	remaining := make([]int, len(ids))
	widest := 0
	for i, id := range ids {
		ext := params.Exts[id]
		h, col, k := 0, int(ext.First), int(ext.Blocks)
		if !recursive {
			h, col, k = layout.Place(id)
		}
		width := layout.Widths()[h]
		widest = max(widest, width)
		remaining[i] = k
		out[i] = make([]byte, 0, k*layout.ColumnBytes(h))
		for j := 0; j < k; j++ {
			tasks = append(tasks, task{pos: i, run: j, col: col + j, height: h, width: width})
		}
		if k == 0 && crc32.ChecksumIEEE(nil) != ext.Crc {
			return nil, st, fmt.Errorf("embellish: document %d bytes fail their checksum (deleted or corrupted mid-fetch)", id)
		}
	}

	// Generator goroutine: building a query costs residue symbols per
	// column (residuosity draws per GRID row+column for recursive
	// queries), so it runs ahead of the transport, bounded by the
	// pipeline window. In the flat protocol only a document's first
	// column draws: its further columns are consecutive, so each is the
	// query before it rotated one column up. It owns its stats until
	// joined below.
	qch := make(chan *pir.Query, c.pipelineDepth())
	rch := make(chan *pir.RecursiveQuery, c.pipelineDepth())
	done := make(chan struct{})
	var (
		wg            sync.WaitGroup
		genErr        error
		genQueryBytes int
		genVectors    int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(qch)
		defer close(rch)
		var q *pir.Query
		for ti, tk := range tasks {
			if recursive {
				rq, err := key.NewRecursiveQuery(c.inner.CryptoRand, params.NumBlocks, tk.col)
				if err != nil {
					genErr = err
					return
				}
				genQueryBytes += key.RecursiveQueryBytes(params.NumBlocks)
				genVectors++
				select {
				case rch <- rq:
				case <-done:
					return
				}
				continue
			}
			if ti > 0 && tasks[ti-1].pos == tk.pos {
				q = q.Next()
				genQueryBytes++
			} else {
				var err error
				if q, err = key.NewSeededQuery(c.inner.CryptoRand, tk.width, tk.col); err != nil {
					genErr = err
					return
				}
				q.Height = tk.height
				genVectors++
				genQueryBytes += wire.SeededEntryBytes(tk.width, tk.height, 0)
			}
			select {
			case qch <- q:
			case <-done:
				return
			}
		}
	}()

	// Ordered reassembly: answers arrive in task order; a document is
	// finalized — truncated to its true length and checksum-verified —
	// the moment its last column lands. A document deleted between the
	// mapping fetch and its last column decodes as (partially) zeroed
	// columns (the server zeroes tombstoned blocks and columns in place);
	// the checksum turns that silent corruption into an error.
	next := 0
	var deliverErr error // deliver's own errors already carry context
	deliver := func(ans wire.PIRAnswerView) error {
		if next >= len(tasks) {
			return errors.New("embellish: more PIR answers than queries")
		}
		tk := tasks[next]
		colBytes := layout.ColumnBytes(tk.height)
		if !recursive && ans.Count != 8*colBytes {
			return fmt.Errorf("embellish: PIR answer has %d rows, want %d", ans.Count, 8*colBytes)
		}
		// The column's bytes land in the document's own buffer, sized for
		// all its columns up front.
		at := len(out[tk.pos])
		col := out[tk.pos][at : at+colBytes]
		switch {
		case recursive:
			bits, derr := key.DecodeRecursive(ans.Answer, params.BlockSize)
			if derr != nil {
				return fmt.Errorf("embellish: decoding recursive PIR answer: %w", derr)
			}
			copy(col, pir.ColumnBytes(bits))
		default:
			if derr := key.DecodeImage(ans.Gammas, ans.Width, col); derr != nil {
				return fmt.Errorf("embellish: decoding PIR answer: %w", derr)
			}
		}
		st.Runs++
		st.AnswerBytes += key.AnswerBytes(ans.Count)
		next++
		out[tk.pos] = out[tk.pos][:at+colBytes]
		remaining[tk.pos]--
		if remaining[tk.pos] == 0 {
			ext := params.Exts[ids[tk.pos]]
			doc := out[tk.pos][:ext.Length]
			if crc32.ChecksumIEEE(doc) != ext.Crc {
				deliverErr = fmt.Errorf("embellish: document %d bytes fail their checksum (deleted or corrupted mid-fetch)", ids[tk.pos])
				return deliverErr
			}
			out[tk.pos] = doc
		}
		return nil
	}
	if recursive {
		err = t.RunRecursive(ctx, rch, func(a *pir.Answer) error {
			return deliver(wire.PIRAnswerView{Count: len(a.Gammas), Answer: a})
		})
	} else {
		err = t.Run(ctx, qch, widest, deliver)
	}
	close(done)
	wg.Wait()
	st.QueryBytes, st.Vectors = genQueryBytes, genVectors
	if err != nil {
		// Delivery errors already name their document; transport and
		// serving errors get the first undelivered position attached,
		// so a failing fetch names which document and column it died on.
		if err != deliverErr && next < len(tasks) {
			tk := tasks[next]
			return nil, st, fmt.Errorf("embellish: document %d column %d: %w", ids[tk.pos], tk.run, err)
		}
		return nil, st, err
	}
	if genErr != nil {
		return nil, st, fmt.Errorf("embellish: building PIR query: %w", genErr)
	}
	if next != len(tasks) {
		return nil, st, fmt.Errorf("embellish: fetch ended after %d of %d runs", next, len(tasks))
	}
	return out, st, nil
}
