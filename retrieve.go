package embellish

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"

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

// SetFetchPipeline once set a window of column queries kept in flight
// during a fetch. A fetch now sends its queries in as few frames as the wire
// allows, each exchanged in turn, so there is no window to set.
//
// Deprecated: ignored; it returns nil.
func (c *Client) SetFetchPipeline(depth int) error { return nil }

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
// then the fetch's query frames, each answered before the next is sent.
type remotePIR struct {
	conn io.ReadWriter
	at   *fetchConn // what the client remembers of conn
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

// maxPIRBatchFrameBytes budgets one fetch frame well under the wire
// frame cap, and the answers it asks for alike: wide moduli over big
// stores, and tall columns, shrink a frame rather than overflow it or
// commit the server to hundreds of MB of answers in one pass.
const maxPIRBatchFrameBytes = 16 << 20

// queryCost is what one query adds to its frame: its entry's bytes, the
// group elements a seeded frame expands it to and its answer's bytes. A
// query that rotates the one before it in the same frame costs one byte
// and expands to nothing.
type queryCost struct {
	entry, values, answer int
	rotates               bool // it is the query before it one column on
}

// frameSizes cuts a fetch's queries, in order, into frames and returns
// how many each takes: as many as fit the wire's batch cap most, the
// maxValues group elements a seeded frame may expand to, and
// maxPIRBatchFrameBytes of entry bytes and of answer bytes. A frame takes
// at least one query; one too large to send fails when it is written.
func frameSizes(costs []queryCost, most, maxValues int) []int {
	var sizes []int
	for at := 0; at < len(costs); {
		n, bytes, values, answers := 0, 0, 0, 0
		for ; at+n < len(costs) && n < most; n++ {
			c := costs[at+n]
			if c.rotates && n > 0 {
				c.entry, c.values = 1, 0
			}
			if n > 0 && (bytes+c.entry > maxPIRBatchFrameBytes || values+c.values > maxValues || answers+c.answer > maxPIRBatchFrameBytes) {
				break
			}
			bytes, values, answers = bytes+c.entry, values+c.values, answers+c.answer
		}
		sizes = append(sizes, n)
		at += n
	}
	return sizes
}

// exchange sends a fetch's queries in frames of the given sizes, one
// frame at a time on conn: it checks ctx, builds the frame's queries
// (query(i) is the fetch's i-th), writes them, then reads exactly that
// frame's answers, in order, each viewed where it lies
// (wire.ViewPIRBatchAnswer), checked by index and delivered. A refused frame (one TypeError) ends the fetch. After a
// delivery error, such as a checksum failure, the rest of the frame's
// answers are read and discarded, so the connection stays at a frame
// boundary; a transport or protocol failure leaves the stream undefined,
// and the caller must close the connection. Every answer frame is read
// into one buffer: deliver decodes a view before it returns, so the next
// read may overwrite it.
func exchange[Q any](ctx context.Context, conn io.ReadWriter, sizes []int, query func(int) (Q, error), write func(io.Writer, []Q) error, deliver func(wire.PIRAnswerView) error) error {
	var (
		batch []Q
		frame []byte
		next  int
	)
	for _, size := range sizes {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch = batch[:0]
		for ; len(batch) < size; next++ {
			q, err := query(next)
			if err != nil {
				return err
			}
			batch = append(batch, q)
		}
		if err := write(conn, batch); err != nil {
			return fmt.Errorf("embellish: sending PIR batch: %w", err)
		}
		for i := range batch {
			typ, body, err := wire.ReadMessageBuf(conn, &frame)
			if err != nil {
				return fmt.Errorf("embellish: reading PIR batch answer: %w", err)
			}
			switch typ {
			case wire.TypeError:
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
				for range len(batch) - 1 - i {
					if typ, _, rerr := wire.ReadMessageBuf(conn, &frame); rerr != nil || typ == wire.TypeError {
						break
					}
				}
				return err
			}
		}
	}
	return nil
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
// states.
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
	docs, st, err := c.fetchVia(ctx, remotePIR{conn: conn, at: &fetchConn{conn: conn}}, ids)
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
// The column queries travel seeded in as few batch frames as the wire
// allows — a frame holds up to wire.MaxPIRBatch of them, within 16 MiB
// of frame bytes and 16 MiB of answers — and each frame's answers are
// read before the next frame is written, so the server scans the store
// once a frame. A client that opted into the recursive protocol
// (SetFetchRecursive) fetches through it instead, in frames of up to
// wire.MaxPIRRecursiveBatch queries, from a single-node server: a cluster
// router refuses the recursive protocol, and the fetch fails.
//
// After a successful fetch the connection is immediately reusable.
// After a document-level failure (a checksum error from a mid-fetch
// delete, an unfetchable id) the rest of the frame's answers are read
// and the connection remains usable. After a transport or protocol
// failure the stream state is undefined: close the connection and
// dial a fresh one.
func (c *Client) FetchDocumentsRemote(conn io.ReadWriter, ids []int) ([][]byte, FetchStats, error) {
	return c.FetchDocumentsRemoteContext(context.Background(), conn, ids)
}

// FetchDocumentsRemoteContext is FetchDocumentsRemote under a context:
// cancellation is honored at frame boundaries — the client checks ctx
// before it writes each frame, when no answer is owed, so the connection
// stays reusable after an abandoned fetch.
// (The server applies its own per-request deadline to each scan; see
// ServeConfig.RequestTimeout.)
func (c *Client) FetchDocumentsRemoteContext(ctx context.Context, conn io.ReadWriter, ids []int) ([][]byte, FetchStats, error) {
	if !sameConn(c.fetched.conn, conn) {
		c.fetched = fetchConn{conn: conn}
	}
	return c.fetchVia(ctx, remotePIR{conn: conn, at: &c.fetched}, ids)
}

// fetchVia runs the client side of the fetch protocol: obtain the
// block mapping, then one PIR execution per column of each document —
// over its class view, or per block of the block array in the recursive
// protocol — built, sent and answered a frame at a time (exchange) and
// reassembled strictly in order, each document checksum-verified as its
// last column arrives. Any unfetchable id (never assigned, or
// tombstoned) fails the whole call — the error names the id, and no
// partial results are returned. Under SetFetchRecursive the executions
// are two-level recursive queries whose answers decode to the same block
// bytes — the frame loop, reassembly, truncation and checksum logic are
// deliberately shared so the protocols cannot drift.
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
	// the runs of ids[i] still to arrive. costs prices each run in its
	// frame: a flat run past a document's first rotates the run before it.
	type task struct{ pos, run, col, height, width int }
	var (
		tasks []task
		costs []queryCost
	)
	out := make([][]byte, len(ids))
	remaining := make([]int, len(ids))
	modBytes := (key.N.BitLen() + 7) / 8
	var recursiveCost queryCost
	if recursive {
		// Every grid element is a magnitude behind a length of at most two bytes.
		rows, cols := pir.RecursiveGrid(params.NumBlocks)
		recursiveCost = queryCost{entry: (rows + cols) * (modBytes + 2), answer: key.RecursiveAnswerBytes(params.BlockSize)}
	}
	for i, id := range ids {
		ext := params.Exts[id]
		h, col, k := 0, int(ext.First), int(ext.Blocks)
		if !recursive {
			h, col, k = layout.Place(id)
		}
		width := layout.Widths()[h]
		remaining[i] = k
		out[i] = make([]byte, 0, k*layout.ColumnBytes(h))
		for j := 0; j < k; j++ {
			tasks = append(tasks, task{pos: i, run: j, col: col + j, height: h, width: width})
			cost := recursiveCost
			if !recursive {
				cost = queryCost{entry: wire.SeededEntryBytes(width, h, j), values: width, answer: key.AnswerBytes(8 * layout.ColumnBytes(h)), rotates: j > 0}
			}
			costs = append(costs, cost)
		}
		if k == 0 && crc32.ChecksumIEEE(nil) != ext.Crc {
			return nil, st, fmt.Errorf("embellish: document %d bytes fail their checksum (deleted or corrupted mid-fetch)", id)
		}
	}

	// Queries are built as their frame is: a query costs residue symbols
	// per column (residuosity draws per GRID row+column for recursive
	// queries), far less than the scan it feeds. In the flat protocol only
	// a document's first column draws: its further columns are
	// consecutive, so each is the query before it rotated one column up.
	// An error that already names its document is not named again.
	var named error
	var q *pir.Query
	flatQuery := func(i int) (*pir.Query, error) {
		tk := tasks[i]
		if tk.run > 0 {
			q = q.Next()
			st.QueryBytes++
			return q, nil
		}
		var err error
		if q, err = key.NewSeededQuery(c.inner.CryptoRand, tk.width, tk.col); err != nil {
			named = fmt.Errorf("embellish: building PIR query for document %d: %w", ids[tk.pos], err)
			return nil, named
		}
		q.Height = tk.height
		st.Vectors++
		st.QueryBytes += wire.SeededEntryBytes(tk.width, tk.height, 0)
		return q, nil
	}
	recursiveQuery := func(i int) (*pir.RecursiveQuery, error) {
		rq, err := key.NewRecursiveQuery(c.inner.CryptoRand, params.NumBlocks, tasks[i].col)
		if err != nil {
			named = fmt.Errorf("embellish: building PIR query for document %d: %w", ids[tasks[i].pos], err)
			return nil, named
		}
		st.Vectors++
		st.QueryBytes += key.RecursiveQueryBytes(params.NumBlocks)
		return rq, nil
	}

	// Ordered reassembly: answers arrive in task order; a document is
	// finalized — truncated to its true length and checksum-verified —
	// the moment its last column lands. A document deleted between the
	// mapping fetch and its last column decodes as (partially) zeroed
	// columns (the server zeroes tombstoned blocks and columns in place);
	// the checksum turns that silent corruption into an error.
	next := 0
	deliver := func(ans wire.PIRAnswerView) error {
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
			bits, derr := key.DecodeRecursive(&pir.Answer{Width: ans.Width, Image: ans.Image}, params.BlockSize)
			if derr != nil {
				return fmt.Errorf("embellish: decoding recursive PIR answer: %w", derr)
			}
			copy(col, pir.ColumnBytes(bits))
		default:
			if derr := key.DecodeImage(ans.Image, ans.Width, col); derr != nil {
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
				named = fmt.Errorf("embellish: document %d bytes fail their checksum (deleted or corrupted mid-fetch)", ids[tk.pos])
				return named
			}
			out[tk.pos] = doc
		}
		return nil
	}
	if recursive {
		err = exchange(ctx, t.conn, frameSizes(costs, wire.MaxPIRRecursiveBatch, 0), recursiveQuery, wire.WritePIRRecursiveQuery, deliver)
	} else {
		err = exchange(ctx, t.conn, frameSizes(costs, wire.MaxPIRBatch, wire.MaxSeededValues(modBytes)), flatQuery, wire.WritePIRBatchQuery, deliver)
	}
	if err != nil {
		// Transport and serving errors get the first undelivered position
		// attached, so a failing fetch names which document and column it
		// died on.
		if err != named && next < len(tasks) {
			tk := tasks[next]
			return nil, st, fmt.Errorf("embellish: document %d column %d: %w", ids[tk.pos], tk.run, err)
		}
		return nil, st, err
	}
	return out, st, nil
}
