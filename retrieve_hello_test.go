package embellish

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
	"embellish/internal/wire"
)

// The fetch hello: a client opens each fetch with a params request that
// names the block mapping it holds on the connection, downloads the table
// only when it changed, and receives every answer at the modulus's width.
// These tests count the bytes of both directions exactly, fetch across a
// change of the mapping, fail a fetch whose hello is not answered by a
// reply to it, and hold a peer that never sends it to today's frames.

// tapConn is a net.Conn that keeps everything written to and read from
// it.
type tapConn struct {
	net.Conn
	wrote, read []byte
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote, p...)
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read = append(c.read, p[:n]...)
	return n, err
}

// reset forgets what was tapped so far.
func (c *tapConn) reset() { c.wrote, c.read = nil, nil }

// tappedFrame is one frame a tapConn moved.
type tappedFrame struct {
	typ  byte
	body []byte
}

// tappedFrames splits raw into frames.
func tappedFrames(t *testing.T, raw []byte) []tappedFrame {
	t.Helper()
	var out []tappedFrame
	for r := bytes.NewReader(raw); r.Len() > 0; {
		typ, body, err := wire.ReadMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tappedFrame{typ, body})
	}
	return out
}

// threeBlockWorld is a store world at 1 KiB blocks with two documents of
// three blocks each appended, and a client whose fetch key is 64 bits:
// each document is one column of class view 3, whose answer is 24,576
// gammas of 8 bytes — the benchmark's shape.
func threeBlockWorld(t *testing.T) (e *Engine, c *Client, texts map[int]string, ids []int) {
	t.Helper()
	e, c, texts = storeWorld(t, 20, 1024)
	lemmas := miniLemmas()
	var docs []Document
	for i := 0; i < 2; i++ {
		id := e.NextDocID() + i
		text := storeDocText(id, lemmas)
		for len(text) <= 2048+100*i {
			text += " " + lemmas[2+(len(text)+i)%20]
		}
		texts[id] = text
		docs = append(docs, Document{ID: id, Text: text})
		ids = append(ids, id)
	}
	if err := e.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRetrievalKeyBits(64); err != nil {
		t.Fatal(err)
	}
	return e, c, texts, ids
}

// fetchOver fetches ids over conn and checks the bytes against texts.
func fetchOver(t *testing.T, c *Client, conn net.Conn, ids []int, texts map[int]string) FetchStats {
	t.Helper()
	got, st, err := c.FetchDocumentsRemote(conn, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if string(got[i]) != texts[id] {
			t.Fatalf("doc %d: fetched %q, want %q", id, got[i], texts[id])
		}
	}
	return st
}

// packedColumnAnswer is the frame of one packed answer to a column of
// class view 3 at 1 KiB blocks under a 64-bit modulus: length, type,
// index, the packed form's 0, the width 8, the count 24,576 (three vbyte
// bytes) and 24,576 gammas of 8 bytes.
const packedColumnAnswer = 4 + 1 + 1 + 1 + 1 + 3 + 8*3*1024*8

// TestWarmFetchDownloadsUnchangedReplyAndPackedAnswers: the second fetch
// of two three-block documents on a connection downloads exactly one
// 23-byte unchanged reply and two 196,619-byte packed answer frames, one
// per document — and uploads a hello of its 16-byte digest.
func TestWarmFetchDownloadsUnchangedReplyAndPackedAnswers(t *testing.T) {
	e, c, texts, ids := threeBlockWorld(t)
	raw, err := net.Dial("tcp", startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := &tapConn{Conn: raw}
	fetchOver(t, c, conn, ids, texts) // cold: the hello names no mapping
	conn.reset()
	if st := fetchOver(t, c, conn, ids, texts); st.Runs != 2 {
		t.Fatalf("%d PIR runs for two three-block documents", st.Runs)
	}
	const unchanged, answer = 23, packedColumnAnswer
	if got, want := len(conn.read), unchanged+2*answer; got != want {
		t.Fatalf("the warm fetch downloaded %d bytes, want %d: one unchanged reply and two packed answers", got, want)
	}
	down := tappedFrames(t, conn.read)
	if down[0].typ != wire.TypePIRParams || 4+1+len(down[0].body) != unchanged {
		t.Fatalf("the first frame down is type %d of %d bytes, want the %d-byte unchanged reply", down[0].typ, 5+len(down[0].body), unchanged)
	}
	reply, err := wire.DecodePIRParamsReply(down[0].body)
	if err != nil || reply.Changed {
		t.Fatalf("the reply to the warm hello: %+v, %v", reply, err)
	}
	for i, f := range down[1:] {
		if f.typ != wire.TypePIRBatchResponse || 4+1+len(f.body) != answer {
			t.Fatalf("answer %d is type %d of %d bytes, want %d", i, f.typ, 5+len(f.body), answer)
		}
	}
	up := tappedFrames(t, conn.wrote)
	if up[0].typ != wire.TypePIRParams || !bytes.Equal(up[0].body, reply.Digest[:]) {
		t.Fatalf("the warm hello carried %x, want the digest %x", up[0].body, reply.Digest)
	}
}

// TestColdFetchCostsEighteenBytesOnTheMapping: a fetch that does not
// reuse the connection of the one before it — one fetch per fresh
// connection, as eb-search runs — opens with the one-byte hello of a
// client that holds no mapping, and its reply downloads exactly 18 bytes
// more than the table alone the empty request gets; every answer frame
// is packed, 196,619 bytes.
func TestColdFetchCostsEighteenBytesOnTheMapping(t *testing.T) {
	e, c, texts, ids := threeBlockWorld(t)
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	plain := dial()
	if err := wire.WritePIRParamsRequest(plain); err != nil {
		t.Fatal(err)
	}
	table, err := readReply(plain, wire.TypePIRParams, "the table")
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		conn := &tapConn{Conn: dial()}
		fetchOver(t, c, conn, ids, texts)
		up, down := tappedFrames(t, conn.wrote), tappedFrames(t, conn.read)
		if !bytes.Equal(up[0].body, []byte{0x80}) {
			t.Fatalf("run %d: params request %x, want the cold hello 80", run, up[0].body)
		}
		if len(down[0].body) != len(table)+18 {
			t.Fatalf("run %d: the cold reply has %d bytes, the table alone %d; want 18 more", run, len(down[0].body), len(table))
		}
		if len(down) != 3 {
			t.Fatalf("run %d: %d frames down, want the mapping and two answers", run, len(down))
		}
		for i := 1; i < 3; i++ {
			if got := 5 + len(down[i].body); got != packedColumnAnswer {
				t.Fatalf("run %d: answer %d is %d bytes, want %d packed", run, i, got, packedColumnAnswer)
			}
		}
		if want := 5 + len(table) + 18 + 2*packedColumnAnswer; len(conn.read) != want {
			t.Fatalf("run %d: downloaded %d bytes, want %d", run, len(conn.read), want)
		}
	}
}

// TestSameConnNeverPanics: a connection value whose dynamic type cannot be
// compared is never the connection a client fetched over last, and
// comparing it does not panic.
func TestSameConnNeverPanics(t *testing.T) {
	type rw struct {
		io.Reader
		io.Writer
	}
	var buf bytes.Buffer
	funcs := rw{Reader: readerFunc(buf.Read), Writer: &buf}
	if sameConn(funcs, funcs) {
		t.Fatal("a value holding a func reported as the last connection")
	}
	ptr := &rw{Reader: &buf, Writer: &buf}
	if !sameConn(ptr, ptr) || sameConn(ptr, &rw{Reader: &buf, Writer: &buf}) || sameConn(nil, ptr) {
		t.Fatal("pointer identity misjudged")
	}
}

// readerFunc is an io.Reader of a func type: == cannot compare it.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestFetchAfterAddReceivesTheFullTable: a document added between two
// fetches on one connection changes the mapping, so the next hello is
// answered with the whole new table — and the fetched documents, the new
// one among them, are the stored bytes.
func TestFetchAfterAddReceivesTheFullTable(t *testing.T) {
	e, c, texts, ids := threeBlockWorld(t)
	raw, err := net.Dial("tcp", startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := &tapConn{Conn: raw}
	fetchOver(t, c, conn, ids, texts)
	added := e.NextDocID()
	texts[added] = storeDocText(added, miniLemmas())
	if err := e.AddDocuments([]Document{{ID: added, Text: texts[added]}}); err != nil {
		t.Fatal(err)
	}
	conn.reset()
	fetchOver(t, c, conn, []int{ids[1], added}, texts)
	reply, err := wire.DecodePIRParamsReply(tappedFrames(t, conn.read)[0].body)
	if err != nil || !reply.Changed {
		t.Fatalf("the reply to the hello after an add: %+v, %v", reply, err)
	}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Params.NumBlocks != sn.NumBlocks() || len(reply.Params.Exts) != added+1 {
		t.Fatalf("the changed reply maps %d blocks and %d documents, the store %d and %d", reply.Params.NumBlocks, len(reply.Params.Exts), sn.NumBlocks(), added+1)
	}
	for _, id := range append(ids, added) {
		stored, err := e.Document(id)
		if err != nil || string(stored) != texts[id] {
			t.Fatalf("doc %d: stored %q (%v)", id, stored, err)
		}
	}
}

// scriptedServer answers each frame it reads on a connection with what
// answer writes, and counts the frames it read of each type.
type scriptedServer struct {
	mu   sync.Mutex
	read [256]int
}

func (s *scriptedServer) serve(conn net.Conn, answer func(w io.Writer, typ byte, body []byte) error) {
	defer conn.Close()
	for {
		typ, body, err := wire.ReadMessage(conn)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.read[typ]++
		s.mu.Unlock()
		if answer(conn, typ, body) != nil {
			return
		}
	}
}

// frames returns how many frames of type typ the server read.
func (s *scriptedServer) frames(typ byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.read[typ]
}

// TestHelloAnsweredWithoutAReplyFailsTheFetch: a hello answered by the
// table alone, or refused as a server predating the hello refused it,
// fails the fetch after that one exchange — the client asks no second
// time and sends no query.
func TestHelloAnsweredWithoutAReplyFailsTheFetch(t *testing.T) {
	e, c, _, byBlocks := rotationWorld(t)
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		answer func(io.Writer) error
		want   string
	}{
		{"the table alone", func(w io.Writer) error { return wire.WritePIRParams(w, sn.Params()) }, "not a reply to the hello"},
		{"the pre-hello refusal", func(w io.Writer) error { return wire.WriteError(w, "params request carries no body") }, "server error: params request carries no body"},
	} {
		srvConn, cliConn := net.Pipe()
		var srv scriptedServer
		go srv.serve(srvConn, func(w io.Writer, typ byte, _ []byte) error {
			if typ != wire.TypePIRParams {
				return wire.WriteError(w, fmt.Sprintf("unexpected message type %d", typ))
			}
			return tc.answer(w)
		})
		_, _, err := c.FetchDocumentsRemote(cliConn, []int{byBlocks[3]})
		cliConn.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: the fetch returned %v, want %q", tc.name, err, tc.want)
		}
		if p, q := srv.frames(wire.TypePIRParams), srv.frames(wire.TypePIRBatchQuery); p != 1 || q != 0 {
			t.Fatalf("%s: the client sent %d params requests and %d batch frames, want the one hello", tc.name, p, q)
		}
	}
}

// TestLegacyPeerGetsTodaysFrames: a peer that never sends the hello gets
// the table alone for its empty request, one unknown-type refusal for
// each retired frame — a type-10 query and a type-11 answer — on a
// connection that survives them, and every type-13 answer packed,
// byte-identical to the packed frames of the oracle's answers.
func TestLegacyPeerGetsTodaysFrames(t *testing.T) {
	e, c, _, byBlocks := rotationWorld(t)
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true})
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	readFrame := func() []byte {
		t.Helper()
		var head [4]byte
		if _, err := io.ReadFull(conn, head[:]); err != nil {
			t.Fatal(err)
		}
		frame := append(head[:], make([]byte, binary.LittleEndian.Uint32(head[:]))...)
		if _, err := io.ReadFull(conn, frame[4:]); err != nil {
			t.Fatal(err)
		}
		return frame
	}
	if err := wire.WritePIRParamsRequest(conn); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := wire.WritePIRParams(&want, sn.Params()); err != nil {
		t.Fatal(err)
	}
	if got := readFrame(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the empty request got %x, want the table alone %x", got, want.Bytes())
	}
	q, err := key.NewSeededQuery(detrand.New("legacy-peer"), sn.NumBlocks(), int(sn.Params().Exts[byBlocks[2]].First))
	if err != nil {
		t.Fatal(err)
	}
	for typ, body := range map[byte][]byte{10: retiredBody(q.N, q.Values...), 11: retiredBody(nil, q.Values...)} {
		if err := wire.WriteRaw(conn, typ, body); err != nil {
			t.Fatal(err)
		}
		typ2, body, err := wire.ReadMessage(conn)
		if err != nil || typ2 != wire.TypeError || string(body) != fmt.Sprintf("unexpected message type %d", typ) {
			t.Fatalf("a type-%d frame answered type %d %q, %v", typ, typ2, body, err)
		}
	}
	qs := []*pir.Query{q, q.Next()}
	if err := wire.WritePIRBatchQuery(conn, qs); err != nil {
		t.Fatal(err)
	}
	for i, bq := range qs {
		oracle, _, err := sn.AnswerCtx(context.Background(), bq)
		if err != nil {
			t.Fatal(err)
		}
		want.Reset()
		if err := wire.WritePIRBatchAnswerPacked(&want, i, oracle, q.N); err != nil {
			t.Fatal(err)
		}
		if got := readFrame(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("batch answer %d differs from the packed frame", i)
		}
	}
	// The connection the retired frames were refused on serves a fetch.
	id := byBlocks[3]
	got, _, err := c.FetchDocumentsRemote(conn, []int{id})
	if err != nil {
		t.Fatal(err)
	}
	if stored, err := e.Document(id); err != nil || !bytes.Equal(got[0], stored) {
		t.Fatalf("doc %d: fetched %q, stored %q (%v)", id, got[0], stored, err)
	}
}

// retiredBody lays out the body of a retired type-10 or type-11 frame:
// the modulus n, when set, then a count and the elements, each a vbyte
// length and its big-endian magnitude.
func retiredBody(n *big.Int, elems ...*big.Int) []byte {
	put := func(body []byte, v *big.Int) []byte {
		mag := v.Bytes()
		return append(vbyte.Append(body, uint64(len(mag))), mag...)
	}
	var body []byte
	if n != nil {
		body = put(body, n)
	}
	body = vbyte.Append(body, uint64(len(elems)))
	for _, v := range elems {
		body = put(body, v)
	}
	return body
}

// TestHelloPacksEveryAnswer: once a connection sent the hello, its
// type-13 answers — flat and recursive — arrive packed at the modulus's
// width and decode to the oracle's gammas.
func TestHelloPacksEveryAnswer(t *testing.T) {
	e, c, _, byBlocks := rotationWorld(t)
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true})
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	width := (key.N.BitLen() + 7) / 8
	if err := wire.WritePIRHello(conn, nil); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(conn)
	if err != nil || typ != wire.TypePIRParams {
		t.Fatalf("hello answered with type %d (%s), %v", typ, body, err)
	}
	reply, err := wire.DecodePIRParamsReply(body)
	if err != nil || !reply.Changed || reply.Params.NumBlocks != sn.NumBlocks() {
		t.Fatalf("the cold hello's reply: %+v, %v", reply, err)
	}
	// packedAnswer reads one answer and checks its form and its gammas.
	packedAnswer := func(index int, want *pir.Answer) {
		t.Helper()
		got, body, err := wire.ReadMessage(conn)
		if err != nil || got != wire.TypePIRBatchResponse {
			t.Fatalf("answer of type %d (%s), %v", got, body, err)
		}
		tail := body[vbyte.Len(uint64(index)):]
		head := vbyte.Append(vbyte.Append(vbyte.Append(nil, 0), uint64(width)), uint64(len(want.Gammas)))
		if !bytes.HasPrefix(tail, head) || len(tail) != len(head)+width*len(want.Gammas) {
			t.Fatalf("a %d-byte answer tail, want %x and %d gammas of %d bytes", len(tail), head, len(want.Gammas), width)
		}
		at, ans, err := wire.DecodePIRBatchAnswer(body)
		if err != nil || at != index {
			t.Fatalf("answer index %d, want %d: %v", at, index, err)
		}
		for i, g := range want.Gammas {
			if ans.Gammas[i].Cmp(g) != 0 {
				t.Fatalf("gamma %d: %v, the oracle's %v", i, ans.Gammas[i], g)
			}
		}
	}
	q, err := key.NewQuery(detrand.New("packed"), sn.NumBlocks(), int(sn.Params().Exts[byBlocks[3]].First))
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(q *pir.Query) *pir.Answer {
		t.Helper()
		a, _, err := sn.AnswerCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if err := wire.WritePIRBatchQuery(conn, []*pir.Query{q, q.Next()}); err != nil {
		t.Fatal(err)
	}
	packedAnswer(0, oracle(q))
	packedAnswer(1, oracle(q.Next()))
	rq, err := key.NewRecursiveQuery(detrand.New("packed-rec"), sn.NumBlocks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	recAnswers, _, err := answerPIRRecursiveCtx(context.Background(), sn, []*pir.RecursiveQuery{rq})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WritePIRRecursiveQuery(conn, []*pir.RecursiveQuery{rq}); err != nil {
		t.Fatal(err)
	}
	packedAnswer(0, recAnswers[0])
}
