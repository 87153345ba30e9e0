package embellish

import (
	"context"
	"fmt"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
	"embellish/internal/wire"
)

// One selection vector per document: the flat fetch draws a vector for a
// document's first block and asks for every further block as that vector
// rotated one column up — one byte on the wire. These tests count the
// bytes, walk the fallback against a server that predates the rotation
// entry, and fetch through a mapping older than the store.

// rotationWorld is a store world at 16-byte blocks (its documents span
// two to four) plus one document of a single block and one of five, and
// the ids of one document per block count.
func rotationWorld(t *testing.T) (e *Engine, c *Client, texts map[int]string, byBlocks map[int]int) {
	t.Helper()
	e, c, texts = storeWorld(t, 24, 16)
	lemmas := miniLemmas()
	tiny, long := e.NextDocID(), e.NextDocID()+1
	texts[tiny] = fmt.Sprintf("%s #t%d", lemmas[2], tiny)
	texts[long] = strings.Repeat(lemmas[3]+" ", 6) + fmt.Sprintf("%s five blocks of sixteen #doc-%d", lemmas[4], long)
	if err := e.AddDocuments([]Document{{ID: tiny, Text: texts[tiny]}, {ID: long, Text: texts[long]}}); err != nil {
		t.Fatal(err)
	}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	byBlocks = make(map[int]int)
	for id, ext := range sn.Params().Exts {
		if _, seen := byBlocks[int(ext.Blocks)]; !seen && !ext.Deleted {
			byBlocks[int(ext.Blocks)] = id
		}
	}
	for _, n := range []int{1, 2, 3, 5} {
		if _, ok := byBlocks[n]; !ok {
			t.Fatalf("the world has no document of %d blocks: %v", n, byBlocks)
		}
	}
	return e, c, texts, byBlocks
}

// TestFetchUploadsOneVectorPerDocument: through a byte- and frame-counting
// connection, a fetch uploads one selection vector per DOCUMENT and a
// byte per further block — at window 16, where the blocks share a frame.
// At the default window a frame boundary can fall inside a document: the
// rotation it orphans is written out, which costs at most one more vector
// per boundary, and the documents verify all the same. FetchStats counts
// the protocol's bytes — a vector per document, a byte per rotation —
// under either schedule.
func TestFetchUploadsOneVectorPerDocument(t *testing.T) {
	e, c, texts, byBlocks := rotationWorld(t)
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true, PIRWorkers: -1})
	key, err := c.pirKey()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	params := sn.Params()
	// On the wire a group element is its bytes behind a length byte; a
	// frame spends a few more on its length, type, modulus and counts,
	// and the fetch opens with a five-byte params request.
	vector := params.NumBlocks * ((key.N.BitLen()+7)/8 + 1)
	const perFrame = 64
	for _, tc := range []struct {
		name string
		ids  []int
	}{
		{"one block", []int{byBlocks[1]}},
		{"two blocks", []int{byBlocks[2]}},
		{"three blocks", []int{byBlocks[3]}},
		{"five blocks", []int{byBlocks[5]}},
		{"a pair", []int{byBlocks[3], byBlocks[5]}},
	} {
		blocks := 0
		for _, id := range tc.ids {
			blocks += int(params.Exts[id].Blocks)
		}
		for _, window := range []int{16, DefaultFetchPipeline} {
			if err := c.SetFetchPipeline(window); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			cc := &frameCounter{Conn: conn}
			got, st, err := c.FetchDocumentsRemote(cc, tc.ids)
			conn.Close()
			if err != nil {
				t.Fatalf("%s, window %d: %v", tc.name, window, err)
			}
			for i, id := range tc.ids {
				if string(got[i]) != texts[id] {
					t.Fatalf("%s, window %d: doc %d fetched %q, want %q", tc.name, window, id, got[i], texts[id])
				}
			}
			if st.Runs != blocks || st.Vectors != len(tc.ids) {
				t.Fatalf("%s, window %d: %d runs and %d vectors for %d blocks of %d documents", tc.name, window, st.Runs, st.Vectors, blocks, len(tc.ids))
			}
			if want := len(tc.ids)*key.QueryBytes(params.NumBlocks) + blocks - len(tc.ids); st.QueryBytes != want {
				t.Fatalf("%s, window %d: FetchStats.QueryBytes %d, want %d", tc.name, window, st.QueryBytes, want)
			}
			frames := (blocks + window/2 - 1) / (window / 2)
			// Every frame after the first may open on an orphaned rotation.
			vectors := len(tc.ids) + frames - 1
			if got := cc.frames[wire.TypePIRBatchQuery]; got != frames || (window == 16 && frames != 1) {
				t.Fatalf("%s, window %d: %d blocks went out in %d batch frames, want %d", tc.name, window, blocks, got, frames)
			}
			if limit := vectors*vector + blocks + frames*perFrame; cc.up > limit {
				t.Fatalf("%s, window %d: uploaded %d bytes, want at most %d (%d vectors of %d, %d blocks)", tc.name, window, cc.up, limit, vectors, vector, blocks)
			}
			if cc.up < len(tc.ids)*(vector-params.NumBlocks) {
				t.Fatalf("%s, window %d: uploaded %d bytes, under a vector per document", tc.name, window, cc.up)
			}
		}
	}
}

// TestFetchSequentialProtocolSendsFullVectors: the depth-1 protocol has
// no rotation entry — every block is a fresh vector in a TypePIRQuery
// frame, and the stats say so.
func TestFetchSequentialProtocolSendsFullVectors(t *testing.T) {
	e, c, texts, byBlocks := rotationWorld(t)
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	if err := c.SetFetchPipeline(1); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := &frameCounter{Conn: conn}
	id := byBlocks[3]
	got, st, err := c.FetchDocumentsRemote(fc, []int{id})
	if err != nil || string(got[0]) != texts[id] {
		t.Fatalf("fetched %q, %v", got, err)
	}
	if st.Runs != 3 || st.Vectors != 3 || fc.frames[wire.TypePIRQuery] != 3 || fc.frames[wire.TypePIRBatchQuery] != 0 {
		t.Fatalf("%d runs, %d vectors, %d single-query frames, %d batch frames: want three full vectors", st.Runs, st.Vectors, fc.frames[wire.TypePIRQuery], fc.frames[wire.TypePIRBatchQuery])
	}
}

// TestLocalFetchRotates: the in-process transport executes the rotated
// queries as they are; the bytes are the stored bytes and the stats the
// protocol's.
func TestLocalFetchRotates(t *testing.T) {
	e, c, texts, byBlocks := rotationWorld(t)
	ids := []int{byBlocks[5], byBlocks[1], byBlocks[2]}
	got, st, err := c.FetchDocuments(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		direct, err := e.Document(id)
		if err != nil || string(got[i]) != texts[id] || string(direct) != texts[id] {
			t.Fatalf("doc %d: fetched %q, stored %q (%v), indexed %q", id, got[i], direct, err, texts[id])
		}
	}
	if st.Runs != 8 || st.Vectors != 3 {
		t.Fatalf("%d runs, %d vectors: want 8 blocks of 3 documents", st.Runs, st.Vectors)
	}
}

// parentBatchRefusal applies the parent commit's value-count rule to a
// type-12 body: a zero count is out of range, at any entry, and the
// refusal is this text verbatim.
func parentBatchRefusal(body []byte) (string, bool) {
	skipBig := func() {
		size, used, _ := vbyte.Decode(body)
		body = body[used+int(size):]
	}
	skipBig() // the modulus
	count, used, _ := vbyte.Decode(body)
	body = body[used:]
	for qi := 0; qi < int(count); qi++ {
		nv, used, _ := vbyte.Decode(body)
		body = body[used:]
		if nv == 0 {
			return fmt.Sprintf("wire: PIR batch query %d value count: value out of range", qi), true
		}
		for ; nv > 0; nv-- {
			skipBig()
		}
	}
	return "", false
}

// oldBatchServer speaks the batch protocol as the parent commit did:
// refuse answers a type-12 frame with an error frame (and the connection
// stays up) or lets it through to the one executor.
type oldBatchServer struct {
	mu              sync.Mutex
	refused, served int
}

func (s *oldBatchServer) counts() (refused, served int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refused, s.served
}

func (s *oldBatchServer) serve(conn net.Conn, sn *docstore.Snapshot, refuse func(body []byte) (string, bool)) {
	defer conn.Close()
	for {
		typ, body, err := wire.ReadMessage(conn)
		if err != nil {
			return
		}
		switch typ {
		case wire.TypePIRParams:
			err = wire.WritePIRParams(conn, sn.Params())
		case wire.TypePIRBatchQuery:
			if text, refused := refuse(body); refused {
				s.mu.Lock()
				s.refused++
				s.mu.Unlock()
				err = wire.WriteError(conn, text)
				break
			}
			qs, derr := wire.DecodePIRBatchQuery(body)
			if derr != nil {
				err = wire.WriteError(conn, derr.Error())
				break
			}
			s.mu.Lock()
			s.served++
			s.mu.Unlock()
			answers, _, aerr := answerPIRMultiCtx(context.Background(), sn, qs, 0)
			if aerr != nil {
				err = wire.WriteError(conn, aerr.Error())
				break
			}
			for i, ans := range answers {
				if err = wire.WritePIRBatchAnswer(conn, i, ans); err != nil {
					return
				}
			}
		default:
			err = wire.WriteError(conn, fmt.Sprintf("unexpected message type %d", typ))
		}
		if err != nil {
			return
		}
	}
}

// TestFetchFallsBackToFullVectorsOnPreRotationServer: a server that
// predates rotation entries refuses the first batch frame for the zero
// count in it, with the parent decoder's text, and keeps the connection.
// The client must recognise exactly that on the first answer, retry the
// whole fetch with a vector per block on the same connection — frames
// the old server has always served — and return the stored bytes.
func TestFetchFallsBackToFullVectorsOnPreRotationServer(t *testing.T) {
	e, c, texts, byBlocks := rotationWorld(t)
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	srvConn, cliConn := net.Pipe()
	defer cliConn.Close()
	var srv oldBatchServer
	go srv.serve(srvConn, sn, parentBatchRefusal)

	ids := []int{byBlocks[3], byBlocks[1], byBlocks[5]}
	got, st, err := c.FetchDocumentsRemote(cliConn, ids)
	if err != nil {
		t.Fatalf("fetch against a pre-rotation server: %v", err)
	}
	for i, id := range ids {
		if string(got[i]) != texts[id] {
			t.Fatalf("doc %d: fetched %q, want %q", id, got[i], texts[id])
		}
	}
	if refused, served := srv.counts(); refused != 1 || served == 0 {
		t.Fatalf("the old server refused %d frames and served %d: want one refusal, then full-vector frames", refused, served)
	}
	if st.Runs != 9 || st.Vectors != 9 {
		t.Fatalf("the retry reported %d runs and %d vectors: want a vector for each of 9 blocks", st.Runs, st.Vectors)
	}
	// The connection survived the refusal and the retry.
	if got, _, err := c.FetchDocumentsRemote(cliConn, []int{byBlocks[1]}); err != nil || string(got[0]) != texts[byBlocks[1]] {
		t.Fatalf("fetch after the fallback: %q, %v", got, err)
	}
}

// TestFetchDoesNotRetryOtherRefusals: only the frozen value-count
// refusal naming the frame's first rotation entry means "old server".
// Any other error on the first answer — load shedding, a deadline, the
// same words about another entry — is the server's verdict and is
// reported once, not retried with three times the upload.
func TestFetchDoesNotRetryOtherRefusals(t *testing.T) {
	e, c, _, byBlocks := rotationWorld(t)
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"server overloaded: admission queue full",
		"embellish: server deadline exceeded: batch cancelled in block 0",
		wire.RotationRefusal(0), // entry 0 is never a rotation
		wire.RotationRefusal(2), // the frame's first rotation is entry 1
		wire.RotationRefusal(1) + " (and then some)",
	} {
		srvConn, cliConn := net.Pipe()
		var srv oldBatchServer
		go srv.serve(srvConn, sn, func([]byte) (string, bool) { return text, true })
		_, _, err := c.FetchDocumentsRemote(cliConn, []int{byBlocks[3]})
		cliConn.Close()
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Fatalf("refusal %q came back as %v", text, err)
		}
		if refused, _ := srv.counts(); refused != 1 {
			t.Fatalf("refusal %q: the client sent %d batch frames, want one", text, refused)
		}
	}
}

// TestRotatedFetchAgainstOlderParams: documents appended after the client
// read the block mapping make the store wider than the vectors — prefix
// addressing. A rotation wraps within the vector's own width, the width
// the mapping had, so the rotated queries address the same blocks and
// the documents verify.
func TestRotatedFetchAgainstOlderParams(t *testing.T) {
	e, c, texts, byBlocks := rotationWorld(t)
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true, PIRWorkers: -1})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	lemmas := miniLemmas()
	before := e.NextDocID()
	conn := &onFirstBatch{Conn: raw, do: func() {
		docs := make([]Document, 3)
		for i := range docs {
			docs[i] = Document{ID: before + i, Text: storeDocText(before+i, lemmas)}
		}
		if err := e.AddDocuments(docs); err != nil {
			t.Errorf("mid-fetch append: %v", err)
		}
	}}
	if err := c.SetFetchPipeline(32); err != nil {
		t.Fatal(err)
	}
	// The five-block document is the last of the old mapping: its final
	// rotation puts the non-residue in the vector's last column.
	ids := []int{byBlocks[5], byBlocks[3], byBlocks[2]}
	got, st, err := c.FetchDocumentsRemote(conn, ids)
	if err != nil {
		t.Fatal(err)
	}
	if e.NextDocID() != before+3 {
		t.Fatal("the store was not appended to mid-fetch")
	}
	for i, id := range ids {
		if string(got[i]) != texts[id] {
			t.Fatalf("doc %d: fetched %q, want %q", id, got[i], texts[id])
		}
	}
	if st.Runs != 10 || st.Vectors != 3 {
		t.Fatalf("%d runs, %d vectors: want 10 blocks of 3 documents", st.Runs, st.Vectors)
	}
}

// TestBatchFrameRotationsAnsweredLikeFullVectors: a frame of rotation
// entries and the same frame written in full reach the executor as the
// same queries — the served gammas agree entry for entry, and equal the
// sequential oracle's on the materialised vectors — and cost the server
// the same products.
func TestBatchFrameRotationsAnsweredLikeFullVectors(t *testing.T) {
	e, c, _, byBlocks := rotationWorld(t)
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true, PIRWorkers: -1})
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	params := sn.Params()
	var compact, full []*pir.Query
	for _, n := range []int{3, 5} {
		ext := params.Exts[byBlocks[n]]
		q, err := key.NewQuery(detrand.New(fmt.Sprintf("frame-%d", n)), params.NumBlocks, int(ext.First))
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < n; b++ {
			if b > 0 {
				q = q.Next()
			}
			compact = append(compact, q)
			own := &pir.Query{N: q.N, Values: make([]*big.Int, len(q.Values))}
			for j, v := range q.Values {
				own.Values[j] = new(big.Int).Set(v)
			}
			full = append(full, own)
		}
	}
	ask := func(qs []*pir.Query) ([]*pir.Answer, ServeStats) {
		t.Helper()
		if err := wire.WritePIRBatchQuery(conn, qs); err != nil {
			t.Fatal(err)
		}
		answers := make([]*pir.Answer, len(qs))
		for i := range qs {
			typ, body, err := wire.ReadMessage(conn)
			if err != nil || typ != wire.TypePIRBatchResponse {
				t.Fatalf("answer %d: type %d, %v (%s)", i, typ, err, body)
			}
			idx, ans, err := wire.DecodePIRBatchAnswer(body)
			if err != nil || idx != i {
				t.Fatalf("answer %d: index %d, %v", i, idx, err)
			}
			answers[i] = ans
		}
		st, err := ServerStats(conn)
		if err != nil {
			t.Fatal(err)
		}
		return answers, st
	}
	st0, err := ServerStats(conn)
	if err != nil {
		t.Fatal(err)
	}
	fromFull, st1 := ask(full)
	fromCompact, st2 := ask(compact)
	if a, b := st1.PIRModMuls-st0.PIRModMuls, st2.PIRModMuls-st1.PIRModMuls; a != b || a == 0 {
		t.Fatalf("the full frame cost %d products, the compact frame %d", a, b)
	}
	if a, b := st1.PIRTableMuls-st0.PIRTableMuls, st2.PIRTableMuls-st1.PIRTableMuls; a != b || a == 0 {
		t.Fatalf("the full frame cost %d table products, the compact frame %d", a, b)
	}
	for i := range compact {
		oracle, _, err := sn.AnswerCtx(context.Background(), compact[i])
		if err != nil {
			t.Fatal(err)
		}
		for g, want := range oracle.Gammas {
			if fromCompact[i].Gammas[g].Cmp(want) != 0 || fromFull[i].Gammas[g].Cmp(want) != 0 {
				t.Fatalf("entry %d gamma %d: compact frame, full frame and oracle disagree", i, g)
			}
		}
	}
}
