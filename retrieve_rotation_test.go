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
// connection, a fetch uploads one seeded selection vector per DOCUMENT
// and a byte per further block, and FetchStats.QueryBytes is exactly that
// figure. What else the socket carries is counted to the byte: the
// five-byte params request and each frame's head (length, type, modulus,
// the seeded form's 0, count, V and Z) — and, at the default window,
// where a frame boundary can fall inside a document, the seeded entry of
// each rotation the boundary orphans in place of its byte.
func TestFetchUploadsOneVectorPerDocument(t *testing.T) {
	e, c, texts, byBlocks := rotationWorld(t)
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	key, err := c.pirKey()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	params := sn.Params()
	vector := wire.SeededEntryBytes(params.NumBlocks, 0)
	bigBytes := func(v *big.Int) int { return 1 + (v.BitLen()+7)/8 }
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
			if want := len(tc.ids)*vector + blocks - len(tc.ids); st.QueryBytes != want {
				t.Fatalf("%s, window %d: FetchStats.QueryBytes %d, want %d", tc.name, window, st.QueryBytes, want)
			}
			frames := (blocks + window/2 - 1) / (window / 2)
			if got := cc.frames[wire.TypePIRBatchQuery]; got != frames || (window == 16 && frames != 1) {
				t.Fatalf("%s, window %d: %d blocks went out in %d batch frames, want %d", tc.name, window, blocks, got, frames)
			}
			extra := 5 // the params request
			for _, body := range cc.bodies(wire.TypePIRBatchQuery) {
				qs, err := wire.DecodePIRBatchQuery(body)
				if err != nil || qs[0].Seed == nil {
					t.Fatalf("%s, window %d: a batch frame that is not seeded (%v)", tc.name, window, err)
				}
				extra += 4 + 1 + bigBytes(key.N) + 1 + 1 + bigBytes(qs[0].Seed.V) + bigBytes(qs[0].Seed.Z)
				if qs[0].Rot > 0 { // an orphan: an entry where the protocol counts a byte
					extra += wire.SeededEntryBytes(params.NumBlocks, qs[0].Rot) - 1
				}
			}
			if cc.up != st.QueryBytes+extra {
				t.Fatalf("%s, window %d: uploaded %d bytes, the protocol's %d and %d of frame heads and orphans", tc.name, window, cc.up, st.QueryBytes, extra)
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
// protocol's, its vectors written out — nothing local crosses a wire, so
// nothing is drawn seeded.
func TestLocalFetchRotates(t *testing.T) {
	e, c, texts, byBlocks := rotationWorld(t)
	key, err := c.pirKey()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
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
	if want := 3*key.QueryBytes(sn.NumBlocks()) + 5; st.QueryBytes != want {
		t.Fatalf("local fetch counted %d query bytes, want %d: three vectors written out, five rotations", st.QueryBytes, want)
	}
}

// preSeedRefusal applies the query-count rule of a decoder predating the
// seeded form to a type-12 body: a count of 0 — the seeded form's mark —
// is out of range, and the refusal is this text verbatim.
func preSeedRefusal(body []byte) (string, bool) {
	size, used, _ := vbyte.Decode(body) // the modulus
	if count, _, _ := vbyte.Decode(body[used+int(size):]); count == 0 {
		return wire.SeedRefusal, true
	}
	return "", false
}

// preRotationRefusal adds the value-count rule of a decoder predating
// rotation entries: a zero count is out of range, at any entry.
func preRotationRefusal(body []byte) (string, bool) {
	if text, refused := preSeedRefusal(body); refused {
		return text, true
	}
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

// oldBatchServer speaks the batch protocol as an older server did:
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
			answers, _, aerr := answerPIRMultiCtx(context.Background(), sn, qs)
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

// fetchFromOldServer fetches ids from a stub server that refuses what
// refuse refuses, checks the bytes and that the connection survives the
// refusals and the retries, and returns the stats and the stub's counts.
func fetchFromOldServer(t *testing.T, refuse func([]byte) (string, bool)) (st FetchStats, refused, served int) {
	t.Helper()
	e, c, texts, byBlocks := rotationWorld(t)
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	srvConn, cliConn := net.Pipe()
	defer cliConn.Close()
	var srv oldBatchServer
	go srv.serve(srvConn, sn, refuse)

	ids := []int{byBlocks[3], byBlocks[1], byBlocks[5]}
	got, st, err := c.FetchDocumentsRemote(cliConn, ids)
	if err != nil {
		t.Fatalf("fetch against an old server: %v", err)
	}
	for i, id := range ids {
		if string(got[i]) != texts[id] {
			t.Fatalf("doc %d: fetched %q, want %q", id, got[i], texts[id])
		}
	}
	refused, served = srv.counts()
	if got, _, err := c.FetchDocumentsRemote(cliConn, []int{byBlocks[1]}); err != nil || string(got[0]) != texts[byBlocks[1]] {
		t.Fatalf("fetch after the fallback: %q, %v", got, err)
	}
	return st, refused, served
}

// TestFetchFallsBackToWrittenOutVectorsOnPreSeedServer: a server that
// predates the seeded form refuses the first batch frame for the 0 that
// marks it, with wire.SeedRefusal, and keeps the connection. The client
// must step exactly one rung down — the same vectors written out, their
// rotations still one byte — and return the stored bytes.
func TestFetchFallsBackToWrittenOutVectorsOnPreSeedServer(t *testing.T) {
	st, refused, served := fetchFromOldServer(t, preSeedRefusal)
	if refused != 1 || served == 0 {
		t.Fatalf("the old server refused %d frames and served %d: want one refusal, then written-out frames", refused, served)
	}
	if st.Runs != 9 || st.Vectors != 3 {
		t.Fatalf("the retry reported %d runs and %d vectors: want a vector for each of 3 documents", st.Runs, st.Vectors)
	}
}

// TestFetchFallsBackToFullVectorsOnPreRotationServer: a server that
// predates rotation entries refuses the seeded frame as above and then
// the written-out frame for the zero count in it, with the frozen
// RotationRefusal text. The client walks down both rungs, to a vector
// per block — frames that server has always served.
func TestFetchFallsBackToFullVectorsOnPreRotationServer(t *testing.T) {
	st, refused, served := fetchFromOldServer(t, preRotationRefusal)
	if refused != 2 || served == 0 {
		t.Fatalf("the old server refused %d frames and served %d: want two refusals, then full-vector frames", refused, served)
	}
	if st.Runs != 9 || st.Vectors != 9 {
		t.Fatalf("the retry reported %d runs and %d vectors: want a vector for each of 9 blocks", st.Runs, st.Vectors)
	}
}

// TestFetchDoesNotRetryOtherRefusals: only the frozen refusal of the
// first frame's own form means "old server". Any other error on the
// first answer — load shedding, a deadline, the same words about another
// entry or another form — is the server's verdict and is reported once,
// not retried with more upload. That holds on each rung: refused on the
// seeded rung, the fetch sends one frame; refused on the written-out rung
// (after wire.SeedRefusal stepped it down), two — never a per-block
// frame.
func TestFetchDoesNotRetryOtherRefusals(t *testing.T) {
	e, c, _, byBlocks := rotationWorld(t)
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	overload := "server overloaded: admission queue full"
	deadline := "embellish: server deadline exceeded: batch cancelled in block 0"
	for _, tc := range []struct {
		text       string
		writtenOut bool // refused on the written-out rung, not the seeded one
	}{
		{overload, false},
		{deadline, false},
		{wire.RotationRefusal(1), false}, // the first frame is seeded, not written out
		{wire.SeedRefusal + " (and then some)", false},
		{overload, true},
		{deadline, true},
		{wire.RotationRefusal(0), true}, // entry 0 is never a rotation
		{wire.RotationRefusal(2), true}, // the frame's first rotation is entry 1
		{wire.RotationRefusal(1) + " (and then some)", true},
	} {
		srvConn, cliConn := net.Pipe()
		var srv oldBatchServer
		go srv.serve(srvConn, sn, func(body []byte) (string, bool) {
			if seed, refused := preSeedRefusal(body); refused && tc.writtenOut {
				return seed, true
			}
			return tc.text, true
		})
		_, _, err := c.FetchDocumentsRemote(cliConn, []int{byBlocks[3]})
		cliConn.Close()
		if err == nil || !strings.Contains(err.Error(), tc.text) {
			t.Fatalf("refusal %q (written out: %v) came back as %v", tc.text, tc.writtenOut, err)
		}
		want := 1
		if tc.writtenOut {
			want = 2
		}
		if refused, _ := srv.counts(); refused != want {
			t.Fatalf("refusal %q (written out: %v): the client sent %d batch frames, want %d", tc.text, tc.writtenOut, refused, want)
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
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
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
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true})
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
