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
// document's first column and asks for every further column as that
// vector rotated one column up — one byte on the wire. These tests count
// the bytes, walk the fallback against a server that predates the
// rotation entry, and fetch through a mapping older than the store.

// classBlockSize is classWorld's block size: H = 3 at it.
const classBlockSize = 2048

// classText returns a text of document id that fills exactly blocks
// blocks of classBlockSize bytes.
func classText(id, blocks int, lemmas []string) string {
	text := storeDocText(id, lemmas)
	for len(text) <= (blocks-1)*classBlockSize+50 {
		text += " " + lemmas[2+(len(text)+id)%20]
	}
	return text
}

// classWorld is a store world at classBlockSize bytes a block, where the
// tallest view is H = 3 blocks, with documents of 1, 2, 3 and 5 = H+2
// blocks — one column of views 1, 2 and 3 each, and two columns of view
// 3, the second zero-padded — and the ids of one document per block
// count.
func classWorld(t *testing.T) (e *Engine, c *Client, texts map[int]string, byBlocks map[int]int) {
	t.Helper()
	if docstore.Heights(classBlockSize) != 3 {
		t.Fatalf("H is %d at %d-byte blocks", docstore.Heights(classBlockSize), classBlockSize)
	}
	e, c, texts = storeWorld(t, 8, classBlockSize)
	lemmas := miniLemmas()
	byBlocks = map[int]int{1: 0}
	var docs []Document
	for _, b := range []int{2, 3, 5, 3, 2, 5} {
		id := e.NextDocID() + len(docs)
		texts[id] = classText(id, b, lemmas)
		docs = append(docs, Document{ID: id, Text: texts[id]})
		if _, seen := byBlocks[b]; !seen {
			byBlocks[b] = id
		}
	}
	if err := e.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for b, id := range byBlocks {
		if got := sn.Params().Exts[id].Blocks; int(got) != b {
			t.Fatalf("document %d has %d blocks, want %d", id, got, b)
		}
	}
	return e, c, texts, byBlocks
}

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
// connection, a fetch uploads one seeded selection vector per DOCUMENT,
// over its class view, and a byte per further column, and
// FetchStats.QueryBytes is exactly that figure. What else the socket
// carries is counted to the byte: the six-byte hello and each frame's
// head (length, type, modulus, the two zeros of a frame with heights,
// the seeded form's 0, count, V and Z) — and, at the default window,
// where a frame boundary can fall inside a document, the seeded entry of
// each rotation the boundary orphans in place of its byte.
func TestFetchUploadsOneVectorPerDocument(t *testing.T) {
	e, c, texts, byBlocks := classWorld(t)
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	key, err := c.pirKey()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	layout := sn.Layout()
	entry := func(id, rot int) int {
		h, _, _ := layout.Place(id)
		return wire.SeededEntryBytes(layout.Widths()[h], h, rot)
	}
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
		{"one of each", []int{byBlocks[5], byBlocks[1], byBlocks[2], byBlocks[3]}},
	} {
		runs, vectors := 0, 0
		for _, id := range tc.ids {
			_, _, k := layout.Place(id)
			runs += k
			vectors += entry(id, 0)
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
			if st.Runs != runs || st.Vectors != len(tc.ids) {
				t.Fatalf("%s, window %d: %d runs and %d vectors for %d columns of %d documents", tc.name, window, st.Runs, st.Vectors, runs, len(tc.ids))
			}
			if want := vectors + runs - len(tc.ids); st.QueryBytes != want {
				t.Fatalf("%s, window %d: FetchStats.QueryBytes %d, want %d", tc.name, window, st.QueryBytes, want)
			}
			frames := (runs + window/2 - 1) / (window / 2)
			if got := cc.frames[wire.TypePIRBatchQuery]; got != frames || (window == 16 && frames != 1) {
				t.Fatalf("%s, window %d: %d columns went out in %d batch frames, want %d", tc.name, window, runs, got, frames)
			}
			extra := 6 // the hello of a fresh connection: a single 0
			for _, body := range cc.bodies(wire.TypePIRBatchQuery) {
				qs, err := wire.DecodePIRBatchQuery(body)
				if err != nil || qs[0].Seed == nil || qs[0].Height == 0 {
					t.Fatalf("%s, window %d: a batch frame that is not seeded over a view (%v)", tc.name, window, err)
				}
				extra += 4 + 1 + bigBytes(key.N) + 2 + 1 + 1 + bigBytes(qs[0].Seed.V) + bigBytes(qs[0].Seed.Z)
				if qs[0].Rot > 0 { // an orphan: an entry where the protocol counts a byte
					extra += wire.SeededEntryBytes(len(qs[0].Values), qs[0].Height, qs[0].Rot) - 1
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

// TestLocalFetchRotates: the in-process transport executes the class-view
// queries, rotations among them, as they are; the bytes are the stored
// bytes and the stats the protocol's, its vectors written out — nothing
// local crosses a wire, so nothing is drawn seeded.
func TestLocalFetchRotates(t *testing.T) {
	e, c, texts, byBlocks := classWorld(t)
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
	if st.Runs != 4 || st.Vectors != 3 {
		t.Fatalf("%d runs, %d vectors: want 4 columns of 3 documents", st.Runs, st.Vectors)
	}
	w := sn.Layout().Widths()
	if want := key.QueryBytes(w[3]) + key.QueryBytes(w[1]) + key.QueryBytes(w[2]) + 1; st.QueryBytes != want {
		t.Fatalf("local fetch counted %d query bytes, want %d: three vectors over views 3, 1 and 2 written out, one rotation", st.QueryBytes, want)
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

// preViewRefusal applies the query-count rule of a decoder that speaks
// the seeded form but predates heights: it reads a first 0 as the seeded
// form's mark, so the second 0 of a frame with heights is its seeded
// query count, out of range, and the refusal is this text verbatim.
func preViewRefusal(body []byte) (string, bool) {
	size, used, _ := vbyte.Decode(body) // the modulus
	rest := body[used+int(size):]
	if mark, used, _ := vbyte.Decode(rest); mark == 0 {
		if count, _, _ := vbyte.Decode(rest[used:]); count == 0 {
			return wire.HeightsRefusal, true
		}
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

// oldBatchServer speaks the batch protocol as an older server did: it
// refuses a params request that carries a body, the hello, with
// wire.ParamsBodyRefusal, and refuse answers a type-12 frame with an error
// frame (and the connection stays up) or lets it through to the one
// executor.
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
			if len(body) != 0 {
				err = wire.WriteError(conn, wire.ParamsBodyRefusal)
				break
			}
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
			answers, _, _, aerr := answerPIRFrame(context.Background(), sn, qs)
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
// refusals and the retries, and returns the stats, the store and the
// stub's counts.
func fetchFromOldServer(t *testing.T, refuse func([]byte) (string, bool)) (st FetchStats, sn *docstore.Snapshot, refused, served int) {
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
	return st, sn, refused, served
}

// TestFetchFallsBackToSeededBlocksOnPreViewServer: a server that speaks
// the seeded form but predates class views refuses the first batch
// frame, which carries heights, with wire.HeightsRefusal and keeps the
// connection. The client must step exactly one rung down and fetch as
// that server always served: a seeded vector per document over the whole
// block array, each further block a one-byte rotation.
func TestFetchFallsBackToSeededBlocksOnPreViewServer(t *testing.T) {
	var (
		mu     sync.Mutex
		frames [][]*pir.Query
	)
	st, sn, refused, served := fetchFromOldServer(t, func(body []byte) (string, bool) {
		if text, refused := preViewRefusal(body); refused {
			return text, true
		}
		if qs, err := wire.DecodePIRBatchQuery(body); err == nil {
			mu.Lock()
			frames = append(frames, qs)
			mu.Unlock()
		}
		return "", false
	})
	if refused != 1 || served == 0 {
		t.Fatalf("the old server refused %d frames and served %d: want one refusal, then seeded frames", refused, served)
	}
	if st.Runs != 9 || st.Vectors != 3 {
		t.Fatalf("the retry reported %d runs and %d vectors: want a vector for each of 3 documents", st.Runs, st.Vectors)
	}
	n := sn.NumBlocks()
	if want := 3*wire.SeededEntryBytes(n, 0, 0) + 6; st.QueryBytes != want {
		t.Fatalf("the retry uploaded %d query bytes, want %d: three seeded vectors of %d columns and six rotations", st.QueryBytes, want, n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, qs := range frames {
		for i, q := range qs {
			if q.Seed == nil || q.Height != 0 || len(q.Values) != n {
				t.Fatalf("served entry %d: seeded %v, height %d, %d columns: want seeded over the %d blocks", i, q.Seed != nil, q.Height, len(q.Values), n)
			}
		}
	}
}

// TestFetchFallsBackToWrittenOutVectorsOnPreSeedServer: a server that
// predates the seeded form refuses a batch frame for the 0 that marks
// it, with wire.SeedRefusal, and keeps the connection. It refuses both
// seeded rungs — over views and over blocks — and the client steps down
// to the same vectors written out, their rotations still one byte, and
// returns the stored bytes.
func TestFetchFallsBackToWrittenOutVectorsOnPreSeedServer(t *testing.T) {
	st, _, refused, served := fetchFromOldServer(t, preSeedRefusal)
	if refused != 2 || served == 0 {
		t.Fatalf("the old server refused %d frames and served %d: want two refusals, then written-out frames", refused, served)
	}
	if st.Runs != 9 || st.Vectors != 3 {
		t.Fatalf("the retry reported %d runs and %d vectors: want a vector for each of 3 documents", st.Runs, st.Vectors)
	}
}

// TestFetchFallsBackToFullVectorsOnPreRotationServer: a server that
// predates rotation entries refuses the seeded frames as above and then
// the written-out frame for the zero count in it, with the frozen
// RotationRefusal text. The client walks down three rungs, to a vector
// per block — frames that server has always served.
func TestFetchFallsBackToFullVectorsOnPreRotationServer(t *testing.T) {
	st, _, refused, served := fetchFromOldServer(t, preRotationRefusal)
	if refused != 3 || served == 0 {
		t.Fatalf("the old server refused %d frames and served %d: want three refusals, then full-vector frames", refused, served)
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
// rung over views, the fetch sends one frame; on the seeded rung over
// blocks (after wire.HeightsRefusal stepped it down), two; on the
// written-out rung (after wire.SeedRefusal stepped it down twice), three
// — never a per-block frame.
func TestFetchDoesNotRetryOtherRefusals(t *testing.T) {
	e, c, _, byBlocks := rotationWorld(t)
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	overload := "server overloaded: admission queue full"
	deadline := "embellish: server deadline exceeded: batch cancelled in block 0"
	// The server each rung is spoken to refuses the rungs above it.
	older := []func([]byte) (string, bool){nil, preViewRefusal, preSeedRefusal}
	for _, tc := range []struct {
		text string
		rung int // the rung the text answers: 0 seeded over views, 1 seeded over blocks, 2 written out
	}{
		{overload, 0},
		{deadline, 0},
		{wire.RotationRefusal(1), 0}, // the first frame is seeded, not written out
		{wire.SeedRefusal + " (and then some)", 0},
		{wire.HeightsRefusal + " (and then some)", 0},
		{overload, 1},
		{wire.HeightsRefusal, 1}, // the frame carries no heights
		{wire.RotationRefusal(1), 1},
		{overload, 2},
		{deadline, 2},
		{wire.RotationRefusal(0), 2}, // entry 0 is never a rotation
		{wire.RotationRefusal(2), 2}, // the frame's first rotation is entry 1
		{wire.RotationRefusal(1) + " (and then some)", 2},
	} {
		srvConn, cliConn := net.Pipe()
		var srv oldBatchServer
		go srv.serve(srvConn, sn, func(body []byte) (string, bool) {
			if tc.rung > 0 {
				if text, refused := older[tc.rung](body); refused {
					return text, true
				}
			}
			return tc.text, true
		})
		_, _, err := c.FetchDocumentsRemote(cliConn, []int{byBlocks[3]})
		cliConn.Close()
		if err == nil || !strings.Contains(err.Error(), tc.text) {
			t.Fatalf("refusal %q (rung %d) came back as %v", tc.text, tc.rung, err)
		}
		if refused, _ := srv.counts(); refused != tc.rung+1 {
			t.Fatalf("refusal %q (rung %d): the client sent %d batch frames, want %d", tc.text, tc.rung, refused, tc.rung+1)
		}
	}
}

// TestRotatedFetchAgainstOlderParams: documents appended after the client
// read the block mapping make every view wider than the vectors — prefix
// addressing. A rotation wraps within the vector's own width, the width
// the mapping had, so the rotated queries address the same columns and
// the documents verify.
func TestRotatedFetchAgainstOlderParams(t *testing.T) {
	e, c, texts, byBlocks := classWorld(t)
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
		for i, b := range []int{1, 3, 5} {
			docs[i] = Document{ID: before + i, Text: classText(before+i, b, lemmas)}
		}
		if err := e.AddDocuments(docs); err != nil {
			t.Errorf("mid-fetch append: %v", err)
		}
	}}
	if err := c.SetFetchPipeline(32); err != nil {
		t.Fatal(err)
	}
	// The last five-block document is the last of the old view 3: its
	// rotation puts the non-residue in the vector's last column.
	ids := []int{byBlocks[5] + 3, byBlocks[3], byBlocks[2]}
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
	if st.Runs != 4 || st.Vectors != 3 {
		t.Fatalf("%d runs, %d vectors: want 4 columns of 3 documents", st.Runs, st.Vectors)
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

// TestFetchWorkIsTargetIndependentWithinAClass is the threat model's
// invariant per class: a flat fetch's anonymity set is its document's
// class — the height and width its frame names — so over a churned store
// with classes of 1, 2 and 3 blocks and documents of H+2 blocks, every
// target of one shape (class and column count) costs the server the same
// products and table products, and moves frames of the same lengths, up
// and down.
func TestFetchWorkIsTargetIndependentWithinAClass(t *testing.T) {
	e, c, texts, byBlocks := classWorld(t)
	lemmas := miniLemmas()
	if err := e.DeleteDocuments([]int{byBlocks[2], byBlocks[5]}); err != nil {
		t.Fatal(err)
	}
	var docs []Document
	for _, b := range []int{5, 1, 3, 2, 5, 2} {
		id := e.NextDocID() + len(docs)
		texts[id] = classText(id, b, lemmas)
		docs = append(docs, Document{ID: id, Text: texts[id]})
	}
	if err := e.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	statsConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer statsConn.Close()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := &tapConn{Conn: raw}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	layout := sn.Layout()
	// What one fetch cost the server, and the lengths of its frames.
	type cost struct {
		muls, tableMuls int64
		up, down        string
	}
	lengths := func(raw []byte) string {
		var out []int
		for _, f := range tappedFrames(t, raw) {
			out = append(out, len(f.body))
		}
		return fmt.Sprint(out)
	}
	fetchOver(t, c, conn, []int{0}, texts) // the hello of every fetch below is the unchanged reply
	type shape struct{ h, k int }
	costs := map[shape]map[int]cost{}
	for id := 0; id < sn.NumDocs(); id++ {
		if ext, _ := sn.Extent(id); ext.Deleted {
			continue
		}
		h, _, k := layout.Place(id)
		before, err := ServerStats(statsConn)
		if err != nil {
			t.Fatal(err)
		}
		conn.reset()
		fetchOver(t, c, conn, []int{id}, texts)
		after, err := ServerStats(statsConn)
		if err != nil {
			t.Fatal(err)
		}
		sh := shape{h, k}
		if costs[sh] == nil {
			costs[sh] = map[int]cost{}
		}
		costs[sh][id] = cost{after.PIRModMuls - before.PIRModMuls, after.PIRTableMuls - before.PIRTableMuls, lengths(conn.wrote), lengths(conn.read)}
	}
	for _, sh := range []shape{{1, 1}, {2, 1}, {3, 1}, {3, 2}} {
		if len(costs[sh]) < 2 {
			t.Fatalf("class %d, %d columns: %d live targets, want at least 2", sh.h, sh.k, len(costs[sh]))
		}
		var first cost
		firstID := -1
		for id, got := range costs[sh] {
			if got.muls == 0 || got.tableMuls == 0 {
				t.Fatalf("class %d: target %d cost %d products, %d in tables", sh.h, id, got.muls, got.tableMuls)
			}
			if firstID < 0 {
				first, firstID = got, id
				continue
			}
			if got != first {
				t.Fatalf("class %d, %d columns: target %d cost %+v, target %d %+v", sh.h, sh.k, id, got, firstID, first)
			}
		}
	}
}

// TestHostileViewFramesRefusedInPlace: a live server refuses a type-12
// entry whose height names no view of its store, or that is wider than
// its view, with one typed refusal (wire.ViewRefusal) for the frame, and
// the connection answers the next frame.
func TestHostileViewFramesRefusedInPlace(t *testing.T) {
	e, c, _, byBlocks := classWorld(t)
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true})
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	widths := sn.Layout().Widths()
	top := len(widths) - 1
	h, col, _ := sn.Layout().Place(byBlocks[3])
	for _, tc := range []struct {
		name          string
		height, width int
	}{
		{"a height past the tallest view", top + 1, widths[1]},
		{"a vector wider than its view", 1, widths[1] + 1},
	} {
		q, err := key.NewSeededQuery(detrand.New(tc.name), tc.width, 0)
		if err != nil {
			t.Fatal(err)
		}
		q.Height = tc.height
		if err := wire.WritePIRBatchQuery(conn, []*pir.Query{q, q.Next()}); err != nil {
			t.Fatal(err)
		}
		typ, body, err := wire.ReadMessage(conn)
		if err != nil || typ != wire.TypeError || !strings.HasPrefix(string(body), wire.ViewRefusal) {
			t.Fatalf("%s: answered type %d %q, %v", tc.name, typ, body, err)
		}
		// The next frame on the connection is served: a column of view 3.
		good, err := key.NewSeededQuery(detrand.New(tc.name+" then"), widths[h], col)
		if err != nil {
			t.Fatal(err)
		}
		good.Height = h
		if err := wire.WritePIRBatchQuery(conn, []*pir.Query{good}); err != nil {
			t.Fatal(err)
		}
		typ, body, err = wire.ReadMessage(conn)
		if err != nil || typ != wire.TypePIRBatchResponse {
			t.Fatalf("%s: the next frame answered type %d %q, %v", tc.name, typ, body, err)
		}
		if _, ans, err := wire.DecodePIRBatchAnswer(body); err != nil || len(ans.Gammas) != 8*h*classBlockSize {
			t.Fatalf("%s: the next frame's answer: %v", tc.name, err)
		}
	}
}

// TestFrameOfTwoViewsServedPerView: one frame whose entries name views 2
// and 3 at the same width is served as two passes, one over each view,
// and every answer equals the oracle's over its own view.
func TestFrameOfTwoViewsServedPerView(t *testing.T) {
	e, c, _, _ := classWorld(t)
	conn, key := pirFrameConn(t, e, c, ServeConfig{AllowRetrieval: true})
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	widths := sn.Layout().Widths()
	w := min(widths[2], widths[3])
	var qs []*pir.Query
	for _, h := range []int{2, 3} {
		q, err := key.NewSeededQuery(detrand.New(fmt.Sprintf("two views %d", h)), w, w-1)
		if err != nil {
			t.Fatal(err)
		}
		q.Height = h
		qs = append(qs, q)
	}
	if err := wire.WritePIRBatchQuery(conn, qs); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		typ, body, err := wire.ReadMessage(conn)
		if err != nil || typ != wire.TypePIRBatchResponse {
			t.Fatalf("answer %d: type %d %q, %v", i, typ, body, err)
		}
		idx, ans, err := wire.DecodePIRBatchAnswer(body)
		if err != nil || idx != i {
			t.Fatalf("answer %d: index %d, %v", i, idx, err)
		}
		oracle, _, err := sn.AnswerCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Gammas) != len(oracle.Gammas) {
			t.Fatalf("answer %d: %d rows, want %d", i, len(ans.Gammas), len(oracle.Gammas))
		}
		for g, want := range oracle.Gammas {
			if ans.Gammas[g].Cmp(want) != 0 {
				t.Fatalf("answer %d gamma %d differs from the oracle over view %d", i, g, q.Height)
			}
		}
	}
}
