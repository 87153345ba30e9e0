package embellish

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"net"
	"strings"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// One selection vector per document: the flat fetch draws a vector for a
// document's first column and asks for every further column as that
// vector rotated one column up — one byte on the wire. These tests count
// the bytes, hold a refused frame to one refusal and no retry, and fetch
// through a mapping older than the store.

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

// TestFetchDepthOneSendsSeededFramesOfOneEntry: depth 1 speaks the one
// flat dialect in frames of one entry — every column of a document taller
// than the tallest view travels seeded over its class view, the second
// column as the first's seed one rotation on — and the stats are the
// protocol's: one vector per document, a byte per further column.
func TestFetchDepthOneSendsSeededFramesOfOneEntry(t *testing.T) {
	e, c, texts, byBlocks := classWorld(t)
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
	id := byBlocks[5] // two columns of view 3
	got, st, err := c.FetchDocumentsRemote(fc, []int{id})
	if err != nil || string(got[0]) != texts[id] {
		t.Fatalf("fetched %q, %v", got, err)
	}
	if st.Runs != 2 || st.Vectors != 1 || fc.frames[wire.TypePIRBatchQuery] != 2 {
		t.Fatalf("%d runs, %d vectors, %d batch frames: want two frames of one column each, one vector", st.Runs, st.Vectors, fc.frames[wire.TypePIRBatchQuery])
	}
	for i, body := range fc.bodies(wire.TypePIRBatchQuery) {
		qs, err := wire.DecodePIRBatchQuery(body)
		if err != nil || len(qs) != 1 || qs[0].Seed == nil || qs[0].Height != 3 || qs[0].Rot != i {
			t.Fatalf("frame %d: %d entries (%v), want one seeded entry over view 3 at rotation %d", i, len(qs), err, i)
		}
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

// TestFetchDoesNotRetryOtherRefusals: a refusal of a fetch's first
// frame is the server's verdict and is reported once, after that one
// frame, whatever its text — load shedding, a deadline, and the refusals
// servers predating type 12, the seeded form, heights or rotation entries
// sent among them: the fetch speaks one dialect, so there is no other
// form to retry in.
func TestFetchDoesNotRetryOtherRefusals(t *testing.T) {
	e, c, _, byBlocks := rotationWorld(t)
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFetchPipeline(16); err != nil { // every column in one frame
		t.Fatal(err)
	}
	for _, text := range []string{
		"server overloaded: admission queue full",
		"embellish: server deadline exceeded: batch cancelled in block 0",
		"unexpected message type 12",
		"wire: seeded PIR batch query count: value out of range",
		"wire: PIR batch query count: value out of range",
		"wire: PIR batch query 1 value count: value out of range",
	} {
		srvConn, cliConn := net.Pipe()
		var srv scriptedServer
		go srv.serve(srvConn, func(w io.Writer, typ byte, body []byte) error {
			if typ != wire.TypePIRParams {
				return wire.WriteError(w, text)
			}
			have, err := wire.DecodePIRHello(body)
			if err != nil {
				return err
			}
			return wire.WritePIRHelloReply(w, sn.Params(), have)
		})
		_, _, err := c.FetchDocumentsRemote(cliConn, []int{byBlocks[3]})
		cliConn.Close()
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Fatalf("refusal %q came back as %v", text, err)
		}
		if got := srv.frames(wire.TypePIRBatchQuery); got != 1 {
			t.Fatalf("refusal %q: the client sent %d batch frames, want 1", text, got)
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
