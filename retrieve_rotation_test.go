package embellish

import (
	"bytes"
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
	"embellish/internal/vbyte"
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
	e, c, texts = storeWorld(t, 8, classBlockSize, Durability{})
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
	e, c, texts = storeWorld(t, 24, 16, Durability{})
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
// carries is counted to the byte: the six-byte hello and the one frame's
// head (length, type, modulus, the seeded form's 0, count, V and Z).
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
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cc := &frameCounter{Conn: conn}
		got, st, err := c.FetchDocumentsRemote(cc, tc.ids)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, id := range tc.ids {
			if string(got[i]) != texts[id] {
				t.Fatalf("%s: doc %d fetched %q, want %q", tc.name, id, got[i], texts[id])
			}
		}
		if st.Runs != runs || st.Vectors != len(tc.ids) {
			t.Fatalf("%s: %d runs and %d vectors for %d columns of %d documents", tc.name, st.Runs, st.Vectors, runs, len(tc.ids))
		}
		if want := vectors + runs - len(tc.ids); st.QueryBytes != want {
			t.Fatalf("%s: FetchStats.QueryBytes %d, want %d", tc.name, st.QueryBytes, want)
		}
		bodies := cc.bodies(wire.TypePIRBatchQuery)
		if len(bodies) != 1 {
			t.Fatalf("%s: %d columns went out in %d batch frames, want 1", tc.name, runs, len(bodies))
		}
		qs, err := wire.DecodePIRBatchQuery(bodies[0])
		if err != nil || qs[0].Seed == nil || qs[0].Height == 0 {
			t.Fatalf("%s: a batch frame that is not seeded over a view (%v)", tc.name, err)
		}
		// The hello of a fresh connection, a single 0, and the frame head.
		extra := 6 + 4 + 1 + bigBytes(key.N) + 1 + 1 + bigBytes(qs[0].Seed.V) + bigBytes(qs[0].Seed.Z)
		if cc.up != st.QueryBytes+extra {
			t.Fatalf("%s: uploaded %d bytes, the protocol's %d and %d of hello and frame head", tc.name, cc.up, st.QueryBytes, extra)
		}
	}
}

// TestFetchSplitsATallDocumentAcrossFrames: a document of more columns
// than one frame holds goes out in the frames frameSizes cuts — at 4 KiB
// blocks H = 1, so its 65 blocks are 65 columns of view 1, and the
// answers a frame asks for outgrow 16 MiB before the wire's batch cap.
// The vector travels once; each later frame opens with the same seed at
// the rotation where the frame before it stopped, and the stats are the
// protocol's: one vector, a byte per further column.
func TestFetchSplitsATallDocumentAcrossFrames(t *testing.T) {
	const blockSize, blocks = 4096, 65
	if h := docstore.Heights(blockSize); h != 1 {
		t.Fatalf("H is %d at %d-byte blocks", h, blockSize)
	}
	e, c, texts := storeWorld(t, 8, blockSize, Durability{})
	lemmas := miniLemmas()
	id := e.NextDocID()
	var text strings.Builder
	text.WriteString(storeDocText(id, lemmas))
	for text.Len() <= (blocks-1)*blockSize+50 {
		text.WriteString(" " + lemmas[2+text.Len()%20])
	}
	texts[id] = text.String()
	if err := e.AddDocuments([]Document{{ID: id, Text: texts[id]}}); err != nil {
		t.Fatal(err)
	}
	sn, err := e.storeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	layout := sn.Layout()
	h, _, cols := layout.Place(id)
	if h != 1 || cols != blocks {
		t.Fatalf("document %d is %d columns of view %d, want %d of view 1", id, cols, h, blocks)
	}
	key, err := c.pirKey()
	if err != nil {
		t.Fatal(err)
	}
	width := layout.Widths()[1]
	costs := make([]queryCost, cols)
	for j := range costs {
		costs[j] = queryCost{entry: wire.SeededEntryBytes(width, 1, j), values: width, answer: key.AnswerBytes(8 * blockSize), rotates: j > 0}
	}
	sizes := frameSizes(costs, wire.MaxPIRBatch, wire.MaxSeededValues((key.N.BitLen()+7)/8))
	if len(sizes) < 2 || sizes[0] >= wire.MaxPIRBatch {
		t.Fatalf("frames of %v: want the answer budget to cut the document short of the batch cap", sizes)
	}

	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := &frameCounter{Conn: conn}
	got, st, err := c.FetchDocumentsRemote(fc, []int{id})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Document(id)
	if err != nil || string(got[0]) != texts[id] || string(direct) != texts[id] {
		t.Fatalf("fetched %d bytes, stored %d (%v), indexed %d", len(got[0]), len(direct), err, len(texts[id]))
	}
	if st.Runs != cols || st.Vectors != 1 || st.QueryBytes != wire.SeededEntryBytes(width, 1, 0)+cols-1 {
		t.Fatalf("%d runs, %d vectors, %d query bytes: want %d columns on one vector", st.Runs, st.Vectors, st.QueryBytes, cols)
	}
	bodies := fc.bodies(wire.TypePIRBatchQuery)
	if len(bodies) != len(sizes) {
		t.Fatalf("%d batch frames, want the %d of %v", len(bodies), len(sizes), sizes)
	}
	var seed *pir.Seed
	rot := 0
	// The socket carries the protocol's bytes, the hello of a fresh
	// connection, each frame's head and, in place of the byte the protocol
	// counts, a seeded entry for each rotation a frame boundary orphans.
	bigBytes := func(v *big.Int) int { return 1 + (v.BitLen()+7)/8 }
	up := st.QueryBytes + 6
	for f, body := range bodies {
		qs, err := wire.DecodePIRBatchQuery(body)
		if err != nil || len(qs) != sizes[f] {
			t.Fatalf("frame %d: %d entries (%v), want %d", f, len(qs), err, sizes[f])
		}
		if seed == nil {
			seed = qs[0].Seed
		}
		if q := qs[0]; q.Seed == nil || q.Seed.Key != seed.Key || q.Height != 1 || q.Rot != rot {
			t.Fatalf("frame %d opens at rotation %d of view %d (seeded %v), want the first frame's seed at rotation %d of view 1", f, q.Rot, q.Height, q.Seed != nil, rot)
		}
		up += 4 + 1 + bigBytes(key.N) + 1 + 1 + bigBytes(seed.V) + bigBytes(seed.Z)
		if rot > 0 {
			up += wire.SeededEntryBytes(width, 1, rot) - 1
		}
		rot += len(qs)
	}
	if fc.up != up {
		t.Fatalf("uploaded %d bytes, want %d: the protocol's %d, the hello, %d frame heads and %d orphans", fc.up, up, st.QueryBytes, len(bodies), len(bodies)-1)
	}
}

// TestLocalFetchRotates: the in-process fetch, a wire session over an
// in-memory connection, serves the class-view queries, rotations among
// them, as they are; the bytes are the stored bytes and the stats a
// remote fetch's, every vector seeded.
func TestLocalFetchRotates(t *testing.T) {
	e, c, texts, byBlocks := classWorld(t)
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
	if want := wire.SeededEntryBytes(w[3], 3, 0) + wire.SeededEntryBytes(w[1], 1, 0) + wire.SeededEntryBytes(w[2], 2, 0) + 1; st.QueryBytes != want {
		t.Fatalf("local fetch counted %d query bytes, want %d: three seeded vectors over views 3, 1 and 2, one rotation", st.QueryBytes, want)
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
	conn := &onFirstBatch{Conn: raw, typ: wire.TypePIRBatchQuery, do: func() {
		docs := make([]Document, 3)
		for i, b := range []int{1, 3, 5} {
			docs[i] = Document{ID: before + i, Text: classText(before+i, b, lemmas)}
		}
		if err := e.AddDocuments(docs); err != nil {
			t.Errorf("mid-fetch append: %v", err)
		}
	}}
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
	layout := sn.Layout()
	var compact, full []*pir.Query
	for _, n := range []int{3, 5} {
		h, col, _ := layout.Place(byBlocks[n])
		q, err := key.NewQuery(detrand.New(fmt.Sprintf("frame-%d", n)), layout.Widths()[h], col)
		if err != nil {
			t.Fatal(err)
		}
		q.Height = h
		for b := 0; b < n; b++ {
			if b > 0 {
				q = q.Next()
			}
			compact = append(compact, q)
			own := &pir.Query{N: q.N, Values: make([]*big.Int, len(q.Values)), Height: h}
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
		if !bytes.Equal(fromCompact[i].Image, oracle.Image) || !bytes.Equal(fromFull[i].Image, oracle.Image) {
			t.Fatalf("entry %d: compact frame, full frame and oracle disagree", i)
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
// entry at height 0 (the block array, which no writer produces), whose
// height names no view of its store, or that is wider than its view,
// with one typed refusal (wire.ViewRefusal) for the frame, and the
// connection answers the next frame.
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
		{"the block array", 0, widths[0]},
	} {
		q, err := key.NewSeededQuery(detrand.New(tc.name), tc.width, 0)
		if err != nil {
			t.Fatal(err)
		}
		q.Height = max(tc.height, 1)
		var frame bytes.Buffer
		if err := wire.WritePIRBatchQuery(&frame, []*pir.Query{q, q.Next()}); err != nil {
			t.Fatal(err)
		}
		if tc.height == 0 {
			zeroFirstHeight(frame.Bytes())
		}
		if _, err := conn.Write(frame.Bytes()); err != nil {
			t.Fatal(err)
		}
		typ, body, err := wire.ReadMessage(conn)
		if err != nil || typ != wire.TypeError || !strings.HasPrefix(string(body), wire.ViewRefusal) ||
			tc.height == 0 && !strings.Contains(string(body), "height 0") {
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
		if _, ans, err := wire.DecodePIRBatchAnswer(body); err != nil || ans.Count() != 8*h*classBlockSize {
			t.Fatalf("%s: the next frame's answer: %v", tc.name, err)
		}
	}
}

// zeroFirstHeight sets the height of the first entry of a seeded type-12
// frame to 0: past the 4-byte length and the type, the modulus, the
// seeded form's 0, the count, V, Z and the width.
func zeroFirstHeight(frame []byte) {
	b := frame[5:]
	for field := 0; field < 6; field++ {
		v, used, _ := vbyte.Decode(b)
		b = b[used:]
		if field == 0 || field == 3 || field == 4 { // a big integer's bytes
			b = b[v:]
		}
	}
	b[0] = 0x80
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
		if !bytes.Equal(ans.Image, oracle.Image) {
			t.Fatalf("answer %d: %d rows differ from the oracle's %d over view %d", i, ans.Count(), oracle.Count(), q.Height)
		}
	}
}
