package embellish

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"embellish/internal/detrand"
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
	"embellish/internal/wire"
)

// TestFetchPipelineDepthsAndPlansAgree: every fetch-pipeline depth
// must fetch byte-identical documents — the pipeline reschedules work
// and may not change a single byte. (The executor's worker-count sweep
// lives in internal/pir's conformance battery.)
func TestFetchPipelineDepthsAndPlansAgree(t *testing.T) {
	e, _, texts := storeWorld(t, 25, 32)
	ids := []int{0, 7, 13, 24}
	for _, depth := range []int{1, 2, 5, DefaultFetchPipeline} {
		c, err := e.NewClient(detrand.New(fmt.Sprintf("pipe-%d", depth)))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetFetchPipeline(depth); err != nil {
			t.Fatal(err)
		}
		got, st, err := c.FetchDocuments(ids)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		for i, id := range ids {
			if string(got[i]) != texts[id] {
				t.Fatalf("depth %d doc %d: fetched %q, want %q", depth, id, got[i], texts[id])
			}
		}
		if st.Runs == 0 || st.QueryBytes == 0 || st.AnswerBytes == 0 {
			t.Fatalf("depth %d: stats not accounted: %+v", depth, st)
		}
	}
}

func TestSetFetchPipelineValidation(t *testing.T) {
	_, c, _ := storeWorld(t, 20, 32)
	if err := c.SetFetchPipeline(0); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if err := c.SetFetchPipeline(maxFetchPipeline + 1); err == nil {
		t.Fatal("oversized depth accepted")
	}
	if err := c.SetFetchPipeline(1); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedRemoteFetchUnderChurn is the end-to-end acceptance of
// the batched wire path: a depth-1 client (type-12 frames of one entry)
// and a deeply pipelined client fetch the same documents over TCP from a
// parallel-serving NetServer while the corpus churns; both must return
// the exact indexed bytes.
func TestPipelinedRemoteFetchUnderChurn(t *testing.T) {
	lemmas := miniLemmas()
	e, _, texts := storeWorld(t, 30, 32)
	var mu sync.Mutex // guards texts
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn: adds + filler deletes, throttled
		defer wg.Done()
		var fillers []int
		for i := 0; i < 20; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			base := e.NextDocID()
			mu.Lock()
			texts[base] = fillerDocText(base, lemmas)
			texts[base+1] = storeDocText(base+1, lemmas)
			docs := []Document{{ID: base, Text: texts[base]}, {ID: base + 1, Text: texts[base+1]}}
			mu.Unlock()
			fillers = append(fillers, base)
			if err := e.AddDocuments(docs); err != nil {
				t.Errorf("churn add: %v", err)
				return
			}
			if len(fillers) > 3 {
				id := fillers[0]
				fillers = fillers[1:]
				if err := e.DeleteDocuments([]int{id}); err != nil {
					t.Errorf("churn delete %d: %v", id, err)
					return
				}
			}
		}
	}()

	type proto struct {
		name  string
		depth int
	}
	clients := []proto{{"sequential", 1}, {"pipelined", 16}}
	conns := make([]net.Conn, len(clients))
	cs := make([]*Client, len(clients))
	for i, p := range clients {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
		c, err := e.NewClient(detrand.New("churn-" + p.name))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetFetchPipeline(p.depth); err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}

	// The base non-filler docs are never deleted: stable fetch targets.
	ids := []int{1, 9, 17, 26}
	totalRuns := 0
	for round := 0; round < 3; round++ {
		var results [][][]byte
		for i, p := range clients {
			got, st, err := cs[i].FetchDocumentsRemote(conns[i], ids)
			if err != nil {
				t.Fatalf("round %d %s fetch: %v", round, p.name, err)
			}
			if st.Runs == 0 {
				t.Fatalf("round %d %s: no runs accounted", round, p.name)
			}
			totalRuns += st.Runs
			results = append(results, got)
		}
		mu.Lock()
		for i, id := range ids {
			if want := texts[id]; string(results[0][i]) != want {
				mu.Unlock()
				t.Fatalf("round %d doc %d: sequential fetched %q, want %q", round, id, results[0][i], want)
			}
			if !bytes.Equal(results[0][i], results[1][i]) {
				mu.Unlock()
				t.Fatalf("round %d doc %d: depths disagree", round, id)
			}
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := int(e.NewNetServer(ServeConfig{}).Stats().Retrievals); got != 0 {
		t.Fatalf("fresh server born with %d retrievals", got) // sanity: counters are per server
	}
	_ = totalRuns // both depths completed; per-server counter checked in TestServeStatsCountRetrievals
}

// onFirstBatch wraps a connection and runs do the instant the first PIR
// batch frame leaves the client — after the client validated its ids
// against Params, before the server sees a query — making a store
// change that races a fetch deterministic.
type onFirstBatch struct {
	net.Conn
	once sync.Once
	do   func()
}

func (o *onFirstBatch) Write(p []byte) (int, error) {
	if len(p) > 0 && p[0] == wire.TypePIRBatchQuery {
		o.once.Do(o.do)
	}
	return o.Conn.Write(p)
}

// TestPipelinedFetchChecksumFailureKeepsConnectionUsable: a document
// deleted between the mapping fetch and its block fetches fails its
// checksum (the server zeroes tombstoned blocks in place); the
// pipelined client must drain the in-flight answers and leave the
// connection at a frame boundary, so the same session keeps searching
// and fetching — the documented reuse contract.
func TestPipelinedFetchChecksumFailureKeepsConnectionUsable(t *testing.T) {
	e, _, texts := storeWorld(t, 25, 32)
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const victim, bystander = 5, 9
	conn := &onFirstBatch{Conn: raw, do: func() {
		if err := e.DeleteDocuments([]int{victim}); err != nil {
			t.Errorf("mid-fetch delete: %v", err)
		}
	}}

	c, err := e.NewClient(detrand.New("drain-client"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFetchPipeline(8); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.FetchDocumentsRemote(conn, []int{victim, bystander})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("mid-fetch delete not surfaced as checksum failure: %v", err)
	}

	// The connection survives: rank and fetch again on the same session.
	lemmas := miniLemmas()
	if _, err := c.SearchRemote(conn, lemmas[1], 3); err != nil {
		t.Fatalf("search after drained fetch failure: %v", err)
	}
	got, _, err := c.FetchDocumentsRemote(conn, []int{bystander})
	if err != nil {
		t.Fatalf("fetch after drained fetch failure: %v", err)
	}
	if string(got[0]) != texts[bystander] {
		t.Fatalf("post-failure fetch returned %q, want %q", got[0], texts[bystander])
	}
}

// TestPIRBatchLimitBudget: batches shrink with the wire cost of one
// seeded query, so a batch frame can never approach the 64 MiB frame cap
// nor expand past the values a server expands a frame to, and wide
// moduli over big stores pick smaller batches instead of failing.
func TestPIRBatchLimitBudget(t *testing.T) {
	if got := pirBatchLimit(16, 100, 64); got != 8 {
		t.Fatalf("small world: limit %d, want depth/2 = 8", got)
	}
	if got := pirBatchLimit(1024, 100, 64); got != wire.MaxPIRBatch {
		t.Fatalf("deep window: limit %d, want wire cap %d", got, wire.MaxPIRBatch)
	}
	if got := pirBatchLimit(1, 100, 64); got != 1 {
		t.Fatalf("depth 1: limit %d, want frames of one query", got)
	}
	// 1024-bit modulus over a 130k-block store: 32.5 KB a seeded query.
	if got := pirBatchLimit(128, 130000, 1024); got != 4 {
		t.Fatalf("huge seeded query: limit %d, want the 4 a frame may expand to", got)
	}
	// The budget must keep every batch whose single query is itself
	// sendable under the frame cap (a query too large to frame at all
	// is unfetchable by any protocol and fails on its own).
	for _, c := range []struct{ depth, values, bits int }{
		{2, 1, 64}, {1024, 1 << 20, 64}, {128, 130000, 1024}, {8, 30413, 64},
	} {
		limit := pirBatchLimit(c.depth, c.values, c.bits)
		if limit < 1 {
			t.Fatalf("limit(%+v) = %d", c, limit)
		}
		if limit*c.values > wire.MaxSeededValues((c.bits+7)/8) {
			t.Fatalf("limit(%+v) = %d seeded vectors expand past the server's bound", c, limit)
		}
		if frame := limit * wire.SeededEntryBytes(c.values, docstore.MaxColumnBytes, c.values-1); frame > wire.MaxFrame/2 {
			t.Fatalf("limit(%+v) = %d admits ~%d-byte frames", c, limit, frame)
		}
	}
}

// TestSeededFetchOfSixBlocksAt600kColumnsIsOneFrame: priced by what the
// writer puts on the wire, a six-block fetch over 600,000 columns —
// wider than the paper's 172,961 documents make a store — is one frame
// at window 16 and so one store pass. Priced as six written-out vectors,
// the same fetch would take three.
func TestSeededFetchOfSixBlocksAt600kColumnsIsOneFrame(t *testing.T) {
	const cols, window = 600000, 16
	key, err := pir.GenerateKey(detrand.New("wide-frame"), 64)
	if err != nil {
		t.Fatal(err)
	}
	small, err := key.NewSeededQuery(detrand.New("wide-frame-q"), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A six-block document as the generator hands it to the writer: a
	// seeded vector and its five rotations. The writer reads only the
	// width of Values, so one slice of unset elements stands in for all
	// six.
	s := &pir.Seed{Key: small.Seed.Key, V: small.Seed.V, Z: small.Seed.Z, Codes: make([]byte, (cols+3)/4)}
	values := make([]*big.Int, cols)
	qs := make(chan *pir.Query, 6)
	for rot := 0; rot < 6; rot++ {
		qs <- &pir.Query{N: key.N, Values: values, Seed: s, Rot: rot}
	}
	close(qs)
	srvConn, cliConn := net.Pipe()
	defer cliConn.Close()
	frames := make(chan int, 6) // one entry count per frame
	go func() {                 // counts the frames and answers every entry
		defer srvConn.Close()
		defer close(frames)
		for {
			typ, body, err := wire.ReadMessage(srvConn)
			if err != nil || typ != wire.TypePIRBatchQuery {
				return
			}
			size, used, _ := vbyte.Decode(body) // the modulus
			count, _, _ := vbyte.Decode(body[used+int(size)+1:])
			frames <- int(count)
			for i := 0; i < int(count); i++ {
				if wire.WritePIRBatchAnswerPacked(srvConn, i, &pir.Answer{Gammas: []*big.Int{big.NewInt(1)}}, key.N) != nil {
					return
				}
			}
		}
	}()
	answers := 0
	err = remotePIR{conn: cliConn, depth: window}.Run(context.Background(), qs, cols, func(wire.PIRAnswerView) error {
		answers++
		return nil
	})
	cliConn.Close()
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for c := range frames {
		counts = append(counts, c)
	}
	if answers != 6 || len(counts) != 1 || counts[0] != 6 {
		t.Fatalf("six blocks over %d columns went out as frames of %v, %d answered: want one frame of six", cols, counts, answers)
	}
}

// TestPIRBatchWriterNilFirstQuery: a nil query at index 0 must be
// refused like any other index, not panic on the modulus read.
func TestPIRBatchWriterNilFirstQuery(t *testing.T) {
	var buf bytes.Buffer
	err := wire.WritePIRBatchQuery(&buf, make([]*pir.Query, 2))
	if err == nil || !strings.Contains(err.Error(), "nil PIR query 0") {
		t.Fatalf("nil first query: %v", err)
	}
}

// frameCounter is a net.Conn that counts the bytes and the frames of each
// type written through it, whatever Write calls they arrive in: a 4-byte
// little-endian length, then a body whose first byte is the type. It
// keeps what was written, for bodies.
type frameCounter struct {
	net.Conn
	up     int
	frames [256]int
	header []byte
	body   uint32 // bytes of the current frame's body still to come
	sent   []byte
}

// bodies returns the bodies of the frames of type typ written so far.
func (f *frameCounter) bodies(typ byte) [][]byte {
	var out [][]byte
	for r := bytes.NewReader(f.sent); ; {
		t, body, err := wire.ReadMessage(r)
		if err != nil {
			return out
		}
		if t == typ {
			out = append(out, body)
		}
	}
}

func (f *frameCounter) Write(p []byte) (int, error) {
	f.up += len(p)
	f.sent = append(f.sent, p...)
	for b := p; len(b) > 0; {
		if f.body > 0 {
			n := min(uint32(len(b)), f.body)
			f.body -= n
			b = b[n:]
			continue
		}
		if f.header = append(f.header, b[0]); len(f.header) == 5 {
			f.frames[f.header[4]]++
			f.body = binary.LittleEndian.Uint32(f.header) - 1
			f.header = f.header[:0]
		}
		b = b[1:]
	}
	return f.Conn.Write(p)
}

// TestFetchFrameScheduleIsDeterministic: how many batch frames a fetch
// ships — and so how many times the server scans the store — is a
// function of the block count and the window, never of which goroutine
// ran first. Six one-block documents are one frame of six at window 16
// and two frames (4 + 2) at the default window of 8, every time.
func TestFetchFrameScheduleIsDeterministic(t *testing.T) {
	e, c, texts := storeWorld(t, 25, 512) // every document fits one block
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	ids := []int{1, 5, 9, 14, 20, 23}
	for _, tc := range []struct{ window, frames int }{{16, 1}, {DefaultFetchPipeline, 2}} {
		if err := c.SetFetchPipeline(tc.window); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 20; rep++ {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			fc := &frameCounter{Conn: conn}
			got, st, err := c.FetchDocumentsRemote(fc, ids)
			conn.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Runs != len(ids) {
				t.Fatalf("window %d: %d PIR runs for %d one-block documents", tc.window, st.Runs, len(ids))
			}
			for i, id := range ids {
				if string(got[i]) != texts[id] {
					t.Fatalf("window %d: doc %d fetched %q, want %q", tc.window, id, got[i], texts[id])
				}
			}
			if n := fc.frames[wire.TypePIRBatchQuery]; n != tc.frames {
				t.Fatalf("window %d, repetition %d: %d batch frames, want %d", tc.window, rep, n, tc.frames)
			}
		}
	}
}

// TestBatchServingAccountsPIRWork: a pipelined client fetching over
// batch frames must receive the stored bytes, and the server must
// account its PIR work on the wire stats: positive mod-mul totals with
// the table products a strict subset of them.
func TestBatchServingAccountsPIRWork(t *testing.T) {
	e, c, texts := storeWorld(t, 25, 32)
	ids := []int{0, 6, 12, 19, 24}
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := c.SetFetchPipeline(16); err != nil {
		t.Fatal(err)
	}
	got, st, err := c.FetchDocumentsRemote(conn, ids)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs == 0 {
		t.Fatal("no runs accounted")
	}
	for i, id := range ids {
		if string(got[i]) != texts[id] {
			t.Fatalf("doc %d: fetched %q, want %q", id, got[i], texts[id])
		}
	}
	ss, err := ServerStats(conn)
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	if ss.PIRModMuls <= 0 {
		t.Fatalf("PIRModMuls = %d, want > 0", ss.PIRModMuls)
	}
	if ss.PIRTableMuls <= 0 || ss.PIRTableMuls >= ss.PIRModMuls {
		t.Fatalf("PIRTableMuls = %d not in (0, %d)", ss.PIRTableMuls, ss.PIRModMuls)
	}
}
