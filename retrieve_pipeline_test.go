package embellish

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/big"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
	"embellish/internal/wire"
)

// onFirstBatch wraps a connection and runs do the instant the first
// query frame of type typ leaves the client — after the client validated
// its ids against Params, before the server sees a query — making a store
// change that races a fetch deterministic. A frame leaves in one Write,
// its type byte after the four-byte length header.
type onFirstBatch struct {
	net.Conn
	typ  byte
	once sync.Once
	do   func()
}

func (o *onFirstBatch) Write(p []byte) (int, error) {
	if len(p) > 4 && p[4] == o.typ {
		o.once.Do(o.do)
	}
	return o.Conn.Write(p)
}

// TestPipelinedFetchChecksumFailureKeepsConnectionUsable: a document
// deleted between the mapping fetch and its block fetches fails its
// checksum (the server zeroes tombstoned blocks in place); the client
// must read the rest of the frame's answers and leave the connection at
// a frame boundary, so the same session keeps searching and fetching —
// the documented reuse contract.
func TestPipelinedFetchChecksumFailureKeepsConnectionUsable(t *testing.T) {
	e, _, texts := storeWorld(t, 25, 32, Durability{})
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const victim, bystander = 5, 9
	conn := &onFirstBatch{Conn: raw, typ: wire.TypePIRBatchQuery, do: func() {
		if err := e.DeleteDocuments([]int{victim}); err != nil {
			t.Errorf("mid-fetch delete: %v", err)
		}
	}}

	c, err := e.NewClient(detrand.New("drain-client"))
	if err != nil {
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

// TestPIRBatchLimitBudget: a fetch's frames take as many queries as fit
// the wire's batch cap, the values a server expands a seeded frame to, and
// 16 MiB of frame bytes and of answers — so wide moduli over big stores
// and tall columns shrink a frame instead of failing, and nothing else
// cuts one.
func TestPIRBatchLimitBudget(t *testing.T) {
	// A fetch's queries: docs documents of cols columns each, over a view
	// width columns wide, answers of answer bytes.
	fetch := func(docs, cols, width, answer int) []queryCost {
		var costs []queryCost
		for range docs {
			for j := range cols {
				costs = append(costs, queryCost{entry: wire.SeededEntryBytes(width, 1, j), values: width, answer: answer, rotates: j > 0})
			}
		}
		return costs
	}
	seeded64 := wire.MaxSeededValues(8)
	for _, c := range []struct {
		name         string
		costs        []queryCost
		most, values int
		want         []int
	}{
		{"six one-column documents", fetch(6, 1, 100, 8*512*8), wire.MaxPIRBatch, seeded64, []int{6}},
		{"past the batch cap", fetch(65, 1, 100, 8*512*8), wire.MaxPIRBatch, seeded64, []int{64, 1}},
		{"one document at the batch cap", fetch(1, 64, 100, 8*512*8), wire.MaxPIRBatch, seeded64, []int{64}},
		// 1024-bit modulus over a 130k-column view: four vectors expand to
		// what a frame may, but a vector's rotations expand to nothing.
		{"huge seeded vectors", fetch(6, 1, 130000, 8*512*128), wire.MaxPIRBatch, wire.MaxSeededValues(128), []int{4, 2}},
		{"huge seeded vector rotated", fetch(1, 6, 130000, 8*512*128), wire.MaxPIRBatch, wire.MaxSeededValues(128), []int{6}},
		// The default 512-bit key over columns of MaxColumnBytes: a 4 MB
		// answer each, so four a frame.
		{"tall columns, wide key", fetch(1, 6, 100, 8*docstore.MaxColumnBytes*64), wire.MaxPIRBatch, wire.MaxSeededValues(64), []int{4, 2}},
		{"recursive cap", make([]queryCost, 20), wire.MaxPIRRecursiveBatch, 0, []int{16, 4}},
		{"an answer past the budget alone", []queryCost{{answer: 20 << 20}, {answer: 20 << 20}}, wire.MaxPIRBatch, 0, []int{1, 1}},
	} {
		got := frameSizes(c.costs, c.most, c.values)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: frames of %v, want %v", c.name, got, c.want)
		}
		// Every frame of more than one query keeps within every budget.
		at := 0
		for _, n := range got {
			bytes, values, answers := 0, 0, 0
			for i, q := range c.costs[at : at+n] {
				if q.rotates && i > 0 {
					q.entry, q.values = 1, 0
				}
				bytes, values, answers = bytes+q.entry, values+q.values, answers+q.answer
			}
			if n > 1 && (n > c.most || bytes > maxPIRBatchFrameBytes || values > c.values || answers > maxPIRBatchFrameBytes) {
				t.Errorf("%s: a frame of %d queries holds %d bytes, %d values and %d answer bytes", c.name, n, bytes, values, answers)
			}
			at += n
		}
	}
}

// TestSeededFetchOfSixBlocksAt600kColumnsIsOneFrame: priced by what the
// writer puts on the wire, a six-block fetch over 600,000 columns —
// wider than the paper's 172,961 documents make a store — is one frame,
// and so one store pass: the frame loop sends the six queries frameSizes
// cuts into one frame together and reads back their six answers.
func TestSeededFetchOfSixBlocksAt600kColumnsIsOneFrame(t *testing.T) {
	const cols = 600000
	key, err := pir.GenerateKey(detrand.New("wide-frame"), 64)
	if err != nil {
		t.Fatal(err)
	}
	small, err := key.NewSeededQuery(detrand.New("wide-frame-q"), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A six-block document as fetchVia builds it: a seeded vector and its
	// five rotations. The writer reads only the width of Values, so one
	// slice of unset elements stands in for all six.
	s := &pir.Seed{Key: small.Seed.Key, V: small.Seed.V, Z: small.Seed.Z, Codes: make([]byte, (cols+3)/4)}
	values := make([]*big.Int, cols)
	var qs []*pir.Query
	var costs []queryCost
	for rot := 0; rot < 6; rot++ {
		qs = append(qs, &pir.Query{N: key.N, Values: values, Seed: s, Rot: rot, Height: 1})
		costs = append(costs, queryCost{entry: wire.SeededEntryBytes(cols, 1, rot), values: cols, answer: key.AnswerBytes(8 * 1024), rotates: rot > 0})
	}
	sizes := frameSizes(costs, wire.MaxPIRBatch, wire.MaxSeededValues((key.N.BitLen()+7)/8))
	srvConn, cliConn := net.Pipe()
	defer cliConn.Close()
	frames := make(chan int, 6) // one entry count per frame
	one := big.NewInt(1).FillBytes(make([]byte, (key.N.BitLen()+7)/8))
	go func() { // counts the frames and answers every entry
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
				if wire.WritePIRBatchAnswerPacked(srvConn, i, &pir.Answer{Width: len(one), Image: one}, key.N) != nil {
					return
				}
			}
		}
	}()
	answers := 0
	err = exchange(context.Background(), cliConn, sizes, func(i int) (*pir.Query, error) { return qs[i], nil },
		wire.WritePIRBatchQuery, func(wire.PIRAnswerView) error {
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
	if answers != 6 || len(counts) != 1 || counts[0] != 6 || !slices.Equal(sizes, []int{6}) {
		t.Fatalf("six blocks over %d columns went out as frames of %v (cut %v), %d answered: want one frame of six", cols, counts, sizes, answers)
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
// function of its queries alone. Six one-block documents are one frame of
// six, every time.
func TestFetchFrameScheduleIsDeterministic(t *testing.T) {
	e, c, texts := storeWorld(t, 25, 512, Durability{}) // every document fits one block
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	ids := []int{1, 5, 9, 14, 20, 23}
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
			t.Fatalf("%d PIR runs for %d one-block documents", st.Runs, len(ids))
		}
		for i, id := range ids {
			if string(got[i]) != texts[id] {
				t.Fatalf("doc %d fetched %q, want %q", id, got[i], texts[id])
			}
		}
		if n := fc.frames[wire.TypePIRBatchQuery]; n != 1 {
			t.Fatalf("repetition %d: %d batch frames, want 1", rep, n)
		}
	}
}

// TestBatchServingAccountsPIRWork: a client fetching over
// batch frames must receive the stored bytes, and the server must
// account its PIR work on the wire stats: positive mod-mul totals with
// the table products a strict subset of them.
func TestBatchServingAccountsPIRWork(t *testing.T) {
	e, c, texts := storeWorld(t, 25, 32, Durability{})
	ids := []int{0, 6, 12, 19, 24}
	addr := startRetrievalServer(t, e, ServeConfig{AllowRetrieval: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
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
