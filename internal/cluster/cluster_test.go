// The cluster battery: a three-partition router fronting real worker
// processes (in-process NetServers over TCP loopback), proven
// byte-transparent against a single-process reference engine that was
// fed the exact same corpus. The tests cover the full serving surface
// (single queries, batches, PIR document fetches, admin updates,
// stats, the cluster map), WAL-shipped replica catch-up, and failover:
// a partition primary dies mid-traffic and every answer keeps coming
// back bit-identical via its replica.
package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"embellish"
	"embellish/internal/cluster"
	"embellish/internal/detrand"
	"embellish/internal/wire"
	"embellish/internal/wordnet"
)

// templateDocs is the template corpus size — Config.Base for every
// router in the battery.
const templateDocs = 24

func lemmaList() []string {
	db := wordnet.MiniLexicon()
	var lemmas []string
	for _, tm := range db.AllTerms() {
		lemmas = append(lemmas, db.Lemma(tm))
	}
	return lemmas
}

// docText mirrors the root package's store-world fixture: the same id
// always yields the same bytes, so the reference engine and the
// cluster can be grown identically from two independent call sites.
func docText(id int, lemmas []string) string {
	var b strings.Builder
	for j := 0; j < 3+id%3; j++ {
		b.WriteString(lemmas[1+(id*5+j*3)%24])
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "#doc-%d", id)
	return b.String()
}

// tmpl caches the shared template engine file: building it costs two
// keypairs, and every engine in the battery loads the SAME bytes —
// which is the cluster's identity contract, not just a test shortcut.
var tmpl struct {
	once  sync.Once
	raw   []byte
	texts map[int]string
	err   error
}

func templateEngine(t *testing.T) ([]byte, map[int]string) {
	t.Helper()
	tmpl.once.Do(func() { tmpl.raw, tmpl.texts, tmpl.err = buildTemplate(128) })
	if tmpl.err != nil {
		t.Fatalf("building template engine: %v", tmpl.err)
	}
	return tmpl.raw, tmpl.texts
}

// buildTemplate builds and serializes a template engine of templateDocs
// documents at the given PIR block size: 128 holds every document in one
// block, 16 spreads each over three or four.
func buildTemplate(blockSize int) ([]byte, map[int]string, error) {
	lemmas := lemmaList()
	texts := make(map[int]string, templateDocs)
	docs := make([]embellish.Document, templateDocs)
	for i := range docs {
		texts[i] = docText(i, lemmas)
		docs[i] = embellish.Document{ID: i, Text: texts[i]}
	}
	opts := embellish.DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.StoreDocuments = true
	opts.BlockSize = blockSize
	opts.RetrievalKeyBits = 96
	e, err := embellish.NewEngine(embellish.MiniLexicon(), docs, opts)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), texts, nil
}

// loadEngine loads one cluster member from the template bytes. Merges
// are disabled everywhere: with one segment per ingested document,
// per-segment statistics — and therefore score ciphertexts — cannot
// depend on which engine holds the document.
func loadEngine(t *testing.T, raw []byte, durable bool) *embellish.Engine {
	t.Helper()
	e, err := embellish.LoadEngine(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("loading template: %v", err)
	}
	if err := e.ConfigureMergePolicy(-1); err != nil {
		t.Fatal(err)
	}
	if durable {
		d := embellish.Durability{Dir: t.TempDir(), Fsync: embellish.FsyncEveryRecord, CheckpointEveryOps: -1, CheckpointEveryBytes: -1}
		if err := e.EnableDurability(d); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func serve(t *testing.T, e *embellish.Engine, cfg embellish.ServeConfig) (string, *embellish.NetServer) {
	t.Helper()
	srv := e.NewNetServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return l.Addr().String(), srv
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// world is one running battery: a reference engine and a 3-partition
// cluster (partition 1 carrying a WAL-shipped replica), all loaded
// from the same template file.
type world struct {
	lemmas []string
	texts  map[int]string

	ref     *embellish.Engine
	refConn net.Conn
	client  *embellish.Client

	workers     []*embellish.Engine
	workerSrvs  []*embellish.NetServer
	workerAddrs []string

	replica     *embellish.Engine
	replicaAddr string

	router     *cluster.Router
	routerAddr string
	routerConn net.Conn
}

func newWorld(t *testing.T) *world {
	t.Helper()
	raw, texts := templateEngine(t)
	w := &world{lemmas: lemmaList(), texts: make(map[int]string, len(texts))}
	for id, txt := range texts {
		w.texts[id] = txt
	}

	w.ref = loadEngine(t, raw, false)
	refAddr, _ := serve(t, w.ref, embellish.ServeConfig{AllowUpdates: true, AllowRetrieval: true})
	w.refConn = dial(t, refAddr)
	client, err := w.ref.NewClient(detrand.New("cluster-battery"))
	if err != nil {
		t.Fatal(err)
	}
	w.client = client

	for i := 0; i < 3; i++ {
		e := loadEngine(t, raw, true)
		addr, srv := serve(t, e, embellish.ServeConfig{AllowUpdates: true, AllowRetrieval: true, AllowReplication: true})
		w.workers = append(w.workers, e)
		w.workerSrvs = append(w.workerSrvs, srv)
		w.workerAddrs = append(w.workerAddrs, addr)
	}
	w.replica = loadEngine(t, raw, true)
	w.replicaAddr, _ = serve(t, w.replica, embellish.ServeConfig{AllowRetrieval: true})

	r, err := cluster.NewRouter(cluster.Config{
		Base: templateDocs,
		Partitions: []cluster.Partition{
			{Endpoints: []string{w.workerAddrs[0]}},
			{Endpoints: []string{w.workerAddrs[1], w.replicaAddr}},
			{Endpoints: []string{w.workerAddrs[2]}},
		},
		Deadline: 5 * time.Second,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.router = r
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(l)
	t.Cleanup(func() { r.Shutdown(context.Background()) })
	w.routerAddr = l.Addr().String()
	w.routerConn = dial(t, w.routerAddr)
	return w
}

// grow retires the template corpus and ingests n fresh documents —
// through the router on the cluster side, directly over the wire on
// the reference side — one document per frame, so every engine ends up
// with one segment per document and identical per-segment statistics.
func (w *world) grow(t *testing.T, n int) {
	t.Helper()
	ids := make([]int, templateDocs)
	for i := range ids {
		ids[i] = i
	}
	if _, err := embellish.DeleteDocumentsRemote(w.routerConn, ids); err != nil {
		t.Fatalf("deleting template corpus via router: %v", err)
	}
	if _, err := embellish.DeleteDocumentsRemote(w.refConn, ids); err != nil {
		t.Fatalf("deleting template corpus on reference: %v", err)
	}
	for g := templateDocs; g < templateDocs+n; g++ {
		text := docText(g, w.lemmas)
		w.texts[g] = text
		doc := []embellish.Document{{ID: g, Text: text}}
		if _, err := embellish.AddDocumentsRemote(w.routerConn, doc); err != nil {
			t.Fatalf("adding doc %d via router: %v", g, err)
		}
		if _, err := embellish.AddDocumentsRemote(w.refConn, doc); err != nil {
			t.Fatalf("adding doc %d on reference: %v", g, err)
		}
	}
}

// queries returns three embellishable probes drawn from the searchable
// dictionary; every searchable lemma occurs in both the template and
// the grown corpus, so the candidate sets are never trivially empty.
func (w *world) queries() []string {
	s := w.ref.SearchableLemmas()
	return []string{
		s[0] + " " + s[1],
		s[len(s)/2],
		s[len(s)/3] + " " + s[2*len(s)/3],
	}
}

func sendQueryFrame(t *testing.T, conn net.Conn, frame []byte) []wire.Candidate {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ == wire.TypeError {
		t.Fatalf("query refused: %s", body)
	}
	if typ != wire.TypeResponse {
		t.Fatalf("unexpected response type %d", typ)
	}
	cands, _, err := wire.DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func compareCands(t *testing.T, label string, ref, got []wire.Candidate) {
	t.Helper()
	if len(ref) == 0 {
		t.Fatalf("%s: empty reference candidate set proves nothing", label)
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: %d candidates via router, %d via reference", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i].Doc != ref[i].Doc || got[i].Enc.Cmp(ref[i].Enc) != 0 {
			t.Fatalf("%s: candidate %d diverges (doc %d via router, %d via reference)",
				label, i, got[i].Doc, ref[i].Doc)
		}
	}
}

// teeConn records both directions of a client exchange so the exact
// request bytes can be replayed against the router and the recorded
// reference response decoded for comparison.
type teeConn struct {
	inner io.ReadWriter
	wrote bytes.Buffer
	read  bytes.Buffer
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.read.Write(p[:n])
	return n, err
}

func (c *teeConn) Write(p []byte) (int, error) {
	c.wrote.Write(p)
	return c.inner.Write(p)
}

// identicalRound is the transparency proof: the same embellished query
// frame goes to the reference engine and to the router, and the
// candidate responses must agree ciphertext for ciphertext; a recorded
// batch frame replays identically; and PIR document fetches return the
// ground-truth bytes from both.
func (w *world) identicalRound(t *testing.T, routerConn net.Conn, fetchIDs []int) {
	t.Helper()
	for _, q := range w.queries() {
		eq, err := w.client.Embellish(q)
		if err != nil {
			t.Fatalf("embellishing %q: %v", q, err)
		}
		frame, err := eq.WireFrame()
		if err != nil {
			t.Fatal(err)
		}
		refCands := sendQueryFrame(t, w.refConn, frame)
		gotCands := sendQueryFrame(t, routerConn, frame)
		compareCands(t, fmt.Sprintf("query %q", q), refCands, gotCands)
	}

	// Batch: run it for real against the reference through a tee, then
	// replay the identical request bytes at the router.
	tee := &teeConn{inner: w.refConn}
	if _, err := w.client.SearchRemoteBatch(tee, w.queries(), 10); err != nil {
		t.Fatalf("reference batch: %v", err)
	}
	if _, err := routerConn.Write(tee.wrote.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(routerConn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeBatchResponse {
		t.Fatalf("batch replay answered type %d: %s", typ, body)
	}
	gotBatch, _, err := wire.DecodeBatchResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	rtyp, rbody, err := wire.ReadMessage(&tee.read)
	if err != nil || rtyp != wire.TypeBatchResponse {
		t.Fatalf("recorded reference response type %d err %v", rtyp, err)
	}
	refBatch, _, err := wire.DecodeBatchResponse(rbody)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotBatch) != len(refBatch) {
		t.Fatalf("batch answered %d queries via router, %d via reference", len(gotBatch), len(refBatch))
	}
	for qi := range refBatch {
		compareCands(t, fmt.Sprintf("batch query %d", qi), refBatch[qi], gotBatch[qi])
	}

	// PIR fetches: the router's column-partitioned combine must hand
	// back the exact stored bytes, same as the reference.
	refDocs, _, err := w.client.FetchDocumentsRemote(w.refConn, fetchIDs)
	if err != nil {
		t.Fatalf("reference fetch %v: %v", fetchIDs, err)
	}
	gotDocs, _, err := w.client.FetchDocumentsRemote(routerConn, fetchIDs)
	if err != nil {
		t.Fatalf("router fetch %v: %v", fetchIDs, err)
	}
	for i, id := range fetchIDs {
		if string(refDocs[i]) != w.texts[id] {
			t.Fatalf("reference fetched doc %d mangled: %q", id, refDocs[i])
		}
		if !bytes.Equal(gotDocs[i], refDocs[i]) {
			t.Fatalf("router fetched doc %d differs from reference: %q vs %q", id, gotDocs[i], refDocs[i])
		}
	}
}

func TestClusterByteIdentity(t *testing.T) {
	w := newWorld(t)

	// Round 1: the template corpus lives on EVERY partition; the merge
	// must take each document from its owner exactly once. Fetch ids
	// cover all three owners.
	w.identicalRound(t, w.routerConn, []int{3, 10, 17})

	// Round 2: retire the template corpus, grow a round-robin
	// partitioned one, and prove transparency again — deletes fanned
	// everywhere, adds routed to owners, ids rewritten both ways.
	w.grow(t, 18)
	w.identicalRound(t, w.routerConn, []int{24, 25, 26, 41})

	// The cluster map the router serves matches the topology.
	if err := wire.WriteClusterMapRequest(w.routerConn); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(w.routerConn)
	if err != nil || typ != wire.TypeClusterMap {
		t.Fatalf("cluster map answered type %d err %v", typ, err)
	}
	m, err := wire.DecodeClusterMap(body)
	if err != nil {
		t.Fatal(err)
	}
	if m.Base != templateDocs || len(m.Partitions) != 3 || len(m.Partitions[1]) != 2 {
		t.Fatalf("cluster map mangled: %+v", m)
	}

	// Aggregated stats: partition counters summed, the router's own
	// appended fields filled, durability an AND over partitions.
	st, err := embellish.ServerStats(w.routerConn)
	if err != nil {
		t.Fatal(err)
	}
	if st.RouterPartitions != 3 {
		t.Fatalf("RouterPartitions %d, want 3", st.RouterPartitions)
	}
	if st.Queries == 0 || st.Updates == 0 || st.Retrievals == 0 {
		t.Fatalf("aggregated counters empty: %+v", st)
	}
	if !st.Durable || st.WALSeq == 0 {
		t.Fatalf("durable workers not reflected: durable=%v walseq=%d", st.Durable, st.WALSeq)
	}

	// An unknown frame type is refused in place; the connection
	// survives for the next request.
	junk := dial(t, w.routerAddr)
	if err := wire.WriteRaw(junk, 99, nil); err != nil {
		t.Fatal(err)
	}
	typ, body, err = wire.ReadMessage(junk)
	if err != nil || typ != wire.TypeError || !strings.Contains(string(body), wire.UnknownTypeRefusal) {
		t.Fatalf("unknown type answered %d %q err %v", typ, body, err)
	}
	if _, err := embellish.ServerStats(junk); err != nil {
		t.Fatalf("connection did not survive refusal: %v", err)
	}

	// Template ids are pinned at build time: re-adding below Base is a
	// routing error, relayed without touching any partition.
	if _, err := embellish.AddDocumentsRemote(junk, []embellish.Document{{ID: 5, Text: "x"}}); err == nil ||
		!strings.Contains(err.Error(), "below the partition base") {
		t.Fatalf("below-base add: %v", err)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := cluster.NewRouter(cluster.Config{}); err == nil {
		t.Fatal("empty topology accepted")
	}
	if _, err := cluster.NewRouter(cluster.Config{Partitions: []cluster.Partition{{}}}); err == nil {
		t.Fatal("endpointless partition accepted")
	}
	if _, err := cluster.NewRouter(cluster.Config{
		Base:       -1,
		Partitions: []cluster.Partition{{Endpoints: []string{"127.0.0.1:1"}}},
	}); err == nil {
		t.Fatal("negative base accepted")
	}
}

func TestClusterReplicaCatchUpAndFailover(t *testing.T) {
	w := newWorld(t)
	w.grow(t, 18)

	// Warm the replica from the partition-1 primary over the wire: one
	// template-delete record plus the six documents partition 1 owns.
	rep := &cluster.Replica{Engine: w.replica, Primary: w.workerAddrs[1]}
	applied, err := rep.CatchUp(context.Background())
	if err != nil {
		t.Fatalf("replica catch-up: %v", err)
	}
	if applied != 7 {
		t.Fatalf("replica applied %d ops, want 7", applied)
	}
	ws, _ := w.workers[1].WALStatus()
	rs, _ := w.replica.WALStatus()
	if ws.Seq != rs.Seq {
		t.Fatalf("replica at seq %d, primary at %d", rs.Seq, ws.Seq)
	}
	if seq, ok := rep.PrimarySeq(); !ok || seq != ws.Seq {
		t.Fatalf("replica's view of primary: %d (%v), want %d", seq, ok, ws.Seq)
	}
	if w.replica.NumDocs() != w.workers[1].NumDocs() {
		t.Fatalf("replica holds %d docs, primary %d", w.replica.NumDocs(), w.workers[1].NumDocs())
	}

	// Keep queries in flight from several connections while the
	// partition-1 primary is killed: every request must still answer.
	clients := make([]*embellish.Client, 3)
	conns := make([]net.Conn, 3)
	for i := range clients {
		c, err := w.ref.NewClient(detrand.New(fmt.Sprintf("flood-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		conns[i] = dial(t, w.routerAddr)
	}
	q := w.queries()[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := clients[i].SearchRemote(conns[i], q, 5); err != nil {
					t.Errorf("in-flight query failed across the kill: %v", err)
					return
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	killed, cancel := context.WithCancel(context.Background())
	cancel() // force-close: a SIGKILL, not a drain
	w.workerSrvs[1].Shutdown(killed)
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// With the primary gone, partition 1 is served by the caught-up
	// replica — and the cluster remains bit-identical to the reference,
	// PIR fetches of partition-1 documents included.
	conn := dial(t, w.routerAddr)
	w.identicalRound(t, conn, []int{25, 28, 40})

	st := w.router.Stats()
	if st.Failovers == 0 || st.PartitionFailovers[1] == 0 {
		t.Fatalf("no failovers recorded: %+v", st)
	}
	if st.PartitionFailovers[0] != 0 || st.PartitionFailovers[2] != 0 {
		t.Fatalf("healthy partitions failed over: %+v", st.PartitionFailovers)
	}
	agg, err := embellish.ServerStats(conn)
	if err != nil {
		t.Fatalf("stats with a dead primary: %v", err)
	}
	if agg.RouterFailovers == 0 || agg.RouterPartitions != 3 {
		t.Fatalf("router counters missing from aggregated stats: %+v", agg)
	}
}

// TestClusterDecoyStream: a decoy-streaming session behind the router
// gets the single-process ranking, and every decoy frame reaches every
// partition as a decoy — the aggregated DecoyQueries is decoy frames
// times partitions.
func TestClusterDecoyStream(t *testing.T) {
	w := newWorld(t)
	stream, err := w.client.NewDecoyStream(embellish.DecoyStreamConfig{GhostRate: 3, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.queries() {
		want, err := w.client.SearchRemote(w.refConn, q, 10)
		if err != nil {
			t.Fatalf("reference search %q: %v", q, err)
		}
		got, err := stream.SearchRemote(context.Background(), w.routerConn, q, 10)
		if err != nil {
			t.Fatalf("decoy-streamed search %q via router: %v", q, err)
		}
		if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %q: router ranking %v, single process %v", q, got, want)
		}
	}
	sent := stream.Stats()
	if sent.Decoys != 3*int64(len(w.queries())) || sent.Skipped != 0 {
		t.Fatalf("stream sent %+v, want %d decoys and none skipped", sent, 3*len(w.queries()))
	}
	st, err := embellish.ServerStats(w.routerConn)
	if err != nil {
		t.Fatal(err)
	}
	if st.DecoyQueries != 3*sent.Decoys {
		t.Fatalf("aggregated DecoyQueries %d, want %d decoy frames x 3 partitions", st.DecoyQueries, sent.Decoys)
	}
}
