package embellish

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embellish/internal/detrand"
	"embellish/internal/docstore"
)

// TestSimulation is the single-node oracle. Each seed drives one
// seeded schedule over one durable, store-backed engine and its
// NetServer; the seed alone picks every step and its arguments. A
// plaintext model keeps one version per acknowledged operation, indexed
// by its journal sequence number: the live ids, NextDocID, and a
// Snapshot pinned as the operation returned, whose PlaintextSearch is
// the Claim 1 reference. Document texts are a function of the id. After
// every step the engine must match the version at its sequence:
//   - Claim 1 over TCP;
//   - LiveDocIDs and NextDocID;
//   - Document and PIR-fetched bytes for a seeded sample of live ids
//     (over TCP for all of them after a recovery and at the end), and
//     tombstoned ids refused by both;
//   - the replica matches the version at its own sequence.
//
// A crash freezes the durable directory while the following steps run.
// The schedule continues on the engine recovered from the frozen copy,
// which must hold every write acknowledged before the freeze began; the
// model rolls back to the recovered sequence. One local and one TCP
// reader search and fetch throughout, and each ranking must equal the
// plaintext ranking of a state published while the read ran. A failure
// names its seed, step and step kind; replay it with
// -run 'TestSimulation/seed=N'.
func TestSimulation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			newSim(t, seed).run(40)
		})
	}
}

const (
	simBaseDocs = 30
	// simLongID fills two columns of the tallest view, which travel as a
	// vector and its rotation; simEmptyID has no column at all. Both are
	// the schedule's first acknowledged operation.
	simLongID  = simBaseDocs
	simEmptyID = simBaseDocs + 1
)

// simKinds weights the step kinds: the seed draws one entry per step.
var simKinds = []string{
	"add", "add", "add", "add", "add", "delete", "delete", "delete",
	"compact", "compact", "query", "query", "fetch", "fetch",
	"checkpoint", "checkpoint", "crash", "crash", "pull", "pull", "cancel",
}

// simDeletable reports whether the schedule may ever delete id. The
// concurrent readers fetch only ids it never deletes.
func simDeletable(id int) bool { return id%3 == 2 }

func simText(id int, lemmas []string) string {
	switch id {
	case simEmptyID:
		return ""
	case simLongID:
		var b strings.Builder
		b.WriteString(storeDocText(id, lemmas))
		for b.Len() <= docstore.Heights(32)*32+100 {
			b.WriteString(" " + lemmas[2+b.Len()%20])
		}
		return b.String()
	}
	return storeDocText(id, lemmas)
}

// simClient is a client of e fetching with storeWorld's PIR key size,
// which a recovered engine does not carry.
func simClient(e *Engine, name string) (*Client, error) {
	c, err := e.NewClient(detrand.New(name))
	if err == nil {
		err = c.SetRetrievalKeyBits(96)
	}
	return c, err
}

// readDocs reads ids one by one, shaped like a fetch.
func readDocs(doc func(int) ([]byte, error), ids []int) ([][]byte, FetchStats, error) {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		var err error
		if out[i], err = doc(id); err != nil {
			return nil, FetchStats{}, err
		}
	}
	return out, FetchStats{}, nil
}

// simVersion is the model after one acknowledged operation.
type simVersion struct {
	live []int // ascending
	next int
	snap *Snapshot
}

// simWorld is one primary's lifetime: the build, or one recovery.
type simWorld struct {
	e    *Engine
	dir  string
	addr string
	conn net.Conn // the schedule's own connection and client
	c    *Client
	// dials, queries and updates are what the server must have counted.
	dials, queries, updates atomic.Int64
}

func (w *simWorld) dial() (net.Conn, error) {
	conn, err := net.Dial("tcp", w.addr)
	if err == nil {
		w.dials.Add(1)
	}
	return conn, err
}

// simRead is one reader's ranking and the indices of the published
// states current when it started and when it ended.
type simRead struct {
	who, query string
	got        []Result
	from, to   int
}

// simCrash is a freeze in flight: the copy lands on frozen.
type simCrash struct {
	acked  uint64
	frozen chan string
}

type sim struct {
	t          *testing.T
	seed       int64
	rng        *rand.Rand
	lemmas     []string
	queries    []string
	step       int
	kind       string
	w          *simWorld
	worlds     []*simWorld
	current    atomic.Pointer[simWorld]
	versions   []simVersion // versions[seq]
	replica    *Engine
	crash      *simCrash
	mu         sync.Mutex // guards pub and reads
	pub        []*Snapshot
	reads      []simRead
	stop       chan struct{}
	readerDone sync.WaitGroup
}

func newSim(t *testing.T, seed int64) *sim {
	s := &sim{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), lemmas: miniLemmas(), kind: "setup"}
	for i := 1; i <= 24; i += 2 {
		s.queries = append(s.queries, s.lemmas[i]+" "+s.lemmas[1+(i*7)%24])
	}
	dir := t.TempDir()
	e, _, _ := storeWorld(t, simBaseDocs, 32, durableOpts(dir))
	base := simVersion{next: simBaseDocs, snap: e.Snapshot()}
	for id := range simBaseDocs {
		base.live = append(base.live, id)
	}
	s.versions = []simVersion{base}
	s.enter(e, dir)
	s.apply([]Document{{ID: simLongID, Text: simText(simLongID, s.lemmas)}, {ID: simEmptyID}}, false)
	sn, err := e.storeSnapshot()
	s.ok(err, "store snapshot")
	if _, _, k := sn.Layout().Place(simLongID); k != 2 {
		s.fatalf("the long document fills %d columns, want 2", k)
	}
	s.reseedReplica()
	return s
}

func (s *sim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d step %d (%s): %s", s.seed, s.step, s.kind, fmt.Sprintf(format, args...))
}

func (s *sim) ok(err error, format string, args ...any) {
	s.t.Helper()
	if err != nil {
		s.fatalf("%s: %v", fmt.Sprintf(format, args...), err)
	}
}

func (s *sim) head() simVersion { return s.versions[len(s.versions)-1] }
func (s *sim) seq() uint64      { return uint64(len(s.versions) - 1) }
func (s *sim) query() string    { return s.queries[s.rng.Intn(len(s.queries))] }

// sample draws up to n distinct ids from ids.
func (s *sim) sample(ids []int, n int) []int {
	var out []int
	for _, i := range s.rng.Perm(len(ids))[:min(n, len(ids))] {
		out = append(out, ids[i])
	}
	return out
}

// dead returns the tombstoned ids.
func (v simVersion) dead() []int {
	var ids []int
	for id := range v.next {
		if _, live := slices.BinarySearch(v.live, id); !live {
			ids = append(ids, id)
		}
	}
	return ids
}

func (s *sim) reference(snap *Snapshot, query string) []Result {
	s.t.Helper()
	want, err := snap.PlaintextSearch(query, 0)
	s.ok(err, "PlaintextSearch(%q)", query)
	return want
}

// claim1 returns the check that a private ranking of query equals want.
func (s *sim) claim1(what, query string, want []Result) func([]Result, error) {
	return func(got []Result, err error) {
		s.t.Helper()
		s.ok(err, "%s %q", what, query)
		if !claim1Holds(got, want) {
			s.fatalf("%s %q: private %v, plaintext %v", what, query, got, want)
		}
	}
}

// texts returns the check that a read of ids returned their texts.
func (s *sim) texts(what string, ids []int) func([][]byte, FetchStats, error) {
	return func(got [][]byte, _ FetchStats, err error) {
		s.t.Helper()
		s.ok(err, "%s %v", what, ids)
		for i, id := range ids {
			if want := simText(id, s.lemmas); string(got[i]) != want {
				s.fatalf("%s doc %d = %q, want %q", what, id, got[i], want)
			}
		}
	}
}

func (s *sim) publish(snap *Snapshot) {
	s.mu.Lock()
	s.pub = append(s.pub, snap)
	s.mu.Unlock()
}

func (s *sim) published() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pub)
}

// enter makes e, journaling to dir, the primary the schedule and the
// readers drive.
func (s *sim) enter(e *Engine, dir string) {
	s.t.Cleanup(func() { e.Close() })
	s.ok(e.ConfigureMergePolicy(3), "merge policy")
	w := &simWorld{e: e, dir: dir}
	w.addr = startRetrievalServer(s.t, e, ServeConfig{AllowUpdates: true, AllowRetrieval: true, AllowReplication: true})
	var err error
	w.conn, err = w.dial()
	s.ok(err, "dial")
	s.t.Cleanup(func() { w.conn.Close() })
	w.c, err = simClient(e, fmt.Sprintf("sim-%d-%d", s.seed, len(s.worlds)))
	s.ok(err, "client")
	s.w = w
	s.worlds = append(s.worlds, w)
	// Readers take their start index before they load the world, so
	// storing the world before publishing its state keeps every read of
	// the new engine bracketing that state.
	s.current.Store(w)
	s.publish(e.Snapshot())
}

// acked records the version an acknowledged operation produced.
func (s *sim) acked(live []int, next int) {
	snap := s.w.e.Snapshot()
	s.versions = append(s.versions, simVersion{live: live, next: next, snap: snap})
	s.publish(snap)
}

func (s *sim) run(steps int) {
	s.stop = make(chan struct{})
	s.readerDone.Add(2)
	go s.reader(s.stop, false)
	go s.reader(s.stop, true)
	defer func() {
		s.stopReaders()
		if s.crash != nil {
			<-s.crash.frozen
		}
	}()
	steppers := map[string]func(){
		"add": s.add, "delete": s.delete, "compact": s.compact, "query": s.batchQuery,
		"fetch": s.fetch, "checkpoint": s.checkpoint, "crash": s.crashOrRecover,
		"pull": s.pull, "cancel": s.cancel,
	}
	for s.step = 1; s.step <= steps; s.step++ {
		s.kind = simKinds[s.rng.Intn(len(simKinds))]
		steppers[s.kind]()
		s.check()
	}
	s.kind = "final"
	if s.crash != nil {
		s.recover()
	}
	s.stopReaders()
	s.check()
	s.sweep()
	s.checkCounters()
}

func (s *sim) stopReaders() {
	if s.stop != nil {
		close(s.stop)
		s.stop = nil
		s.readerDone.Wait()
	}
}

// apply adds docs, locally or through the admin frames, while a watcher
// reads their bytes the instant the index publishes them: a document a
// searcher can rank must already be fetchable.
func (s *sim) apply(docs []Document, remote bool) {
	e, v := s.w.e, s.head()
	done, watched := make(chan struct{}), make(chan error, 1)
	go func() {
		for e.NextDocID() <= docs[0].ID {
			select {
			case <-done:
				watched <- nil
				return
			default:
				runtime.Gosched()
			}
		}
		for _, d := range docs {
			if got, err := e.Document(d.ID); err != nil || string(got) != d.Text {
				watched <- fmt.Errorf("doc %d published with bytes %q (%v)", d.ID, got, err)
				return
			}
		}
		watched <- nil
	}()
	var err error
	if remote {
		_, err = AddDocumentsRemote(s.w.conn, docs)
		s.w.updates.Add(1)
	} else {
		err = e.AddDocuments(docs)
	}
	close(done)
	werr := <-watched
	s.ok(err, "add %d docs from %d (remote %v)", len(docs), docs[0].ID, remote)
	s.ok(werr, "watching the add")
	live := slices.Clone(v.live)
	for _, d := range docs {
		live = append(live, d.ID)
	}
	s.acked(live, v.next+len(docs))
}

func (s *sim) add() {
	next := s.head().next
	docs := make([]Document, 1+s.rng.Intn(3))
	for i := range docs {
		docs[i] = Document{ID: next + i, Text: simText(next+i, s.lemmas)}
	}
	s.apply(docs, s.rng.Intn(2) == 0)
}

func (s *sim) delete() {
	v := s.head()
	ids := s.sample(slices.DeleteFunc(slices.Clone(v.live), func(id int) bool { return !simDeletable(id) }), 1+s.rng.Intn(2))
	if len(ids) == 0 {
		return
	}
	remote := s.rng.Intn(2) == 0
	var err error
	if remote {
		_, err = DeleteDocumentsRemote(s.w.conn, ids)
		s.w.updates.Add(1)
	} else {
		err = s.w.e.DeleteDocuments(ids)
	}
	s.ok(err, "delete %v (remote %v)", ids, remote)
	s.acked(slices.DeleteFunc(slices.Clone(v.live), func(id int) bool { return slices.Contains(ids, id) }), v.next)
}

// compact folds segments. Neither fold touches the journal or changes a
// score, so the plaintext ranking stays the pinned version's.
func (s *sim) compact() {
	e, full := s.w.e, s.rng.Intn(2) == 0
	if full {
		e.Compact()
	} else {
		e.live.MergeNow()
	}
	query := s.query()
	if got, want := s.reference(e.Snapshot(), query), s.reference(s.head().snap, query); !slices.Equal(got, want) {
		s.fatalf("the fold changed the plaintext ranking of %q from %v to %v", query, want, got)
	}
	if !full {
		return
	}
	if n := e.NumSegments(); n != 1 {
		s.fatalf("%d segments after Compact, want 1", n)
	}
	q, err := s.w.c.Embellish(query)
	s.ok(err, "Embellish")
	resp, err := e.Process(q)
	s.ok(err, "Process")
	if n := resp.Stats.TombstonesSkipped; n != 0 {
		s.fatalf("%d tombstoned postings scanned after Compact, want 0", n)
	}
}

// batchQuery ranks several queries in one frame, then fetches the first
// query's winners over the same connection.
func (s *sim) batchQuery() {
	w, v := s.w, s.head()
	qs := make([]string, 2+s.rng.Intn(2))
	for i := range qs {
		qs[i] = s.query()
	}
	res, err := w.c.SearchRemoteBatch(w.conn, qs, 0)
	s.ok(err, "SearchRemoteBatch")
	w.queries.Add(int64(len(qs)))
	for i, q := range qs {
		s.claim1("batch query", q, s.reference(v.snap, q))(res[i], nil)
	}
	var winners []int
	for _, r := range res[0] {
		if r.Score > 0 {
			winners = append(winners, r.DocID)
		}
	}
	if len(winners) > 0 {
		s.texts("winners", winners)(w.c.FetchDocumentsRemote(w.conn, winners))
	}
}

// fetch reads a sample of live documents privately over TCP. A
// tombstoned id is refused on the same connection, which stays usable.
func (s *sim) fetch() {
	w, v := s.w, s.head()
	ids := s.sample(v.live, 1+s.rng.Intn(3))
	for _, id := range s.sample(v.dead(), 1) {
		if _, _, err := w.c.FetchDocumentsRemote(w.conn, []int{id}); err == nil {
			s.fatalf("tombstoned doc %d fetched over TCP", id)
		}
	}
	s.texts("remote fetch", ids)(w.c.FetchDocumentsRemote(w.conn, ids))
}

func (s *sim) checkpoint() {
	s.ok(s.w.e.Checkpoint(), "Checkpoint")
	if st, _ := s.w.e.WALStatus(); st.CheckpointSeq != s.seq() {
		s.fatalf("checkpoint at seq %d, want %d", st.CheckpointSeq, s.seq())
	}
}

// crashOrRecover starts a freeze of the durable directory, which runs
// while the following steps do, or recovers from the one in flight.
func (s *sim) crashOrRecover() {
	if s.crash != nil {
		s.recover()
		return
	}
	c := &simCrash{acked: s.seq(), frozen: make(chan string, 1)}
	dir := s.w.dir
	go func() { c.frozen <- copyDurableDir(s.t, dir) }()
	s.crash = c
}

// recover opens the frozen copy and continues the schedule on it. No
// acknowledged write may be lost; the crashed engine, closed, must
// refuse writes without changing; and the replica is re-seeded from
// the recovered primary.
func (s *sim) recover() {
	c := s.crash
	s.crash = nil
	dir := <-c.frozen
	if s.t.Failed() {
		s.t.FailNow()
	}
	r, err := OpenDurable(dir, Options{Durability: durableOpts(dir)})
	s.ok(err, "recovering the frozen directory")
	st, _ := r.WALStatus()
	if st.Seq < c.acked {
		s.fatalf("recovered to seq %d: write %d was acknowledged before the freeze began and is lost", st.Seq, c.acked)
	}
	if st.Seq > s.seq() {
		s.fatalf("recovered to seq %d, past the last acknowledged %d", st.Seq, s.seq())
	}
	old := s.w.e
	s.ok(old.Close(), "closing the crashed engine")
	next, live := old.NextDocID(), old.NumDocs()
	if old.AddDocuments([]Document{{ID: next, Text: "x"}}) == nil || old.DeleteDocuments([]int{0}) == nil {
		s.fatalf("closed engine accepted a write")
	}
	if old.NextDocID() != next || old.NumDocs() != live {
		s.fatalf("closed engine moved from %d/%d to %d/%d (next/live) on refused writes", next, live, old.NextDocID(), old.NumDocs())
	}
	s.versions = s.versions[:st.Seq+1]
	s.enter(r, dir)
	s.reseedReplica()
	s.sweep()
}

// reseedReplica bootstraps the replica from a copy of the primary's
// durable directory.
func (s *sim) reseedReplica() {
	if s.replica != nil {
		s.replica.Close()
	}
	dir := copyDurableDir(s.t, s.w.dir)
	r, err := OpenDurable(dir, Options{Durability: durableOpts(dir)})
	s.ok(err, "seeding the replica")
	s.t.Cleanup(func() { r.Close() })
	s.replica = r
}

// pull catches the replica up over TypeWALPull. A replica behind the
// primary's checkpoint needs a retired journal suffix: the pull is
// refused and the replica re-seeded.
func (s *sim) pull() {
	rst, _ := s.replica.WALStatus()
	pst, _ := s.w.e.WALStatus()
	chunk, err := PullWAL(s.w.conn, rst.Seq)
	if rst.Seq < pst.CheckpointSeq {
		if err == nil {
			s.fatalf("pull after seq %d shipped records a checkpoint at %d retired", rst.Seq, pst.CheckpointSeq)
		}
		s.reseedReplica()
		return
	}
	for {
		s.ok(err, "pull after seq %d", rst.Seq)
		_, err = s.replica.ApplyReplicated(chunk.Records)
		s.ok(err, "applying pulled records")
		if !chunk.More && chunk.LastSeq >= chunk.PrimarySeq {
			break
		}
		rst, _ = s.replica.WALStatus()
		chunk, err = PullWAL(s.w.conn, rst.Seq)
	}
	if rst, _ = s.replica.WALStatus(); rst.Seq != s.seq() {
		s.fatalf("replica caught up to seq %d, primary at %d", rst.Seq, s.seq())
	}
}

// cancel runs a query and fetches under an already-expired deadline:
// each returns the deadline error and no partial result, and the same
// calls then answer as if nothing happened.
func (s *sim) cancel() {
	w, v := s.w, s.head()
	ctx, stop := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer stop()
	query := s.query()
	q, err := w.c.Embellish(query)
	s.ok(err, "Embellish")
	resp, err := w.e.ProcessContext(ctx, q)
	var ce *CancelledError
	if resp != nil || !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
		s.fatalf("expired ProcessContext = %v, %v; want no response and a *CancelledError", resp, err)
	}
	resp, err = w.e.Process(q)
	s.ok(err, "Process after a cancellation")
	s.claim1("query after a cancellation", query, s.reference(v.snap, query))(w.c.Decode(resp, 0))
	ids := s.sample(v.live, 2)
	if docs, _, err := w.c.FetchDocumentsContext(ctx, ids); docs != nil || !errors.Is(err, context.DeadlineExceeded) {
		s.fatalf("expired local fetch = %d docs, %v", len(docs), err)
	}
	if docs, _, err := w.c.FetchDocumentsRemoteContext(ctx, w.conn, ids); docs != nil || !errors.Is(err, context.DeadlineExceeded) {
		s.fatalf("expired remote fetch = %d docs, %v", len(docs), err)
	}
	s.texts("fetch after a cancellation", ids)(w.c.FetchDocumentsRemote(w.conn, ids))
}

// check holds the engine, the replica and the readers to the model
// after every step.
func (s *sim) check() {
	w, v := s.w, s.head()
	if st, _ := w.e.WALStatus(); st.Seq != s.seq() {
		s.fatalf("engine at seq %d, model at %d", st.Seq, s.seq())
	}
	if next, live := w.e.NextDocID(), w.e.Snapshot().LiveDocIDs(); next != v.next || !slices.Equal(live, v.live) {
		s.fatalf("next %d, live %v; model next %d, live %v", next, live, v.next, v.live)
	}
	query := s.query()
	want := s.reference(v.snap, query)
	s.claim1("remote query", query, want)(w.c.SearchRemote(w.conn, query, 0))
	w.queries.Add(1)
	ids := s.sample(v.live, 3)
	s.texts("Document", ids)(readDocs(w.e.Document, ids))
	// The in-process fetch, a wire session of its own, stays under the
	// schedule.
	s.texts("fetch", ids)(w.c.FetchDocuments(ids))
	for _, id := range s.sample(v.dead(), 1) {
		s.checkDead(id)
	}
	s.checkReplica(query)
	s.checkReads()
}

func (s *sim) checkDead(id int) {
	if _, err := s.w.e.Document(id); err == nil {
		s.fatalf("tombstoned doc %d readable", id)
	}
	if _, _, err := s.w.c.FetchDocumentsRemote(s.w.conn, []int{id}); err == nil {
		s.fatalf("tombstoned doc %d fetched", id)
	}
}

// checkReplica holds the replica to the model version at its own
// sequence: the same live ids, bytes and plaintext ranking.
func (s *sim) checkReplica(query string) {
	r := s.replica
	st, _ := r.WALStatus()
	if st.Seq > s.seq() {
		s.fatalf("replica at seq %d, past the primary's %d", st.Seq, s.seq())
	}
	v, snap := s.versions[st.Seq], r.Snapshot()
	if live := snap.LiveDocIDs(); r.NextDocID() != v.next || !slices.Equal(live, v.live) {
		s.fatalf("replica at seq %d: next %d, live %v; model next %d, live %v", st.Seq, r.NextDocID(), live, v.next, v.live)
	}
	ids := s.sample(v.live, 2)
	s.texts("replica Document", ids)(readDocs(snap.Document, ids))
	if got, want := s.reference(snap, query), s.reference(v.snap, query); !slices.Equal(got, want) {
		s.fatalf("replica at seq %d ranks %q as %v, model %v", st.Seq, query, got, want)
	}
}

// reader searches and fetches, in process or over TCP, until stop
// closes, following the schedule from world to world. It fetches only
// documents the schedule never deletes.
func (s *sim) reader(stop <-chan struct{}, remote bool) {
	defer s.readerDone.Done()
	who := map[bool]string{false: "local", true: "tcp"}[remote]
	var stable []int
	for id := range simBaseDocs + 2 {
		if !simDeletable(id) {
			stable = append(stable, id)
		}
	}
	var w *simWorld
	var c *Client
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for i := 0; ; i++ {
		// The pause leaves the schedule most of a small host's CPU.
		select {
		case <-stop:
			return
		case <-time.After(2 * time.Millisecond):
		}
		from := s.published() - 1
		var err error
		if cur := s.current.Load(); cur != w {
			w = cur
			if c, err = simClient(w.e, "sim-reader-"+who); err == nil && remote {
				if conn != nil {
					conn.Close()
				}
				conn, err = w.dial()
			}
		}
		query, id := s.queries[i%len(s.queries)], stable[i%len(stable)]
		var got []Result
		var docs [][]byte
		if err == nil && remote {
			if got, err = c.SearchRemote(conn, query, 0); err == nil {
				w.queries.Add(1)
			}
		} else if err == nil {
			got, err = c.Search(query, 0)
		}
		to := s.published()
		if err == nil && remote {
			docs, _, err = c.FetchDocumentsRemote(conn, []int{id})
		} else if err == nil {
			docs, _, err = c.FetchDocuments([]int{id})
		}
		if err == nil && string(docs[0]) != simText(id, s.lemmas) {
			err = fmt.Errorf("fetched %q", docs[0])
		}
		if err != nil {
			s.t.Errorf("seed %d %s reader, query %q then doc %d: %v", s.seed, who, query, id, err)
			return
		}
		s.mu.Lock()
		s.reads = append(s.reads, simRead{who: who, query: query, got: got, from: from, to: to})
		s.mu.Unlock()
	}
}

// checkReads holds every finished read to some state published while it
// ran. Between steps no write is in flight, so a read that ended before
// its state was published still finds it.
func (s *sim) checkReads() {
	s.mu.Lock()
	reads, pub := s.reads, s.pub
	s.reads = nil
	s.mu.Unlock()
	for _, r := range reads {
		ok := false
		for j := r.from; j <= min(r.to, len(pub)-1) && !ok; j++ {
			want, err := pub[j].PlaintextSearch(r.query, 0)
			ok = err == nil && claim1Holds(r.got, want)
		}
		if !ok {
			s.fatalf("%s reader: ranking %v for %q matches no state published while it ran (%d..%d)", r.who, r.got, r.query, r.from, r.to)
		}
	}
	if s.t.Failed() {
		s.t.FailNow()
	}
}

// sweep checks every id ever assigned: live ones read back their text
// directly and privately over TCP, and tombstoned ones are refused by
// both paths.
func (s *sim) sweep() {
	w, v := s.w, s.head()
	for _, id := range v.dead() {
		s.checkDead(id)
	}
	s.texts("Document", v.live)(readDocs(w.e.Document, v.live))
	s.texts("remote fetch all", v.live)(w.c.FetchDocumentsRemote(w.conn, v.live))
}

// checkCounters holds every server the schedule ran to the connections,
// queries and updates sent to it.
func (s *sim) checkCounters() {
	for i, w := range s.worlds {
		st, err := ServerStats(w.conn)
		s.ok(err, "world %d stats", i)
		if st.Accepted != w.dials.Load() || st.Queries != w.queries.Load() || st.Updates != w.updates.Load() {
			s.fatalf("world %d counted %d conns, %d queries, %d updates; want %d, %d, %d", i,
				st.Accepted, st.Queries, st.Updates, w.dials.Load(), w.queries.Load(), w.updates.Load())
		}
		if st.Queries > 0 && (st.QueryTime <= 0 || st.MaxQueryTime <= 0) {
			s.fatalf("world %d: query timing not recorded: %+v", i, st)
		}
	}
}
