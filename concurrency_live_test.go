package embellish

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"embellish/internal/detrand"
	"embellish/internal/wire"
)

// The search-during-update tests: queries run concurrently with
// AddDocuments / DeleteDocuments churn (and the background merges the
// churn triggers), and every returned ranking must equal the plaintext
// ranking of SOME corpus snapshot the engine passed through — the
// snapshot the query observed. The single mutator logs a Snapshot after
// every update it applies (plus the initial state), so by join time the
// log contains every distinct doc-set state; merge-only swaps change no
// scores, so a query that observed one still matches its pre-merge
// logged state.

// snapshotLog collects engine snapshots as the mutator publishes them.
type snapshotLog struct {
	mu    sync.Mutex
	snaps []*Snapshot
}

func (l *snapshotLog) add(s *Snapshot) {
	l.mu.Lock()
	l.snaps = append(l.snaps, s)
	l.mu.Unlock()
}

func (l *snapshotLog) all() []*Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Snapshot(nil), l.snaps...)
}

// matchesSomeSnapshot reports whether the private result equals the
// plaintext ranking of at least one logged snapshot.
func matchesSomeSnapshot(query string, got []Result, snaps []*Snapshot) bool {
	for _, sn := range snaps {
		want, err := sn.PlaintextSearch(query, 0)
		if err != nil {
			continue
		}
		if len(got) < len(want) {
			continue
		}
		ok := true
		for i := range want {
			if got[i] != want[i] {
				ok = false
				break
			}
		}
		for _, r := range got[len(want):] {
			if r.Score != 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// churn applies rounds of interleaved adds and deletes, logging a
// snapshot after each update. It is the only writer.
func churn(e *Engine, log *snapshotLog, rounds int) error {
	added := []int{}
	for i := 0; i < rounds; i++ {
		if i%3 == 2 && len(added) > 0 {
			victim := added[0]
			added = added[1:]
			if err := e.DeleteDocuments([]int{victim}); err != nil {
				return fmt.Errorf("churn delete %d: %v", victim, err)
			}
		} else {
			docs := moreDocs(e, 2, 40+i)
			if err := e.AddDocuments(docs); err != nil {
				return fmt.Errorf("churn add round %d: %v", i, err)
			}
			for _, d := range docs {
				added = append(added, d.ID)
			}
		}
		log.add(e.Snapshot())
	}
	return nil
}

// TestSearchDuringUpdatesLocal churns the corpus while concurrent
// local clients search, under the full concurrent pipeline (two
// shards at GOMAXPROCS 2, precomputation, worker pool) and an
// aggressive merge policy so merges race the queries too. Run with
// -race in CI.
func TestSearchDuringUpdatesLocal(t *testing.T) {
	setProcs(t, 2)
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.MaxSegments = 3
	e, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	log := &snapshotLog{}
	log.add(e.Snapshot())
	queries := testQueries(e, 6)

	type outcome struct {
		query string
		got   []Result
	}
	var outcomes []outcome
	var outMu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := churn(e, log, 18); err != nil {
			errs <- err
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := e.NewClient(detrand.New(fmt.Sprintf("live-searcher-%d", g)))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 8; i++ {
				query := queries[(g+2*i)%len(queries)]
				got, err := c.Search(query, 0)
				if err != nil {
					errs <- fmt.Errorf("search %q: %v", query, err)
					return
				}
				outMu.Lock()
				outcomes = append(outcomes, outcome{query: query, got: got})
				outMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snaps := log.all()
	for _, oc := range outcomes {
		if !matchesSomeSnapshot(oc.query, oc.got, snaps) {
			t.Fatalf("query %q: ranking matches no corpus snapshot the engine passed through (%d snapshots)",
				oc.query, len(snaps))
		}
	}
}

// TestSearchDuringUpdatesTCP runs the same membership check over real
// TCP: the mutator drives AddDocumentsRemote / DeleteDocumentsRemote
// against an updates-enabled NetServer while remote clients search.
func TestSearchDuringUpdatesTCP(t *testing.T) {
	setProcs(t, 2)
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.MaxSegments = 3
	e, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	srv := e.NewNetServer(ServeConfig{AllowUpdates: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := l.Addr().String()

	log := &snapshotLog{}
	log.add(e.Snapshot())
	queries := testQueries(e, 6)

	type outcome struct {
		query string
		got   []Result
	}
	var outcomes []outcome
	var outMu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Mutator: admin frames over its own connection, logging the shared
	// in-process engine's snapshot after each acknowledged update.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		added := []int{}
		for i := 0; i < 12; i++ {
			if i%3 == 2 && len(added) > 0 {
				victim := added[0]
				added = added[1:]
				if _, err := DeleteDocumentsRemote(conn, []int{victim}); err != nil {
					errs <- fmt.Errorf("remote delete %d: %v", victim, err)
					return
				}
			} else {
				docs := moreDocs(e, 2, 80+i)
				if _, err := AddDocumentsRemote(conn, docs); err != nil {
					errs <- fmt.Errorf("remote add round %d: %v", i, err)
					return
				}
				for _, d := range docs {
					added = append(added, d.ID)
				}
			}
			log.add(e.Snapshot())
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			c, err := e.NewClient(detrand.New(fmt.Sprintf("tcp-live-searcher-%d", g)))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 6; i++ {
				query := queries[(g+2*i)%len(queries)]
				got, err := c.SearchRemote(conn, query, 0)
				if err != nil {
					errs <- fmt.Errorf("remote search %q: %v", query, err)
					return
				}
				outMu.Lock()
				outcomes = append(outcomes, outcome{query: query, got: got})
				outMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snaps := log.all()
	for _, oc := range outcomes {
		if !matchesSomeSnapshot(oc.query, oc.got, snaps) {
			t.Fatalf("query %q: remote ranking matches no corpus snapshot (%d snapshots)", oc.query, len(snaps))
		}
	}
	if st := srv.Stats(); st.Updates != 12 {
		t.Fatalf("Stats.Updates = %d, want 12", st.Updates)
	}
}

// TestRemoteUpdatesDisabledByDefault checks a default NetServer refuses
// admin frames (opt-in gate) while continuing to serve queries.
func TestRemoteUpdatesDisabledByDefault(t *testing.T) {
	e, c := testEngine(t)
	srv := e.NewNetServer(ServeConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	docs := moreDocs(e, 1, 5)
	if _, err := AddDocumentsRemote(conn, docs); err == nil {
		t.Fatal("updates-disabled server accepted an add")
	}
	if _, err := DeleteDocumentsRemote(conn, []int{0}); err == nil {
		t.Fatal("updates-disabled server accepted a delete")
	}
	if e.NumDocs() != 120 {
		t.Fatalf("engine mutated through disabled gate: %d docs", e.NumDocs())
	}
	// The connection survives the refusals and still answers queries.
	query := testQueries(e, 1)[0]
	got, err := c.SearchRemote(conn, query, 10)
	if err != nil {
		t.Fatalf("query after refused admin: %v", err)
	}
	want, err := e.PlaintextSearch(query, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestRemoteAddBatchesAcrossFrames checks an ingest larger than one
// admin frame (wire.MaxAdminDocs) is split across frames and fully
// applied.
func TestRemoteAddBatchesAcrossFrames(t *testing.T) {
	e, _ := liveTestEngine(t, 0)
	srv := e.NewNetServer(ServeConfig{AllowUpdates: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Empty inputs are rejected client-side, never acked as zero state.
	if _, err := AddDocumentsRemote(conn, nil); err == nil {
		t.Fatal("empty remote add accepted")
	}
	if _, err := DeleteDocumentsRemote(conn, nil); err == nil {
		t.Fatal("empty remote delete accepted")
	}

	n := wire.MaxAdminDocs + 50
	base := e.NextDocID()
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = Document{ID: base + i, Text: "batched ingest filler"}
	}
	st, err := AddDocumentsRemote(conn, docs)
	if err != nil {
		t.Fatalf("batched add: %v", err)
	}
	if st.LiveDocs != base+n {
		t.Fatalf("status LiveDocs = %d, want %d", st.LiveDocs, base+n)
	}
	if got := srv.Stats().Updates; got != 2 {
		t.Fatalf("Stats.Updates = %d, want 2 frames", got)
	}
	if e.NumDocs() != base+n {
		t.Fatalf("engine has %d docs, want %d", e.NumDocs(), base+n)
	}
}
