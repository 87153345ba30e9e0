package embellish

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"embellish/internal/detrand"
)

// durableOpts is the test Durability policy: per-record fsync (so
// every acknowledged op is in the journal the instant the call
// returns) and automatic checkpoints disabled — the tests drive
// Checkpoint explicitly to control the file layout.
func durableOpts(dir string) Durability {
	return Durability{Dir: dir, Fsync: FsyncEveryRecord, CheckpointEveryOps: -1, CheckpointEveryBytes: -1}
}

// copyDurableDir captures a durable directory's current state the way
// a crash would freeze it — without stopping the engine that is
// writing to it. Log segments are copied BEFORE checkpoint files:
// checkpoints become visible only by atomic rename after their log
// rotation, so this order can never capture a checkpoint whose log
// chain is missing (the reverse order could). Files that vanish
// mid-copy were retired by a concurrent checkpoint and are skipped.
// Failures are reported with Errorf, never Fatal — the simulation
// freezes directories from a non-test goroutine.
func copyDurableDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	copyMatching := func(wantLog bool) {
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Errorf("freezing %s: %v", src, err)
			return
		}
		for _, ent := range entries {
			name := ent.Name()
			if strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".log") != wantLog {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, name))
			if os.IsNotExist(err) {
				continue // retired while we copied
			}
			if err != nil {
				t.Errorf("freezing %s: %v", name, err)
				return
			}
			if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
				t.Errorf("freezing %s: %v", name, err)
				return
			}
		}
	}
	copyMatching(true)
	copyMatching(false)
	return dst
}

// TestDurableRoundTrip: build durable, mutate, close, recover — the
// recovered engine serves the exact post-mutation corpus, then keeps
// accepting and journaling updates.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, _, texts := storeWorld(t, 20, 32, durableOpts(dir))
	lemmas := miniLemmas()
	if !e.Durable() {
		t.Fatal("Durable() = false on a durable engine")
	}
	for i := 0; i < 3; i++ {
		id := e.NextDocID()
		texts[id] = storeDocText(id, lemmas)
		if err := e.AddDocuments([]Document{{ID: id, Text: texts[id]}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DeleteDocuments([]int{3, 21}); err != nil {
		t.Fatal(err)
	}
	delete(texts, 3)
	delete(texts, 21)
	st, ok := e.WALStatus()
	if !ok || st.Seq != 4 || st.CheckpointSeq != 0 || st.OpsSinceCheckpoint != 4 {
		t.Fatalf("WALStatus = %+v, want seq 4 over checkpoint 0", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.AddDocuments([]Document{{ID: e.NextDocID(), Text: "x"}}); err == nil {
		t.Fatal("update accepted after Close")
	}

	// A crash mid-checkpoint leaves a snapshot temp file behind;
	// recovery must sweep it (nothing else ever does).
	orphan := filepath.Join(dir, "checkpoint-123.tmp")
	if err := os.WriteFile(orphan, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer r.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("recovery left the orphaned checkpoint temp file behind (%v)", err)
	}
	rst, ok := r.WALStatus()
	if !ok || rst.Seq != 4 {
		t.Fatalf("recovered WALStatus = %+v, want seq 4", rst)
	}
	// The replayed tail seeds the checkpoint-trigger counters: a
	// crash-looping deployment must still cross its thresholds.
	if rst.OpsSinceCheckpoint != 4 || rst.BytesSinceCheckpoint == 0 {
		t.Fatalf("recovered counters not seeded from the replayed tail: %+v", rst)
	}
	assertCorpusEquals(t, r, texts)
	// The recovered engine journals onward.
	id := r.NextDocID()
	texts[id] = storeDocText(id, lemmas)
	if err := r.AddDocuments([]Document{{ID: id, Text: texts[id]}}); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.WALStatus(); st.Seq != 5 {
		t.Fatalf("recovered engine journaled to seq %d, want 5", st.Seq)
	}
}

// assertCorpusEquals sweeps every assigned id: live documents read
// back their exact text, absent ids error, and a private search agrees
// with the plaintext ranking on the recovered corpus.
func assertCorpusEquals(t testing.TB, e *Engine, texts map[int]string) {
	t.Helper()
	live := 0
	for id := 0; id < e.NextDocID(); id++ {
		want, ok := texts[id]
		got, err := e.Document(id)
		if !ok {
			if err == nil {
				t.Fatalf("doc %d readable, want deleted", id)
			}
			continue
		}
		live++
		if err != nil || string(got) != want {
			t.Fatalf("doc %d = %q (%v), want %q", id, got, err, want)
		}
	}
	if live != e.NumDocs() {
		t.Fatalf("NumDocs %d, ledger has %d live", e.NumDocs(), live)
	}
	c, err := e.NewClient(detrand.New("durable-check"))
	if err != nil {
		t.Fatal(err)
	}
	lemmas := miniLemmas()
	q := lemmas[1] + " " + lemmas[6]
	private, err := c.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.PlaintextSearch(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !claim1Holds(private, plain) {
		t.Fatalf("recovered engine breaks Claim 1: private %v, plaintext %v", private, plain)
	}
}

// TestCheckpointRotatesAndRetires: Checkpoint writes the snapshot,
// rotates the log, retires covered files, and recovery afterwards
// replays nothing.
func TestCheckpointRotatesAndRetires(t *testing.T) {
	dir := t.TempDir()
	e, _, texts := storeWorld(t, 20, 32, durableOpts(dir))
	defer e.Close()
	lemmas := miniLemmas()
	for i := 0; i < 3; i++ {
		id := e.NextDocID()
		texts[id] = storeDocText(id, lemmas)
		if err := e.AddDocuments([]Document{{ID: id, Text: texts[id]}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st, _ := e.WALStatus()
	if st.CheckpointSeq != 3 || st.OpsSinceCheckpoint != 0 {
		t.Fatalf("after checkpoint: %+v", st)
	}
	// Old checkpoint-0 and wal-0 are retired; only seq-3 files remain.
	names := dirNames(t, dir)
	want := []string{"checkpoint-0000000000000003.bin", "wal-0000000000000003.log"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("dir after checkpoint = %v, want %v", names, want)
	}
	// Checkpoint with nothing new is a no-op.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if names2 := dirNames(t, dir); fmt.Sprint(names2) != fmt.Sprint(want) {
		t.Fatalf("idle checkpoint changed the dir: %v", names2)
	}
	r, err := OpenDurable(copyDurableDir(t, dir), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	assertCorpusEquals(t, r, texts)
}

func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestEnableDurabilityOnLoadedEngine: the -load + -data-dir server
// path — a plain engine file becomes durable after the fact.
func TestEnableDurabilityOnLoadedEngine(t *testing.T) {
	e, _, texts := storeWorld(t, 20, 32, Durability{})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := loaded.EnableDurability(durableOpts(dir)); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	defer loaded.Close()
	if err := loaded.EnableDurability(durableOpts(t.TempDir())); err == nil {
		t.Fatal("double EnableDurability accepted")
	}
	lemmas := miniLemmas()
	id := loaded.NextDocID()
	texts[id] = storeDocText(id, lemmas)
	if err := loaded.AddDocuments([]Document{{ID: id, Text: texts[id]}}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDurable(copyDurableDir(t, dir), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	assertCorpusEquals(t, r, texts)
	// The dir now holds state: a fresh engine must refuse it, and
	// HasDurableState must see it.
	if has, err := HasDurableState(dir); err != nil || !has {
		t.Fatalf("HasDurableState = %v, %v", has, err)
	}
	docs := make([]Document, 20)
	for i := range docs {
		docs[i] = Document{ID: i, Text: storeDocText(i, lemmas)}
	}
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.Durability = durableOpts(dir)
	if _, err := NewEngine(MiniLexicon(), docs, opts); err == nil ||
		!strings.Contains(err.Error(), "OpenDurable") {
		t.Fatalf("NewEngine over existing durable state: %v", err)
	}
}

// TestOpenDurableValidation: missing state and bad policies fail with
// clean errors.
func TestOpenDurableValidation(t *testing.T) {
	if _, err := OpenDurable(t.TempDir(), Options{}); err == nil {
		t.Fatal("OpenDurable on an empty dir succeeded")
	}
	var opts Options
	opts.Durability.Fsync = FsyncPolicy(9)
	if _, err := OpenDurable(t.TempDir(), opts); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
	o := DefaultOptions()
	o.Durability = Durability{Dir: "x", CheckpointEveryOps: -2}
	if err := o.validate(); err == nil {
		t.Fatal("CheckpointEveryOps -2 validated")
	}
	o.Durability = Durability{Dir: "x", FsyncEvery: -time.Second}
	if err := o.validate(); err == nil {
		t.Fatal("negative FsyncEvery validated")
	}
	e, _ := liveTestEngine(t, 0)
	if err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on an in-memory engine succeeded")
	}
	if _, ok := e.WALStatus(); ok {
		t.Fatal("WALStatus ok on an in-memory engine")
	}
	if e.Durable() {
		t.Fatal("in-memory engine claims durability")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close on an in-memory engine: %v", err)
	}
}

// TestSaveRacesAddCapturesConsistentSeq is the regression test for the
// checkpoint capture: the index snapshot, store snapshot and journal
// position are read under ONE updateMu hold, so a checkpoint taken
// while AddDocuments runs concurrently can never be one batch out of
// step with its named sequence — which recovery would surface as a
// double-applied or dropped batch (the dense-id check makes that loud).
// Run with -race.
func TestSaveRacesAddCapturesConsistentSeq(t *testing.T) {
	dir := t.TempDir()
	e, _, texts := storeWorld(t, 20, 32, durableOpts(dir))
	lemmas := miniLemmas()
	var mu sync.Mutex // guards texts

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // continuous small adds
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := e.NextDocID()
			txt := storeDocText(id, lemmas)
			mu.Lock()
			texts[id] = txt
			mu.Unlock()
			if err := e.AddDocuments([]Document{{ID: id, Text: txt}}); err != nil {
				t.Errorf("concurrent add: %v", err)
				return
			}
			// The options struct is replaced under updateMu; checkpoints
			// must serialize the header from their captured copy, never
			// from live e.opts (-race regression).
			if err := e.ConfigureMergePolicy(8); err != nil {
				t.Errorf("concurrent merge-policy configure: %v", err)
				return
			}
		}
	}()
	var saved bytes.Buffer
	for i := 0; i < 8; i++ {
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		// Engine.Save during active WAL operation shares the same
		// capture; it must stay serveable too.
		saved.Reset()
		if err := e.Save(&saved); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if _, err := LoadEngine(bytes.NewReader(saved.Bytes())); err != nil {
			t.Fatalf("save %d does not load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery from the final directory must replay cleanly onto the
	// last checkpoint — any capture/seq skew would break the dense-id
	// continuation and fail here.
	r, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatalf("OpenDurable after racing checkpoints: %v", err)
	}
	defer r.Close()
	mu.Lock()
	defer mu.Unlock()
	assertCorpusEquals(t, r, texts)
}
