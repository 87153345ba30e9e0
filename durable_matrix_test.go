package embellish

import (
	"encoding/binary"
	"fmt"
	"os"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/wal"
)

// The crash-point matrix: drive a scripted add/delete/checkpoint
// workload against a durable engine, then cut the journal at EVERY
// record boundary and at points inside every record, and require each
// cut to recover to exactly the state after some prefix of the
// operation log — never a torn half-state. Each recovered engine must
// serve byte-identical documents through the PIR path, and its private
// rankings must equal PlaintextSearch on the recovered corpus.

// ledgerState is the expected corpus after a given operation prefix:
// the live documents' exact text, and the id watermark. Assigned ids
// absent from texts are deleted and must error from every read path.
type ledgerState struct {
	texts   map[int]string
	nextDoc int
}

func snapshotLedger(texts map[int]string, nextDoc int) ledgerState {
	cp := make(map[int]string, len(texts))
	for id, txt := range texts {
		cp[id] = txt
	}
	return ledgerState{texts: cp, nextDoc: nextDoc}
}

// assertRecoveredState verifies a recovered engine against a ledger
// state: id watermark, every live document's bytes via direct read AND
// a private PIR fetch, errors for deleted ids, and Claim 1 (private
// ranking == plaintext ranking) on the recovered corpus.
func assertRecoveredState(t testing.TB, e *Engine, st ledgerState, pirFetch bool) {
	t.Helper()
	if e.NextDocID() != st.nextDoc {
		t.Fatalf("recovered NextDocID %d, ledger %d", e.NextDocID(), st.nextDoc)
	}
	assertCorpusEquals(t, e, st.texts)
	if !pirFetch {
		return
	}
	fc, err := e.NewClient(detrand.New("matrix-fetcher"))
	if err != nil {
		t.Fatal(err)
	}
	fetched := 0
	for id := 0; id < st.nextDoc && fetched < 2; id++ {
		want, live := st.texts[id]
		if !live {
			if _, _, err := fc.FetchDocuments([]int{id}); err == nil {
				t.Fatalf("deleted doc %d PIR-fetchable after recovery", id)
			}
			continue
		}
		got, _, err := fc.FetchDocuments([]int{id})
		if err != nil || string(got[0]) != want {
			t.Fatalf("recovered PIR fetch %d = %q (%v), want %q", id, got, err, want)
		}
		fetched++
	}
}

// matrixWorkload drives the scripted operation log and returns the
// per-sequence ledger plus the sequence of the mid-script checkpoint.
func matrixWorkload(t testing.TB, e *Engine, texts map[int]string) (ledger map[uint64]ledgerState, ckptSeq uint64) {
	t.Helper()
	lemmas := miniLemmas()
	ledger = map[uint64]ledgerState{0: snapshotLedger(texts, e.NextDocID())}
	seq := uint64(0)
	add := func(n int) {
		docs := make([]Document, n)
		for i := range docs {
			id := e.NextDocID() + i
			texts[id] = storeDocText(id, lemmas)
			docs[i] = Document{ID: id, Text: texts[id]}
		}
		if err := e.AddDocuments(docs); err != nil {
			t.Fatalf("op %d add: %v", seq+1, err)
		}
		seq++
		ledger[seq] = snapshotLedger(texts, e.NextDocID())
	}
	del := func(ids ...int) {
		if err := e.DeleteDocuments(ids); err != nil {
			t.Fatalf("op %d delete %v: %v", seq+1, ids, err)
		}
		for _, id := range ids {
			delete(texts, id)
		}
		seq++
		ledger[seq] = snapshotLedger(texts, e.NextDocID())
	}

	add(2)     // 1: docs 12, 13
	del(3)     // 2
	add(1)     // 3: doc 14
	del(13, 7) // 4
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("mid-script checkpoint: %v", err)
	}
	ckptSeq = seq
	add(2)  // 5: docs 15, 16
	del(15) // 6
	add(1)  // 7: doc 17
	del(0)  // 8

	if st, _ := e.WALStatus(); st.Seq != seq || st.CheckpointSeq != ckptSeq {
		t.Fatalf("workload WALStatus = %+v, want seq %d over checkpoint %d", st, seq, ckptSeq)
	}
	return ledger, ckptSeq
}

// logFrameEnds walks the journal's record framing (u32 len | body |
// u32 crc) and returns the offset just past each record.
func logFrameEnds(t testing.TB, data []byte) []int {
	t.Helper()
	var ends []int
	off := 13 // segment header
	for off < len(data) {
		if len(data)-off < 8 {
			t.Fatalf("completed log has a torn frame at %d", off)
		}
		bodyLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4 + bodyLen + 4
		if off > len(data) {
			t.Fatalf("completed log overruns at %d", off)
		}
		ends = append(ends, off)
	}
	return ends
}

func TestCrashPointMatrixRecovery(t *testing.T) {
	dir := t.TempDir()
	e, _, texts := storeWorld(t, 12, 32, durableOpts(dir))
	ledger, ckptSeq := matrixWorkload(t, e, texts)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// After the mid-script checkpoint retired its predecessors, the dir
	// holds checkpoint-<ckptSeq> plus one journal segment carrying the
	// checkpoint marker and the tail operations.
	st, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Logs) != 1 || st.Logs[0] != ckptSeq {
		t.Fatalf("dir logs = %v, want exactly [%d]", st.Logs, ckptSeq)
	}
	logPath := wal.LogPath(dir, ckptSeq)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := logFrameEnds(t, data)

	// Cut points: inside the header, every record boundary, and several
	// offsets inside every record (just past the boundary, mid-record,
	// one byte short of complete).
	type cut struct {
		bytes  int
		expSeq uint64 // operations fully journaled before the cut
	}
	seqAt := func(records int) uint64 {
		// Record 0 is the checkpoint marker; operation k is record k.
		if records <= 1 {
			return ckptSeq
		}
		return ckptSeq + uint64(records-1)
	}
	var cuts []cut
	for _, b := range []int{0, 7, 13} {
		cuts = append(cuts, cut{b, ckptSeq})
	}
	prev := 13
	for i, end := range ends {
		for _, mid := range []int{prev + 1, (prev + end) / 2, end - 1} {
			if mid > prev && mid < end {
				cuts = append(cuts, cut{mid, seqAt(i)})
			}
		}
		cuts = append(cuts, cut{end, seqAt(i + 1)})
		prev = end
	}

	for _, c := range cuts {
		c := c
		t.Run(fmt.Sprintf("cut=%d", c.bytes), func(t *testing.T) {
			cutDir := copyDurableDir(t, dir)
			if err := os.Truncate(wal.LogPath(cutDir, ckptSeq), int64(c.bytes)); err != nil {
				t.Fatal(err)
			}
			r, err := OpenDurable(cutDir, Options{})
			if err != nil {
				t.Fatalf("recovery at cut %d: %v", c.bytes, err)
			}
			defer r.Close()
			rst, ok := r.WALStatus()
			if !ok || rst.Seq != c.expSeq {
				t.Fatalf("cut %d recovered to seq %d, want prefix %d", c.bytes, rst.Seq, c.expSeq)
			}
			state, ok := ledger[c.expSeq]
			if !ok {
				t.Fatalf("test bug: no ledger state for seq %d", c.expSeq)
			}
			// PIR-fetch verification on the full-boundary cuts; the
			// mid-record cuts recover to the same prefix states, so the
			// cheap sweep + Claim 1 check suffices there.
			assertRecoveredState(t, r, state, c.bytes == 13 || containsInt(ends, c.bytes))
		})
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestRecoverySpansLogChain reproduces a crash INSIDE Checkpoint —
// after the log rotation, before the snapshot rename — where recovery
// must chain the old checkpoint through BOTH journal segments.
func TestRecoverySpansLogChain(t *testing.T) {
	dir := t.TempDir()
	e, _, texts := storeWorld(t, 12, 32, durableOpts(dir))
	lemmas := miniLemmas()
	addOne := func() {
		id := e.NextDocID()
		texts[id] = storeDocText(id, lemmas)
		if err := e.AddDocuments([]Document{{ID: id, Text: texts[id]}}); err != nil {
			t.Fatal(err)
		}
	}
	addOne() // op 1
	addOne() // op 2
	// Freeze the pre-checkpoint file set: checkpoint-0 + wal-0 (ops 1-2).
	preDir := copyDurableDir(t, dir)
	if err := e.Checkpoint(); err != nil { // rotates to wal-2
		t.Fatal(err)
	}
	addOne() // op 3, journaled to wal-2
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Splice the rotated segment into the frozen set WITHOUT
	// checkpoint-2: exactly the layout a crash between the rotation and
	// the snapshot rename leaves behind.
	seg, err := os.ReadFile(wal.LogPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal.LogPath(preDir, 2), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDurable(preDir, Options{})
	if err != nil {
		t.Fatalf("chained recovery: %v", err)
	}
	defer r.Close()
	if st, _ := r.WALStatus(); st.Seq != 3 || st.CheckpointSeq != 0 {
		t.Fatalf("chained recovery WALStatus = %+v, want seq 3 over checkpoint 0", st)
	}
	assertRecoveredState(t, r, snapshotLedger(texts, r.NextDocID()), true)

	// A GAP in the chain — the middle segment missing — must be a loud
	// error, never a silently shortened corpus.
	gapDir := copyDurableDir(t, preDir)
	if err := os.Remove(wal.LogPath(gapDir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(gapDir, Options{}); err == nil {
		t.Fatal("recovery with a missing journal segment succeeded")
	}

	// A garbage HEADER on the tail segment is the signature of a crash
	// during its creation (Create syncs header before use, but power
	// loss inside the window can persist the name with junk data):
	// recovery must tolerate it — the ops live in the earlier chain —
	// and a checkpoint through the NON-ROTATED path (the reopened
	// segment already starts at the captured seq) must still settle
	// the replay-debt counters.
	tornDir := copyDurableDir(t, preDir)
	if err := os.WriteFile(wal.LogPath(tornDir, 2), make([]byte, 9), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenDurable(tornDir, Options{})
	if err != nil {
		t.Fatalf("recovery with a half-born tail segment: %v", err)
	}
	defer r2.Close()
	st2, _ := r2.WALStatus()
	// wal-2's op 3 was never really created in this timeline; ops 1-2
	// from wal-0 are the journal.
	if st2.Seq != 2 || st2.OpsSinceCheckpoint != 2 {
		t.Fatalf("half-born-tail recovery WALStatus = %+v, want seq 2 debt 2", st2)
	}
	if err := r2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over reopened segment: %v", err)
	}
	st2, _ = r2.WALStatus()
	if st2.CheckpointSeq != 2 || st2.OpsSinceCheckpoint != 0 || st2.BytesSinceCheckpoint != 0 {
		t.Fatalf("non-rotated checkpoint left stale counters: %+v", st2)
	}
}
