package embellish

import (
	"os"
	"path/filepath"
	"testing"

	"embellish/internal/wal"
)

// Golden durable-state fixture: a checkpoint file plus a journal
// segment with a few operations, checked in under testdata/durable/ as
// fuzz seeds (and regenerated, after DELIBERATE format changes only,
// with -update-golden — the same flag as the engine-file goldens).
const (
	goldenDurableDir  = "testdata/durable"
	goldenDurableCkpt = "checkpoint-0000000000000000.bin"
	goldenDurableLog  = "wal-0000000000000000.log"
)

// goldenDurableState drives the deterministic fixture workload into
// dir: the 12-doc store world, two adds and a delete, journaled but
// never checkpointed — so the log carries real records of every op
// type.
func goldenDurableState(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	e, _, texts := storeWorld(t, 12, 32, durableOpts(dir))
	lemmas := miniLemmas()
	for i := 0; i < 2; i++ {
		id := e.NextDocID()
		texts[id] = storeDocText(id, lemmas)
		if err := e.AddDocuments([]Document{{ID: id, Text: texts[id]}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DeleteDocuments([]int{1, 12}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestGoldenDurableSeeds(t *testing.T) {
	if *updateGolden {
		src := goldenDurableState(t)
		if err := os.MkdirAll(goldenDurableDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{goldenDurableCkpt, goldenDurableLog} {
			data, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatalf("fixture %s: %v", name, err)
			}
			if err := os.WriteFile(filepath.Join(goldenDurableDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The checked-in fixture must recover, with or without -update-golden.
	dir := t.TempDir()
	for _, name := range []string{goldenDurableCkpt, goldenDurableLog} {
		data, err := os.ReadFile(filepath.Join(goldenDurableDir, name))
		if err != nil {
			t.Fatalf("golden durable fixture missing (regenerate with -update-golden): %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatalf("golden durable state does not recover: %v", err)
	}
	defer e.Close()
	st, ok := e.WALStatus()
	if !ok || st.Seq != 3 {
		t.Fatalf("golden recovery WALStatus = %+v, want seq 3", st)
	}
	if e.NumDocs() != 12 || e.NextDocID() != 14 {
		t.Fatalf("golden recovery corpus: %d live, next %d; want 12 live, next 14", e.NumDocs(), e.NextDocID())
	}
}

// FuzzWALRecover: the journal is untrusted input — a crash can tear
// it, disk corruption can scramble it, and a hostile party shipping a
// durable directory between machines can craft it. Recovery must
// survive ARBITRARY log bytes next to a valid checkpoint: no panics,
// no allocations beyond the input's own size (the decoder bounds every
// declared count by the remaining bytes, the same forged-count class
// as the wire and engine-file fixes), and always either a coherent
// engine or a clean error.
func FuzzWALRecover(f *testing.F) {
	ckpt, err := os.ReadFile(filepath.Join(goldenDurableDir, goldenDurableCkpt))
	if err != nil {
		f.Fatalf("golden durable fixture missing (regenerate with -update-golden): %v", err)
	}
	log, err := os.ReadFile(filepath.Join(goldenDurableDir, goldenDurableLog))
	if err != nil {
		f.Fatalf("golden durable fixture missing (regenerate with -update-golden): %v", err)
	}
	f.Add(log)
	f.Add(log[:len(log)/2])
	f.Add(log[:13])
	f.Add([]byte("EWAL\x01\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{})
	f.Add([]byte("EENG not a log"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, goldenDurableCkpt), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, goldenDurableLog), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := OpenDurable(dir, Options{})
		if err != nil {
			return // a clean error is a correct outcome
		}
		defer e.Close()
		// Accepted recoveries must be coherent enough to serve, exactly
		// like FuzzLoadEngine's contract for accepted files.
		if e.NumDocs() < 0 || e.NextDocID() < e.NumDocs() {
			t.Fatalf("incoherent doc counts: %d live, next %d", e.NumDocs(), e.NextDocID())
		}
		if e.NumSegments() < 1 {
			t.Fatalf("engine with %d segments accepted", e.NumSegments())
		}
		st, ok := e.WALStatus()
		if !ok {
			t.Fatal("recovered engine is not durable")
		}
		if st.Seq < st.CheckpointSeq {
			t.Fatalf("journal position %d behind checkpoint %d", st.Seq, st.CheckpointSeq)
		}
		if e.StoresDocuments() {
			for _, id := range []int{0, e.NextDocID() - 1} {
				_, _ = e.Document(id)
			}
		}
		// The recovered engine must still journal: its directory was
		// truncated/reopened by recovery, so an append must succeed.
		if err := e.DeleteDocuments([]int{0}); err == nil {
			if _, err := e.Document(0); err == nil {
				t.Fatal("journaled delete did not apply")
			}
		}
	})
}

// TestWALRecoverFuzzSeeds runs the fuzz body over its seed corpus in
// a plain test run, so `go test` exercises the recovery grammar even
// where fuzzing is not invoked.
func TestWALRecoverFuzzSeeds(t *testing.T) {
	log, err := os.ReadFile(filepath.Join(goldenDurableDir, goldenDurableLog))
	if err != nil {
		t.Fatalf("golden durable fixture missing (regenerate with -update-golden): %v", err)
	}
	ckpt, err := os.ReadFile(filepath.Join(goldenDurableDir, goldenDurableCkpt))
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range [][]byte{log, log[:len(log)/2], log[:13], {}, []byte("EWALx")} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, goldenDurableCkpt), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wal.LogPath(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := OpenDurable(dir, Options{})
		if err != nil {
			continue
		}
		if e.NumDocs() < 0 {
			t.Fatalf("seed %d: incoherent engine", i)
		}
		e.Close()
	}
}
