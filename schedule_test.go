package embellish

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"embellish/internal/core"
	"embellish/internal/detrand"
)

// setProcs runs the rest of the test at GOMAXPROCS n, the one input the
// engine's execution schedule is derived from: an engine built under it
// ranks on n shards and n workers and serves PIR on n workers.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestLoadedEngineServesTheBuiltSchedule: an engine from LoadEngine and
// one from OpenDurable run the schedule NewEngine's does — a snapshot of
// GOMAXPROCS shards with every segment cut into as many runs, the
// segment a WAL replay appends included, and fixed-base tables — so one
// query costs the same products on all three, and returns the ciphertexts
// and the product count of the oracle on the schedule core.NewLiveServer
// resolves (a server without the tables spends more).
func TestLoadedEngineServesTheBuiltSchedule(t *testing.T) {
	setProcs(t, 2)
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.BucketSize = 4
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	opts.StoreDocuments = true
	opts.Durability = Durability{Dir: dir}
	built, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := built.AddDocuments(moreDocs(built, 4, 7)); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := built.Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&file)
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { recovered.Close() })

	c, err := built.NewClient(detrand.New("schedule"))
	if err != nil {
		t.Fatal(err)
	}
	q := cancelQuery(t, built, c, rand.New(rand.NewSource(27)), 6)
	oracle, ost, err := core.NewLiveServer(built.live, built.org, built.lex.db).Process(q.inner)
	if err != nil {
		t.Fatalf("oracle Process: %v", err)
	}
	want := respBytes(t, &Response{inner: oracle})

	var mods []int
	for _, eng := range []struct {
		name string
		e    *Engine
	}{{"built", built}, {"loaded", loaded}, {"recovered", recovered}} {
		snap := eng.e.live.Snapshot()
		if len(snap.Segs) != 2 || snap.Runs != 2 {
			t.Fatalf("%s: %d segments at %d shards, want 2 at 2", eng.name, len(snap.Segs), snap.Runs)
		}
		for i, seg := range snap.Segs {
			if seg.Runs() != 2 {
				t.Fatalf("%s: segment %d cut into %d runs, want 2", eng.name, i, seg.Runs())
			}
		}
		resp, st, err := eng.e.processCoreCtx(context.Background(), q.inner)
		if err != nil {
			t.Fatalf("%s: processCoreCtx: %v", eng.name, err)
		}
		if !bytes.Equal(respBytes(t, &Response{inner: resp}), want) {
			t.Fatalf("%s: response differs from the oracle's", eng.name)
		}
		mods = append(mods, st.ModMuls)
	}
	if mods[1] != mods[0] || mods[2] != mods[0] {
		t.Fatalf("products per query built/loaded/recovered = %v, want all equal", mods)
	}
	if mods[0] != ost.ModMuls {
		t.Fatalf("served schedule spent %d products, the oracle on NewLiveServer's schedule %d: want equal", mods[0], ost.ModMuls)
	}
}
