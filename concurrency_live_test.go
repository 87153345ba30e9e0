package embellish

import (
	"testing"

	"embellish/internal/wire"
)

// TestRemoteUpdatesDisabledByDefault checks a default NetServer refuses
// admin frames (opt-in gate) while continuing to serve queries.
func TestRemoteUpdatesDisabledByDefault(t *testing.T) {
	e, c := testEngine(t)
	srv := e.NewNetServer(ServeConfig{})
	conn := dialNetServer(t, srv)
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
	conn := dialNetServer(t, srv)

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
