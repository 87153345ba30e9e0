package embellish

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"

	"embellish/internal/wal"
)

// dialNetServer serves srv on a loopback listener and returns a
// connected client, with both torn down at test end.
func dialNetServer(t *testing.T, srv *NetServer) net.Conn {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// replPair builds a primary and a replica from the SAME engine bytes
// (the template-file contract: identical organization, dictionary and
// scale), each with its own durable directory.
func replPair(t *testing.T) (primary, replica *Engine) {
	t.Helper()
	seed, _, _ := storeWorld(t, 24, 128, durableOpts(t.TempDir()))
	var buf bytes.Buffer
	if err := seed.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	load := func() *Engine {
		e, err := LoadEngine(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.EnableDurability(durableOpts(t.TempDir())); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	return load(), load()
}

func TestWALRecordsAfterEdges(t *testing.T) {
	primary, _ := replPair(t)
	st, _ := primary.WALStatus()
	// Caught up: empty chunk, LastSeq echoes the cursor.
	c, err := primary.WALRecordsAfter(st.Seq, 0)
	if err != nil || len(c.Records) != 0 || c.LastSeq != st.Seq || c.More {
		t.Fatalf("caught-up chunk: %+v err %v", c, err)
	}
	// A replica claiming the future is broken, not behind.
	if _, err := primary.WALRecordsAfter(st.Seq+10, 0); err == nil {
		t.Fatal("future cursor accepted")
	}
	// Non-durable engines have no journal to ship.
	plain, _ := testEngine(t)
	if _, err := plain.WALRecordsAfter(0, 0); err == nil {
		t.Fatal("non-durable engine shipped records")
	}
}

func TestWALRecordsAfterChunking(t *testing.T) {
	primary, replica := replPair(t)
	lemmas := miniLemmas()
	for i := 0; i < 4; i++ {
		id := primary.NextDocID()
		if err := primary.AddDocuments([]Document{{ID: id, Text: storeDocText(id, lemmas)}}); err != nil {
			t.Fatal(err)
		}
	}
	// A 1-byte cap forces one record per pull; the replica still
	// converges by looping on More.
	pulls := 0
	for {
		st, _ := replica.WALStatus()
		c, err := primary.WALRecordsAfter(st.Seq, 1)
		if err != nil {
			t.Fatal(err)
		}
		pulls++
		if _, err := replica.ApplyReplicated(c.Records); err != nil {
			t.Fatal(err)
		}
		if !c.More && c.LastSeq >= c.PrimarySeq {
			break
		}
		if pulls > 20 {
			t.Fatal("capped replication not converging")
		}
	}
	if pulls < 4 {
		t.Fatalf("1-byte cap converged in %d pulls", pulls)
	}
	pst, _ := primary.WALStatus()
	rst, _ := replica.WALStatus()
	if pst.Seq != rst.Seq {
		t.Fatalf("replica at %d, primary at %d", rst.Seq, pst.Seq)
	}
}

func TestApplyReplicatedDuplicatesAndGaps(t *testing.T) {
	primary, replica := replPair(t)
	lemmas := miniLemmas()
	id := primary.NextDocID()
	if err := primary.AddDocuments([]Document{{ID: id, Text: storeDocText(id, lemmas)}}); err != nil {
		t.Fatal(err)
	}
	st, _ := replica.WALStatus()
	c, err := primary.WALRecordsAfter(st.Seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := replica.ApplyReplicated(c.Records); err != nil || n != 1 {
		t.Fatalf("first apply: %d ops, %v", n, err)
	}
	// Re-applying the same chunk is a no-op, not a failure — pulls may
	// overlap after a reconnect.
	if n, err := replica.ApplyReplicated(c.Records); err != nil || n != 0 {
		t.Fatalf("duplicate apply: %d ops, %v", n, err)
	}
	// A gap (records from the future) must be refused, or the replica
	// would silently fork from the primary's history.
	rst, _ := replica.WALStatus()
	gap, err := wal.EncodeRecord(&wal.Record{
		Op:   wal.OpAddDocs,
		Seq:  rst.Seq + 2,
		Docs: []wal.DocText{{ID: uint32(replica.NextDocID()), Text: []byte("x")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.ApplyReplicated(gap); err == nil {
		t.Fatal("sequence gap applied")
	}
}

func TestAnswerWALPullOverWire(t *testing.T) {
	primary, replica := replPair(t)
	lemmas := miniLemmas()
	id := primary.NextDocID()
	if err := primary.AddDocuments([]Document{{ID: id, Text: storeDocText(id, lemmas)}}); err != nil {
		t.Fatal(err)
	}

	srv := primary.NewNetServer(ServeConfig{AllowReplication: true})
	client := dialNetServer(t, srv)

	st, _ := replica.WALStatus()
	c, err := PullWAL(client, st.Seq)
	if err != nil {
		t.Fatalf("PullWAL: %v", err)
	}
	if n, err := replica.ApplyReplicated(c.Records); err != nil || n != 1 {
		t.Fatalf("apply pulled chunk: %d ops, %v", n, err)
	}
	rst, _ := replica.WALStatus()
	if rst.Seq != c.PrimarySeq {
		t.Fatalf("replica at %d after pull, primary reported %d", rst.Seq, c.PrimarySeq)
	}
	// The connection survives for further pulls (caught up now).
	c2, err := PullWAL(client, rst.Seq)
	if err != nil || len(c2.Records) != 0 {
		t.Fatalf("caught-up pull: %+v err %v", c2, err)
	}
}

func TestWALPullRefusedWithoutOptIn(t *testing.T) {
	primary, _ := replPair(t)
	srv := primary.NewNetServer(ServeConfig{})
	client := dialNetServer(t, srv)
	_, err := PullWAL(client, 0)
	if err == nil || !strings.Contains(err.Error(), "replication is disabled") {
		t.Fatalf("pull without AllowReplication: %v", err)
	}
}

func TestReplicaStatusInStats(t *testing.T) {
	_, replica := replPair(t)
	srv := replica.NewNetServer(ServeConfig{})
	rst, _ := replica.WALStatus()
	srv.SetReplicaStatus(func() (uint64, bool) { return rst.Seq + 3, true })

	client := dialNetServer(t, srv)
	st, err := ServerStats(client)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplPrimarySeq != rst.Seq+3 {
		t.Fatalf("ReplPrimarySeq %d, want %d", st.ReplPrimarySeq, rst.Seq+3)
	}
	if st.ReplLag != 3 {
		t.Fatalf("ReplLag %d, want 3", st.ReplLag)
	}
	if !strings.Contains(string(srv.MetricsText()), "embellish_repl_lag_ops 3\n") {
		t.Fatal("repl_lag_ops missing from metrics text")
	}
}

func TestReplicationGapSurfaces(t *testing.T) {
	primary, replica := replPair(t)
	lemmas := miniLemmas()
	for i := 0; i < 3; i++ {
		id := primary.NextDocID()
		if err := primary.AddDocuments([]Document{{ID: id, Text: storeDocText(id, lemmas)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint retires the journal prefix; a replica still at 0 can no
	// longer catch up incrementally.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ := replica.WALStatus()
	_, err := primary.WALRecordsAfter(st.Seq, 0)
	if !errors.Is(err, ErrReplicationGap) {
		t.Fatalf("retired suffix: %v", err)
	}
}
