// The fetch hello through the router: the router digests the merged
// block mapping and answers a client's hello unchanged or changed by it,
// while its own requests to the partitions stay the empty request; every
// answer, the partitions' and the router's, travels packed. The retired
// single-query frames get one refusal each on a connection that survives.
package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"embellish"
	"embellish/internal/cluster"
	"embellish/internal/detrand"
	"embellish/internal/vbyte"
	"embellish/internal/wire"
)

func TestClusterHelloThroughRouter(t *testing.T) {
	raw, texts := templateEngine(t)
	cfg := embellish.ServeConfig{AllowUpdates: true, AllowRetrieval: true}
	var parts []cluster.Partition
	for p := 0; p < 3; p++ {
		addr, _ := serve(t, loadEngine(t, raw, false), cfg)
		parts = append(parts, cluster.Partition{Endpoints: []string{addr}})
	}
	r, err := cluster.NewRouter(cluster.Config{Base: templateDocs, Partitions: parts, Deadline: 5 * time.Second, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(l)
	t.Cleanup(func() { r.Shutdown(context.Background()) })
	conn := &teeConn{inner: dial(t, l.Addr().String())}
	client, err := loadEngine(t, raw, false).NewClient(detrand.New("cluster-hello"))
	if err != nil {
		t.Fatal(err)
	}
	all := make(map[int]string, len(texts)+1)
	for id, text := range texts {
		all[id] = text
	}
	// fetch fetches ids over the router, checks the bytes, and returns
	// the params reply and the answer frames it downloaded.
	fetch := func(ids ...int) (wire.ParamsReply, [][]byte) {
		t.Helper()
		conn.wrote.Reset()
		conn.read.Reset()
		got, _, err := client.FetchDocumentsRemote(conn, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if string(got[i]) != all[id] {
				t.Fatalf("doc %d through the router: %q, want %q", id, got[i], all[id])
			}
		}
		var reply wire.ParamsReply
		var answers [][]byte
		for rd := bytes.NewReader(conn.read.Bytes()); rd.Len() > 0; {
			typ, body, err := wire.ReadMessage(rd)
			if err != nil {
				t.Fatal(err)
			}
			switch typ {
			case wire.TypePIRParams:
				if reply, err = wire.DecodePIRParamsReply(body); err != nil {
					t.Fatal(err)
				}
			case wire.TypePIRBatchResponse:
				answers = append(answers, body)
			default:
				t.Fatalf("the router answered type %d: %s", typ, body)
			}
		}
		return reply, answers
	}

	cold, _ := fetch(1, 7)
	if !cold.Changed {
		t.Fatalf("the cold hello's reply: %+v", cold)
	}
	warm, answers := fetch(1, 7)
	if warm.Changed || warm.Digest != cold.Digest {
		t.Fatalf("the warm hello's reply: %+v, want unchanged under %x", warm, cold.Digest)
	}
	if len(answers) != 2 {
		t.Fatalf("%d answer frames for two one-block documents", len(answers))
	}
	for i, body := range answers {
		if tail := body[vbyte.Len(uint64(i)):]; tail[0] != vbyte.Append(nil, 0)[0] {
			t.Fatalf("answer %d is not packed: %x...", i, tail[:4])
		}
	}

	// An add between two routed fetches: the next hello gets the whole
	// merged table, and the refreshed epoch addresses the new document.
	added := templateDocs
	all[added] = docText(added, lemmaList())
	if _, err := embellish.AddDocumentsRemote(dial(t, l.Addr().String()), []embellish.Document{{ID: added, Text: all[added]}}); err != nil {
		t.Fatal(err)
	}
	after, _ := fetch(added, 1)
	if !after.Changed || after.Digest == cold.Digest {
		t.Fatalf("the hello after an add: %+v", after)
	}
	if len(after.Params.Exts) != templateDocs+1 || after.Params.NumBlocks <= cold.Params.NumBlocks {
		t.Fatalf("the changed reply maps %d documents over %d blocks, the cold one %d over %d",
			len(after.Params.Exts), after.Params.NumBlocks, len(cold.Params.Exts), cold.Params.NumBlocks)
	}
}

// TestClusterRetiredFramesRefusedInPlace: a router of two partitions
// answers a type-10 and a type-11 frame — the retired one-query fetch —
// with exactly one unknown-type refusal each, and a fetch on the same
// connection then returns the stored bytes.
func TestClusterRetiredFramesRefusedInPlace(t *testing.T) {
	raw, texts := templateEngine(t)
	cfg := embellish.ServeConfig{AllowRetrieval: true}
	var parts []*batchSniffer
	for p := 0; p < 2; p++ {
		addr, _ := serve(t, loadEngine(t, raw, false), cfg)
		parts = append(parts, sniffBatches(t, addr))
	}
	conn := routeThrough(t, parts...)
	for _, typ := range []byte{10, 11} {
		if err := wire.WriteRaw(conn, typ, []byte{0x81, 0x87}); err != nil {
			t.Fatal(err)
		}
		got, body, err := wire.ReadMessage(conn)
		if err != nil || got != wire.TypeError || string(body) != fmt.Sprintf("unexpected message type %d", typ) {
			t.Fatalf("a type-%d frame answered type %d %q, %v", typ, got, body, err)
		}
	}
	client, err := loadEngine(t, raw, false).NewClient(detrand.New("cluster-retired"))
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{1, 6}
	got, _, err := client.FetchDocumentsRemote(conn, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if string(got[i]) != texts[id] {
			t.Fatalf("doc %d through the router: %q, want %q", id, got[i], texts[id])
		}
	}
}
