// The fetch hello through the router: the router digests the merged
// block mapping and answers a client's hello unchanged or changed by it,
// while its own requests to the partitions stay the empty request; every
// answer, the partitions' and the router's, travels packed. The retired
// single-query frames and the recursive frame get one refusal each on a
// connection that survives.
package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"embellish"
	"embellish/internal/cluster"
	"embellish/internal/detrand"
	"embellish/internal/pir"
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

// TestClusterFlatStaleMapRefused: a connection pins its epoch with the
// hello, worker 2 is then re-partitioned down to the template corpus,
// and seeded type-12 frames for each grown document — one at its view's
// full width, one at the prefix ending with the document — must be
// refused with wire.StaleMapRefusal or decode to the document's stored
// bytes, never to other bytes. A full-width frame reaches worker 2,
// which lost its grown documents, so some frame is refused; a prefix
// that ends before worker 2's columns never reaches it, so some frame
// decodes.
func TestClusterFlatStaleMapRefused(t *testing.T) {
	w := newWorld(t)
	w.grow(t, 9)
	conn := dial(t, w.routerAddr)
	if err := wire.WritePIRHello(conn, nil); err != nil {
		t.Fatal(err)
	}
	body, err := readTyped(t, conn, wire.TypePIRParams)
	if err != nil {
		t.Fatalf("hello via router: %v", err)
	}
	reply, err := wire.DecodePIRParamsReply(body)
	if err != nil {
		t.Fatal(err)
	}
	layout := reply.Params.Layout()
	w.repartition(t)

	key, err := pir.GenerateKey(detrand.New("flat-stale-map"), 64)
	if err != nil {
		t.Fatal(err)
	}
	refused, decoded := 0, 0
	for id := templateDocs; id < templateDocs+9; id++ {
		h, col, k := layout.Place(id)
		for _, width := range []int{layout.Widths()[h], col + k} {
			q, err := key.NewSeededQuery(detrand.New("flat-stale-map-q"), width, col)
			if err != nil {
				t.Fatal(err)
			}
			q.Height = h
			qs := []*pir.Query{q}
			for len(qs) < k {
				qs = append(qs, qs[len(qs)-1].Next())
			}
			if err := wire.WritePIRBatchQuery(conn, qs); err != nil {
				t.Fatal(err)
			}
			var got []byte
			for i := range qs {
				typ, body, err := wire.ReadMessage(conn)
				if err != nil {
					t.Fatal(err)
				}
				if typ == wire.TypeError {
					if !strings.HasPrefix(string(body), wire.StaleMapRefusal) {
						t.Fatalf("document %d at width %d: refused without naming the stale mapping: %s", id, width, body)
					}
					refused++
					got = nil
					break
				}
				if typ != wire.TypePIRBatchResponse {
					t.Fatalf("document %d at width %d: answered type %d", id, width, typ)
				}
				idx, ans, err := wire.DecodePIRBatchAnswer(body)
				if err != nil || idx != i {
					t.Fatalf("document %d at width %d: answer %d: index %d, %v", id, width, i, idx, err)
				}
				got = append(got, pir.ColumnBytes(key.Decode(ans))...)
			}
			if got == nil {
				continue
			}
			if text := w.texts[id]; string(got[:min(len(got), len(text))]) != text {
				t.Fatalf("document %d at width %d decodes to %q, want the stored %q", id, width, got, text)
			}
			decoded++
		}
	}
	if refused == 0 || decoded == 0 {
		t.Fatalf("%d frames refused and %d decoded; want some of each, as worker 2 lost its grown documents and the other partitions did not", refused, decoded)
	}
}

// TestClusterRetiredFramesRefusedInPlace: a router of two partitions
// answers a type-10 and a type-11 frame — the retired one-query fetch —
// and a type-23 frame — the recursive fetch, which a router does not
// serve — with exactly one unknown-type refusal each, a type-12 entry at
// height 0 (the block array) with one wire.ViewRefusal, and a flat fetch
// on the same connection then returns the stored bytes.
func TestClusterRetiredFramesRefusedInPlace(t *testing.T) {
	raw, texts := templateEngine(t)
	cfg := embellish.ServeConfig{AllowRetrieval: true}
	var parts []*batchSniffer
	for p := 0; p < 2; p++ {
		addr, _ := serve(t, loadEngine(t, raw, false), cfg)
		parts = append(parts, sniffBatches(t, addr))
	}
	conn := routeThrough(t, parts...)
	for _, typ := range []byte{10, 11, wire.TypePIRRecursiveQuery} {
		if err := wire.WriteRaw(conn, typ, []byte{0x81, 0x87}); err != nil {
			t.Fatal(err)
		}
		got, body, err := wire.ReadMessage(conn)
		if err != nil || got != wire.TypeError || string(body) != fmt.Sprintf("unexpected message type %d", typ) {
			t.Fatalf("a type-%d frame answered type %d %q, %v", typ, got, body, err)
		}
	}
	// Modulus 35, one written-out entry of width 1 at height 0, the value 2.
	if err := wire.WriteRaw(conn, wire.TypePIRBatchQuery, []byte{0x81, 0x23, 0x81, 0x81, 0x80, 0x81, 0x02}); err != nil {
		t.Fatal(err)
	}
	if got, body, err := wire.ReadMessage(conn); err != nil || got != wire.TypeError || !strings.HasPrefix(string(body), wire.ViewRefusal+": query 0 has height 0") {
		t.Fatalf("a height-0 entry answered type %d %q, %v", got, body, err)
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

// readTyped reads one frame, failing the test on transport errors and
// returning a peer refusal as an error.
func readTyped(t *testing.T, conn net.Conn, want byte) ([]byte, error) {
	t.Helper()
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	switch typ {
	case want:
		return body, nil
	case wire.TypeError:
		return nil, &refusalError{string(body)}
	default:
		t.Fatalf("answered type %d, wanted %d", typ, want)
		return nil, nil
	}
}

type refusalError struct{ msg string }

func (e *refusalError) Error() string { return e.msg }
