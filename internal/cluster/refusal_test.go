package cluster_test

import (
	"bytes"
	"math/big"
	"net"
	"testing"
	"time"

	"embellish"
	"embellish/internal/benaloh"
	"embellish/internal/cluster"
	"embellish/internal/core"
	"embellish/internal/detrand"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// TestServedPathRefusesWithoutWordForm: a frame whose modulus has no
// Montgomery form is refused before any work, on a NetServer and through
// a router of two partitions alike. Ranking frames (types 1, 4 and 20)
// at an even modulus or with a flag >= n, a seeded type-12 frame and a
// type-23 frame at an even modulus each get exactly one wire error,
// PIRModMuls does not move, and the connection then serves honest
// searches and fetches, flat and recursive.
func TestServedPathRefusesWithoutWordForm(t *testing.T) {
	raw, texts := templateEngine(t)
	cfg := embellish.ServeConfig{AllowRetrieval: true}
	serverAddr, _ := serve(t, loadEngine(t, raw, false), cfg)
	rcfg := cluster.Config{Base: templateDocs, Deadline: 5 * time.Second, Backoff: time.Millisecond}
	for p := 0; p < 2; p++ {
		addr, _ := serve(t, loadEngine(t, raw, false), cfg)
		rcfg.Partitions = append(rcfg.Partitions, cluster.Partition{Endpoints: []string{addr}})
	}
	r, err := cluster.NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(l)
	t.Cleanup(func() { r.Shutdown(t.Context()) })

	local := loadEngine(t, raw, false)
	client, err := local.NewClient(detrand.New("cluster-refusal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetRetrievalKeyBits(64); err != nil {
		t.Fatal(err)
	}
	lemmas := local.SearchableLemmas()
	query := lemmas[0] + " " + lemmas[len(lemmas)/2]
	eq, err := client.Embellish(query)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := eq.WireFrame()
	if err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadMessage(bytes.NewReader(frame))
	if err != nil || typ != wire.TypeQuery {
		t.Fatalf("query frame type %d: %v", typ, err)
	}
	honest, err := wire.DecodeQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	n := honest.Pub.N
	evenQ := &core.Query{
		Pub:     &benaloh.PublicKey{N: new(big.Int).Lsh(n, 1), G: honest.Pub.G, R: honest.Pub.R},
		Entries: honest.Entries,
	}
	wideQ := &core.Query{Pub: honest.Pub, Entries: append([]core.QueryEntry(nil), honest.Entries...)}
	wideQ.Entries[0].Flag = new(big.Int).Add(wideQ.Entries[0].Flag, n)

	key, err := pir.GenerateKey(detrand.New("cluster-refusal-pir"), 64)
	if err != nil {
		t.Fatal(err)
	}
	evenN := new(big.Int).Lsh(key.N, 1)

	for _, target := range []struct {
		name string
		addr string
	}{{"server", serverAddr}, {"router", l.Addr().String()}} {
		conn := dial(t, target.addr)
		params := blockMapping(t, conn)
		const doc = 5
		h, col, _ := params.Layout().Place(doc)
		seeded, err := key.NewSeededQuery(detrand.New("cluster-refusal-seeded"), params.Layout().Widths()[h], col)
		if err != nil {
			t.Fatal(err)
		}
		seeded.N, seeded.Height = evenN, h
		rec, err := key.NewRecursiveQuery(detrand.New("cluster-refusal-rec"), params.NumBlocks, int(params.Exts[doc].First))
		if err != nil {
			t.Fatal(err)
		}
		rec.N = evenN

		type hostileFrame struct {
			name  string
			write func(w *bytes.Buffer) error
		}
		var hostile []hostileFrame
		for qname, q := range map[string]*core.Query{"even modulus": evenQ, "flag >= n": wideQ} {
			hostile = append(hostile,
				hostileFrame{"type 1, " + qname, func(w *bytes.Buffer) error { return wire.WriteQuery(w, q) }},
				hostileFrame{"type 4, " + qname, func(w *bytes.Buffer) error { return wire.WriteBatchQuery(w, []*core.Query{q}) }},
				hostileFrame{"type 20, " + qname, func(w *bytes.Buffer) error { return wire.WriteQueryDecoy(w, q) }},
			)
		}
		hostile = append(hostile,
			hostileFrame{"type 12, seeded", func(w *bytes.Buffer) error { return wire.WritePIRBatchQuery(w, []*pir.Query{seeded}) }},
			hostileFrame{"type 23", func(w *bytes.Buffer) error { return wire.WritePIRRecursiveQuery(w, []*pir.RecursiveQuery{rec}) }},
		)

		before, err := embellish.ServerStats(conn)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hostile {
			label := target.name + ", " + h.name
			var buf bytes.Buffer
			if err := h.write(&buf); err != nil {
				t.Fatalf("%s: writing the frame: %v", label, err)
			}
			if _, err := conn.Write(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			rtyp, rbody, err := wire.ReadMessage(conn)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if rtyp != wire.TypeError {
				t.Fatalf("%s: answered type %d, want one error", label, rtyp)
			}
			// The next frame's answer is the stats reply, not a second
			// answer to the refused frame.
			after, err := embellish.ServerStats(conn)
			if err != nil {
				t.Fatalf("%s (refused with %q): stats on the same connection: %v", label, rbody, err)
			}
			if after.PIRModMuls != before.PIRModMuls {
				t.Fatalf("%s: PIRModMuls moved from %d to %d", label, before.PIRModMuls, after.PIRModMuls)
			}
		}

		// Honest traffic on the same connection.
		if _, err := client.SearchRemote(conn, query, 5); err != nil {
			t.Fatalf("%s: search after the refusals: %v", target.name, err)
		}
		ids := []int{1, doc}
		for _, recursive := range []bool{false, true} {
			client.SetFetchRecursive(recursive)
			got, _, err := client.FetchDocumentsRemote(conn, ids)
			if err != nil {
				t.Fatalf("%s: fetch (recursive %v) after the refusals: %v", target.name, recursive, err)
			}
			for i, id := range ids {
				if string(got[i]) != texts[id] {
					t.Fatalf("%s: doc %d (recursive %v): %q, want %q", target.name, id, recursive, got[i], texts[id])
				}
			}
		}
		client.SetFetchRecursive(false)
	}
}
