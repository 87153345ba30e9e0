// Recursive PIR through the router: the grid splits across partitions
// by block, each partition answers level 1 only over its window, and
// the router combines the partial matrices and runs level 2 locally.
// The proof obligations mirror the flat battery: byte-identity against
// a single-process reference on the same corpus, and a loud refusal —
// never silent corruption — when the router's block map has gone stale
// against a re-partitioned cluster.
package cluster_test

import (
	"bytes"
	"math"
	"net"
	"strings"
	"testing"

	"embellish"
	"embellish/internal/detrand"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// TestClusterRecursiveByteIdentity: a recursive fetch routed across
// three partitions returns the exact bytes a single-process engine
// serves, with each protocol's upload at the routed width and the partition
// legs visible in the aggregated stats.
func TestClusterRecursiveByteIdentity(t *testing.T) {
	w := newWorld(t)
	w.grow(t, 9)
	fetchIDs := []int{templateDocs, templateDocs + 4, templateDocs + 7}

	refDocs, refSt, err := w.client.FetchDocumentsRemote(w.refConn, fetchIDs)
	if err != nil {
		t.Fatalf("reference flat fetch: %v", err)
	}
	_, flatSt, err := w.client.FetchDocumentsRemote(w.routerConn, fetchIDs)
	if err != nil {
		t.Fatalf("router flat fetch: %v", err)
	}

	w.client.SetFetchRecursive(true)
	defer w.client.SetFetchRecursive(false)
	recRef, _, err := w.client.FetchDocumentsRemote(w.refConn, fetchIDs)
	if err != nil {
		t.Fatalf("reference recursive fetch: %v", err)
	}
	recDocs, recSt, err := w.client.FetchDocumentsRemote(w.routerConn, fetchIDs)
	if err != nil {
		t.Fatalf("router recursive fetch: %v", err)
	}
	for i, id := range fetchIDs {
		if string(refDocs[i]) != w.texts[id] {
			t.Fatalf("reference fetched doc %d mangled: %q", id, refDocs[i])
		}
		if !bytes.Equal(recDocs[i], refDocs[i]) {
			t.Fatalf("router recursive fetch of doc %d differs from reference: %q vs %q", id, recDocs[i], refDocs[i])
		}
		if !bytes.Equal(recRef[i], refDocs[i]) {
			t.Fatalf("reference recursive fetch of doc %d differs from its flat fetch", id)
		}
	}
	if recSt.Runs != refSt.Runs {
		t.Fatalf("recursive fetch ran %d executions, flat ran %d", recSt.Runs, refSt.Runs)
	}
	// Routing changes neither protocol's upload: the flat fetch sends a
	// seeded entry per document at the width of its class view in the
	// router's mapping and a byte per further column, the recursive one at
	// most 3*ceil(sqrt(n)) group elements a query at the router's block
	// count n.
	merged := blockMapping(t, w.routerConn)
	n, layout := merged.NumBlocks, merged.Layout()
	want := flatSt.Runs - flatSt.Vectors
	for _, id := range fetchIDs {
		h, _, _ := layout.Place(id)
		want += wire.SeededEntryBytes(layout.Widths()[h], h, 0)
	}
	if flatSt.QueryBytes != want {
		t.Fatalf("routed flat fetch uploaded %d query bytes, want %d", flatSt.QueryBytes, want)
	}
	r, c := pir.RecursiveGrid(n)
	if r+c > 3*int(math.Ceil(math.Sqrt(float64(n)))) || recSt.QueryBytes%(recSt.Runs*(r+c)) != 0 {
		t.Fatalf("routed recursive fetch uploaded %d query bytes for %d queries: not %d group elements each, or over 3*ceil(sqrt(%d))", recSt.QueryBytes, recSt.Runs, r+c, n)
	}
	// Partition legs are level-1-only answers, counted by the workers
	// and surfaced through the router's aggregated stats.
	agg, err := embellish.ServerStats(w.routerConn)
	if err != nil {
		t.Fatalf("router stats: %v", err)
	}
	if agg.PIRRecursivePartials == 0 {
		t.Fatal("no recursive partition legs counted across the cluster")
	}
	if agg.PIRRecursiveQueries != agg.PIRRecursivePartials {
		t.Fatalf("workers counted %d recursive queries but %d partials; clients never send level-1-only frames",
			agg.PIRRecursiveQueries, agg.PIRRecursivePartials)
	}
}

// TestClusterRecursiveStaleMapRefused: a router slicing against an
// epoch from before a re-partition must be refused by the shrunken
// partition — the Span handshake — and relay that refusal to the
// client instead of combining matrices from mismatched grids.
func TestClusterRecursiveStaleMapRefused(t *testing.T) {
	w := newWorld(t)
	w.grow(t, 9)

	// Pin the epoch on a raw connection: params first, exactly like a
	// client, so the router caches this connection's slicing snapshot.
	conn := dial(t, w.routerAddr)
	if err := wire.WritePIRParamsRequest(conn); err != nil {
		t.Fatal(err)
	}
	body, err := readTyped(t, conn, wire.TypePIRParams)
	if err != nil {
		t.Fatalf("params via router: %v", err)
	}
	params, err := wire.DecodePIRParams(body)
	if err != nil {
		t.Fatal(err)
	}

	w.repartition(t)

	key, err := pir.GenerateKey(detrand.New("stale-map"), 96)
	if err != nil {
		t.Fatal(err)
	}
	q, err := key.NewRecursiveQuery(detrand.New("stale-map-q"), params.NumBlocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WritePIRRecursiveQuery(conn, []*pir.RecursiveQuery{q}); err != nil {
		t.Fatal(err)
	}
	typ, ebody, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError {
		t.Fatalf("stale-epoch recursive query answered type %d, want a refusal", typ)
	}
	if !strings.Contains(string(ebody), "re-partitioned") {
		t.Fatalf("refusal does not name the stale map: %s", ebody)
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

// TestClusterRecursiveLevel2DecodesStoredBytes speaks the recursive
// frame to the router directly, under a one-word key (the packed word
// kernel in RecursiveLevel2) and a wide one (its big.Int reference): the
// partials of three partitions, multiplied by the router and
// re-encrypted a byte per ciphertext, must decode to the bytes the
// document store holds — for one grown document per owning partition,
// and zeros for a template block grow() tombstoned on all of them.
func TestClusterRecursiveLevel2DecodesStoredBytes(t *testing.T) {
	w := newWorld(t)
	w.grow(t, 9)
	conn := dial(t, w.routerAddr)
	if err := wire.WritePIRParamsRequest(conn); err != nil {
		t.Fatal(err)
	}
	body, err := readTyped(t, conn, wire.TypePIRParams)
	if err != nil {
		t.Fatalf("params via router: %v", err)
	}
	params, err := wire.DecodePIRParams(body)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{64, 96} {
		key, err := pir.GenerateKey(detrand.New("level2-stored"), bits)
		if err != nil {
			t.Fatal(err)
		}
		docs := []int{templateDocs, templateDocs + 4, templateDocs + 8, 2}
		qs := make([]*pir.RecursiveQuery, len(docs))
		for i, id := range docs {
			if qs[i], err = key.NewRecursiveQuery(detrand.New("level2-stored-q"), params.NumBlocks, int(params.Exts[id].First)); err != nil {
				t.Fatal(err)
			}
		}
		if err := wire.WritePIRRecursiveQuery(conn, qs); err != nil {
			t.Fatal(err)
		}
		modBytes := (key.N.BitLen() + 7) / 8
		for i, id := range docs {
			body, err := readTyped(t, conn, wire.TypePIRBatchResponse)
			if err != nil {
				t.Fatalf("%d-bit key, document %d: %v", bits, id, err)
			}
			idx, ans, err := wire.DecodePIRBatchAnswer(body)
			if err != nil || idx != i {
				t.Fatalf("%d-bit key: answer index %d (err %v), want %d", bits, idx, err, i)
			}
			if want := 8 * params.BlockSize * modBytes; len(ans.Gammas) != want {
				t.Fatalf("%d-bit key: answer holds %d ciphertexts, want %d (one per image byte)", bits, len(ans.Gammas), want)
			}
			decoded, err := key.DecodeRecursive(ans, params.BlockSize)
			if err != nil {
				t.Fatalf("%d-bit key, document %d: %v", bits, id, err)
			}
			want := w.texts[id][:min(len(w.texts[id]), params.BlockSize)]
			if params.Exts[id].Deleted {
				want = strings.Repeat("\x00", len(want))
			}
			if got := pir.ColumnBytes(decoded)[:len(want)]; string(got) != want {
				t.Fatalf("%d-bit key, document %d: first block %q, want %q", bits, id, got, want)
			}
		}
	}
}
