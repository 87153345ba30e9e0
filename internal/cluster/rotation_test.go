// Rotated column queries through the router: a client sends one seeded
// selection vector per document over its class view and its further
// columns as rotations; the router cuts every materialised vector into
// each partition's part of the view — the template documents a partition
// does not own as the identity — and the parts, which carry no seed,
// travel written out. A part of a rotation is NOT the rotation of the
// same part of its base — the element that wraps in comes from the
// neighbouring partition's range — so the sub-batches a partition gets
// must carry every part in full, unless one partition spans the whole
// width.
package cluster_test

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"embellish"
	"embellish/internal/cluster"
	"embellish/internal/detrand"
	"embellish/internal/docstore"
	"embellish/internal/wire"
)

// batchSniffer is a TCP proxy in front of one partition worker that
// parses the frames the router sends it and counts the type-12 frames,
// the seeded ones among them, and the rotation entries in them.
type batchSniffer struct {
	addr                       string
	batches, seeded, rotations atomic.Int64
}

func sniffBatches(t *testing.T, worker string) *batchSniffer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := &batchSniffer{addr: l.Addr().String()}
	go func() {
		for {
			down, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", worker)
			if err != nil {
				down.Close()
				continue
			}
			go func() { // worker -> router, verbatim
				io.Copy(down, up)
				down.Close()
			}()
			go func() { // router -> worker, frame by frame
				defer up.Close()
				for {
					var head [4]byte
					if _, err := io.ReadFull(down, head[:]); err != nil {
						return
					}
					frame := make([]byte, binary.LittleEndian.Uint32(head[:]))
					if _, err := io.ReadFull(down, frame); err != nil {
						return
					}
					if frame[0] == wire.TypePIRBatchQuery {
						s.batches.Add(1)
						if qs, err := wire.DecodePIRBatchQuery(frame[1:]); err == nil {
							if qs[0].Seed != nil {
								s.seeded.Add(1)
							}
							for i := 1; i < len(qs); i++ {
								if qs[i].Follows(qs[i-1]) {
									s.rotations.Add(1)
								}
							}
						}
					}
					if _, err := up.Write(append(head[:], frame...)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s
}

func routeThrough(t *testing.T, partitions ...*batchSniffer) net.Conn {
	t.Helper()
	cfg := cluster.Config{Base: templateDocs, Deadline: 5 * time.Second, Backoff: time.Millisecond}
	for _, p := range partitions {
		cfg.Partitions = append(cfg.Partitions, cluster.Partition{Endpoints: []string{p.addr}})
	}
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(l)
	t.Cleanup(func() { r.Shutdown(context.Background()) })
	return dial(t, l.Addr().String())
}

// blockMapping asks the server on conn for its block mapping.
func blockMapping(t *testing.T, conn net.Conn) docstore.Params {
	t.Helper()
	if err := wire.WritePIRParamsRequest(conn); err != nil {
		t.Fatal(err)
	}
	body, err := readTyped(t, conn, wire.TypePIRParams)
	if err != nil {
		t.Fatal(err)
	}
	params, err := wire.DecodePIRParams(body)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

func TestClusterRotatedFetchAcrossPartitionBoundaries(t *testing.T) {
	// At 4 KiB blocks the tallest view is one block, H = 1, so a document
	// of three blocks is three columns of view 1: a vector and two
	// rotations.
	const blockSize, minBytes = 4096, 2*4096 + 1
	raw, texts, err := buildTemplate(blockSize, minBytes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := embellish.ServeConfig{AllowUpdates: true, AllowRetrieval: true}
	var sniffers []*batchSniffer
	var workers []string
	for p := 0; p < 3; p++ {
		addr, _ := serve(t, loadEngine(t, raw, false), cfg)
		workers = append(workers, addr)
		sniffers = append(sniffers, sniffBatches(t, addr))
	}
	routerConn := routeThrough(t, sniffers...)
	client, err := loadEngine(t, raw, false).NewClient(detrand.New("cluster-rotation"))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetRetrievalKeyBits(64); err != nil { // a one-word key decodes 32,768-row columns fast
		t.Fatal(err)
	}

	// Two more documents per partition, one per frame, so every
	// partition's block space ends on a document ingested through the
	// router.
	lemmas := lemmaList()
	all := make(map[int]string, len(texts)+6)
	for id, text := range texts {
		all[id] = text
	}
	for g := templateDocs; g < templateDocs+6; g++ {
		all[g] = padText(docText(g, lemmas)+" "+strings.Repeat(lemmas[2+g%5]+" ", g%4), g, minBytes, lemmas)
		if _, err := embellish.AddDocumentsRemote(routerConn, []embellish.Document{{ID: g, Text: all[g]}}); err != nil {
			t.Fatalf("adding doc %d via router: %v", g, err)
		}
	}

	// Where the partitions' block ranges sit in the merged space.
	var bounds []int // bounds[p] .. bounds[p+1] is partition p
	total := 0
	for _, addr := range workers {
		bounds = append(bounds, total)
		total += blockMapping(t, dial(t, addr)).NumBlocks
	}
	bounds = append(bounds, total)
	merged := blockMapping(t, routerConn)
	if merged.NumBlocks != total {
		t.Fatalf("the router serves %d blocks, the partitions hold %d", merged.NumBlocks, total)
	}

	// Fetch every document of the corpus; the ones whose extent touches a
	// partition's first or last block are where a slice boundary sits
	// next to the non-residue and its rotations.
	starts, ends := 0, 0
	var ids []int
	for id, ext := range merged.Exts {
		if ext.Deleted || ext.Blocks < 2 {
			t.Fatalf("document %d spans %d blocks (deleted %v): the world should be all multi-block", id, ext.Blocks, ext.Deleted)
		}
		for p := range workers {
			if int(ext.First) == bounds[p] {
				starts++
			}
			if int(ext.First+ext.Blocks) == bounds[p+1] {
				ends++
			}
		}
		ids = append(ids, id)
	}
	if starts == 0 || ends != len(workers) {
		t.Fatalf("%d documents start a partition and %d end one: want at least one and %d", starts, ends, len(workers))
	}
	for at := 0; at < len(ids); at += 4 {
		batch := ids[at:min(at+4, len(ids))]
		got, st, err := client.FetchDocumentsRemote(routerConn, batch)
		if err != nil {
			t.Fatalf("fetching %v through the router: %v", batch, err)
		}
		for i, id := range batch {
			if string(got[i]) != all[id] {
				t.Fatalf("doc %d through the router: %q, want %q", id, got[i], all[id])
			}
		}
		if st.Vectors != len(batch) || st.Runs <= st.Vectors {
			t.Fatalf("fetching %v: %d vectors, %d runs — the client did not rotate", batch, st.Vectors, st.Runs)
		}
	}
	for p, s := range sniffers {
		if s.batches.Load() == 0 {
			t.Fatalf("partition %d saw no batch frame", p)
		}
		if n := s.rotations.Load(); n != 0 {
			t.Fatalf("partition %d, a slice of the width, was sent %d rotation entries", p, n)
		}
		if n := s.seeded.Load(); n != 0 {
			t.Fatalf("partition %d was sent %d seeded frames: a router's slices carry no seed", p, n)
		}
	}

	// One partition spanning the whole width: its slice of a rotation IS
	// the rotation, and the router's frame says so.
	addr, _ := serve(t, loadEngine(t, raw, false), cfg)
	whole := sniffBatches(t, addr)
	wholeConn := routeThrough(t, whole)
	got, _, err := client.FetchDocumentsRemote(wholeConn, []int{0, templateDocs - 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != texts[0] || string(got[1]) != texts[templateDocs-1] {
		t.Fatalf("through a one-partition router: %q", got)
	}
	if whole.batches.Load() == 0 || whole.rotations.Load() == 0 || whole.seeded.Load() != 0 {
		t.Fatalf("a partition spanning the whole width saw %d batch frames, %d seeded, and %d rotation entries", whole.batches.Load(), whole.seeded.Load(), whole.rotations.Load())
	}
}
