package docstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/pir"
)

// viewBlockSize makes the tallest view three blocks: H = 8176/2048.
const viewBlockSize = 2048

// sizedDoc is a random document of exactly blocks blocks (0: empty),
// its last block cut short when short is set.
func sizedDoc(rng *rand.Rand, blocks int, short bool) []byte {
	n := blocks * viewBlockSize
	if short && blocks > 0 {
		n -= 1 + rng.Intn(viewBlockSize-1)
	}
	doc := make([]byte, n)
	rng.Read(doc)
	return doc
}

// checkViews holds a snapshot's class views to the layout its Params
// derive: every column of view h is the h blocks of its document at that
// position — zero past the document's last block, and all zeros for a
// deleted document — and the layout the snapshot keeps is the one a
// client derives from the mapping.
func checkViews(t *testing.T, label string, sn *Snapshot) {
	t.Helper()
	if Heights(sn.BlockSize()) != len(sn.views)-1 {
		t.Fatalf("%s: %d views at %d-byte blocks", label, len(sn.views)-1, sn.BlockSize())
	}
	mine, theirs := sn.Layout(), sn.Params().Layout()
	if fmt.Sprint(mine.Widths()) != fmt.Sprint(theirs.Widths()) {
		t.Fatalf("%s: the snapshot's views are %v wide, the mapping's %v", label, mine.Widths(), theirs.Widths())
	}
	covered := make([]int, len(sn.views))
	for id := 0; id < sn.NumDocs(); id++ {
		h, col, k := mine.Place(id)
		if h2, col2, k2 := theirs.Place(id); h2 != h || col2 != col || k2 != k {
			t.Fatalf("%s: doc %d sits at view %d column %d (%d columns), the mapping says %d, %d (%d)", label, id, h, col, k, h2, col2, k2)
		}
		ext, _ := sn.Extent(id)
		if k == 0 {
			if ext.Blocks != 0 {
				t.Fatalf("%s: doc %d of %d blocks has no column", label, id, ext.Blocks)
			}
			continue
		}
		want := make([]byte, k*h*viewBlockSize)
		if !ext.Deleted {
			doc, err := sn.Document(id)
			if err != nil {
				t.Fatal(err)
			}
			copy(want, doc)
		}
		for j := 0; j < k; j++ {
			got := sn.views[h][col+j]
			if !bytes.Equal(got, want[j*h*viewBlockSize:(j+1)*h*viewBlockSize]) {
				t.Fatalf("%s: doc %d column %d of view %d holds other bytes", label, id, j, h)
			}
		}
		covered[h] += k
	}
	for h := 1; h < len(sn.views); h++ {
		if covered[h] != len(sn.views[h]) {
			t.Fatalf("%s: view %d has %d columns, its documents fill %d", label, h, len(sn.views[h]), covered[h])
		}
	}
}

// TestClassViewsUnderChurn: through batches of documents of 0 to 7 blocks
// (classes 1, 2 and 3 = H, and documents of H+1 to H+4 blocks that fill
// two and three columns of view 3, padded or exact), deletes, and a
// persisted round trip, every view holds exactly its documents' bytes in
// First order. The views of an added document are windows on its blocks
// — no column is a copy — and a loaded store slices the file's bytes for
// every column but a padded tail.
func TestClassViewsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s, err := New(viewBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	live := []int{}
	for op := 0; op < 12; op++ {
		if op%3 == 2 && len(live) > 2 {
			i := rng.Intn(len(live))
			if err := s.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			base := s.Snapshot().NumDocs()
			batch := make([][]byte, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = sizedDoc(rng, rng.Intn(8), rng.Intn(2) == 0)
				live = append(live, base+i)
			}
			if err := s.AddBatch(base, batch); err != nil {
				t.Fatal(err)
			}
		}
		checkViews(t, fmt.Sprintf("op %d", op), s.Snapshot())
	}
	sn := s.Snapshot()
	for _, id := range live {
		ext, _ := sn.Extent(id)
		h, col, k := sn.Layout().Place(id)
		for j := 0; j < k; j++ {
			if blocks := int(ext.Blocks) - j*h; blocks > 0 && &sn.views[h][col+j][0] != &sn.blocks[int(ext.First)+j*h][0] {
				t.Fatalf("doc %d column %d is a copy of its blocks", id, j)
			}
		}
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, sn); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ln := loaded.Snapshot()
	checkViews(t, "loaded", ln)
	for id := 0; id < ln.NumDocs(); id++ {
		ext, _ := ln.Extent(id)
		h, col, k := ln.Layout().Place(id)
		for j := 0; j < k; j++ {
			padded := (j+1)*h > int(ext.Blocks)
			if aliased := &ln.views[h][col+j][0] == &ln.blocks[int(ext.First)+j*h][0]; aliased == padded && !ext.Deleted {
				t.Fatalf("loaded doc %d column %d: aliases the block bytes %v, padded %v", id, j, aliased, padded)
			}
		}
	}
}

// TestAnswerClassViewColumns: a query names its database by height, and
// the executor's gammas over a view column decode to the document's
// bytes and equal the sequential oracle's. A height with no view, a
// query wider than its view, and a batch mixing heights are refused.
func TestAnswerClassViewColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s, err := New(viewBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{sizedDoc(rng, 1, true), sizedDoc(rng, 2, false), sizedDoc(rng, 5, true), sizedDoc(rng, 2, true), sizedDoc(rng, 0, false)}
	if err := s.AddBatch(0, docs); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	layout := sn.Layout()
	key, err := pir.GenerateKey(detrand.New("views-pir"), 64)
	if err != nil {
		t.Fatal(err)
	}
	for id, doc := range docs {
		h, col, k := layout.Place(id)
		var got []byte
		for j := 0; j < k; j++ {
			q, err := key.NewQuery(detrand.New(fmt.Sprintf("views-%d-%d", id, j)), layout.Widths()[h], col+j)
			if err != nil {
				t.Fatal(err)
			}
			q.Height = h
			ans, err := answerOne(sn, q, pir.Exec{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := sn.AnswerCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ans.Image, ref.Image) {
				t.Fatalf("doc %d column %d: the executor and the oracle disagree", id, j)
			}
			got = append(got, pir.ColumnBytes(key.Decode(ans))[:layout.ColumnBytes(h)]...)
		}
		if !bytes.Equal(got[:len(doc)], doc) {
			t.Fatalf("doc %d of view %d fetched other bytes", id, h)
		}
	}
	q, err := key.NewQuery(detrand.New("views-refused"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		height int
		want   string
	}{{4, "no view of height 4"}, {3, "query addresses 3 columns, view 3 holds 2"}} {
		q.Height = tc.height
		if _, err := answerOne(sn, q, pir.Exec{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("height %d: %v, want %q", tc.height, err, tc.want)
		}
	}
	q.Height = 2
	other := &pir.Query{N: q.N, Values: q.Values, Height: 1}
	if _, _, err := sn.AnswerMultiExecCtx(context.Background(), []*pir.Query{q, other}, pir.Exec{}); err == nil {
		t.Fatal("a batch mixing heights was answered")
	}
}

// TestTranspositionPerSnapshot: each height of a snapshot is transposed
// once, by its first complete flat scan, and every scan — cold, warm,
// replacing the cached transposition, or transposing per call — returns
// the oracle's gammas and exactly the Stats of a scan without the cache,
// at one, two and three workers. View 1 at 1 KiB blocks holds 8,192 rows,
// where a batch of one picks window 9 and a batch of two window 10. A
// write publishes a snapshot that scans the appended or zeroed columns,
// and the older snapshot keeps serving its own bytes.
func TestTranspositionPerSnapshot(t *testing.T) {
	const blockSize = 1024
	rng := rand.New(rand.NewSource(36))
	s, err := New(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	// View 1 gets 23 columns, view 2 four; the block array 31, with the
	// two-block documents among the others so that no view's columns are
	// a prefix of it.
	var docs [][]byte
	for i := 0; i < 27; i++ {
		blocks := 1
		if i%7 == 3 {
			blocks = 2
		}
		doc := make([]byte, blocks*blockSize-rng.Intn(blockSize))
		rng.Read(doc)
		docs = append(docs, doc)
	}
	if err := s.AddBatch(0, docs); err != nil {
		t.Fatal(err)
	}
	key, err := pir.GenerateKey(detrand.New("transposition-pir"), 64)
	if err != nil {
		t.Fatal(err)
	}
	type scan struct{ height, width, batch, workers int }
	run := func(label string, sn *Snapshot, scans []scan) {
		t.Helper()
		for n, sc := range scans {
			qs := make([]*pir.Query, sc.batch)
			for i := range qs {
				q, err := key.NewQuery(detrand.New(fmt.Sprintf("%s-%d-%d", label, n, i)), sc.width, (7*i+n)%sc.width)
				if err != nil {
					t.Fatal(err)
				}
				q.Height = sc.height
				qs[i] = q
			}
			ex := pir.Exec{Workers: sc.workers}
			got, st, err := sn.AnswerMultiExecCtx(context.Background(), qs, ex)
			if err != nil {
				t.Fatalf("%s, scan %+v: %v", label, sc, err)
			}
			cols, colBytes, err := sn.columns(qs[0])
			if err != nil {
				t.Fatal(err)
			}
			_, plainSt, err := pir.ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, qs, ex)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(st, plainSt) {
				t.Errorf("%s, scan %+v: Stats %v, a scan without the cache %v", label, sc, st, plainSt)
			}
			for i, q := range qs {
				ref, _, err := sn.AnswerCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[i].Image, ref.Image) {
					t.Fatalf("%s, scan %+v: query %d differs from the oracle", label, sc, i)
				}
			}
		}
	}
	old := s.Snapshot()
	run("first snapshot", old, []scan{
		{1, 23, 1, 1}, // cold at window 9
		{1, 23, 1, 3}, // warm
		{1, 23, 2, 2}, // window 10 replaces it
		{1, 23, 2, 3}, // warm
		{1, 23, 1, 2}, // window 9 again: per call
		{1, 20, 2, 1}, // an older prefix on a group edge
		{1, 15, 2, 3}, // and one ending mid-group
		{2, 4, 2, 2},  // cold, then warm
		{2, 4, 2, 1},
		{0, 31, 2, 2}, // the block array: cold, then warm
		{0, 31, 2, 3},
	})
	grown := make([][]byte, 3)
	for i := range grown {
		grown[i] = make([]byte, blockSize-rng.Intn(blockSize))
		rng.Read(grown[i])
	}
	if err := s.AddBatch(len(docs), grown); err != nil {
		t.Fatal(err)
	}
	run("after AddBatch", s.Snapshot(), []scan{
		{1, 26, 2, 2}, // cold over the appended columns, then warm
		{1, 26, 2, 3},
		{1, 23, 2, 1}, // the prefix an older mapping addresses
		{0, 34, 2, 2},
	})
	if err := s.DeleteBatch([]int{0, 4, 11, 24}); err != nil {
		t.Fatal(err)
	}
	run("after DeleteBatch", s.Snapshot(), []scan{
		{1, 26, 2, 2}, // the zeroed columns, cold then warm
		{1, 26, 2, 1},
		{2, 4, 2, 3},
		{0, 34, 2, 2},
		{0, 34, 2, 1},
	})
	run("first snapshot again", old, []scan{
		{1, 23, 2, 2},
		{2, 4, 2, 1},
		{0, 31, 2, 3},
	})
}
