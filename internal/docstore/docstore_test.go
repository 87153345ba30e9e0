package docstore

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/pir"
)

func testDocs(n int, rng *rand.Rand) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = make([]byte, rng.Intn(100))
		rng.Read(docs[i])
	}
	return docs
}

func mustStore(t *testing.T, blockSize int, docs [][]byte) *Store {
	t.Helper()
	s, err := New(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if err := s.Add(i, d); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	return s
}

func TestStoreAddDocumentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	docs := testDocs(30, rng)
	s := mustStore(t, 16, docs)
	sn := s.Snapshot()
	if sn.NumDocs() != len(docs) {
		t.Fatalf("NumDocs = %d, want %d", sn.NumDocs(), len(docs))
	}
	for i, want := range docs {
		got, err := sn.Document(i)
		if err != nil {
			t.Fatalf("Document(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Document(%d) = %x, want %x", i, got, want)
		}
	}
	if _, err := sn.Document(len(docs)); err == nil {
		t.Fatal("unassigned id readable")
	}
	if err := s.Add(len(docs)+1, []byte("gap")); err == nil {
		t.Fatal("non-dense id accepted")
	}
}

// TestDeletePadsBlocksOut is the tombstone-padding invariant: deleting
// a document keeps its blocks allocated (zeroed), so no other
// document's extent moves and the block count never shrinks.
func TestDeletePadsBlocksOut(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := testDocs(20, rng)
	s := mustStore(t, 16, docs)
	before := s.Snapshot()
	if err := s.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(7); err == nil {
		t.Fatal("double delete accepted")
	}
	after := s.Snapshot()
	if after.NumBlocks() != before.NumBlocks() {
		t.Fatalf("block count changed on delete: %d -> %d", before.NumBlocks(), after.NumBlocks())
	}
	for i := range docs {
		b, _ := before.Extent(i)
		a, ok := after.Extent(i)
		if !ok || a.First != b.First || a.Blocks != b.Blocks {
			t.Fatalf("extent %d moved on delete: %+v -> %+v", i, b, a)
		}
	}
	if _, err := after.Document(7); err == nil {
		t.Fatal("deleted document readable")
	}
	// The deleted region reads as zeros through the PIR path.
	ext, _ := after.Extent(7)
	for i := 0; i < int(ext.Blocks); i++ {
		if !bytes.Equal(after.blocks[int(ext.First)+i], make([]byte, 16)) {
			t.Fatalf("deleted block %d not zeroed", i)
		}
	}
	// The OLD snapshot still reads the deleted document: snapshot
	// isolation.
	got, err := before.Document(7)
	if err != nil || !bytes.Equal(got, docs[7]) {
		t.Fatalf("pre-delete snapshot lost document: %v", err)
	}
}

func TestPIRFetchMatchesDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	docs := testDocs(12, rng)
	s := mustStore(t, 8, docs)
	sn := s.Snapshot()
	key, err := pir.GenerateKey(detrand.New("docstore-pir"), 128)
	if err != nil {
		t.Fatal(err)
	}
	for id := range docs {
		got, err := fetchPIR(sn, key, id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		if !bytes.Equal(got, docs[id]) {
			t.Fatalf("fetch %d = %x, want %x", id, got, docs[id])
		}
	}
}

// answerOne serves one PIR query as a batch of one — the serving path.
func answerOne(sn *Snapshot, q *pir.Query, ex pir.Exec) (*pir.Answer, error) {
	answers, _, err := sn.AnswerMultiExecCtx(context.Background(), []*pir.Query{q}, ex)
	if err != nil {
		return nil, err
	}
	return answers[0], nil
}

// fetchPIR runs the client side of a document fetch directly against a
// snapshot: one PIR execution per block, reassembled and truncated.
func fetchPIR(sn *Snapshot, key *pir.ClientKey, id int) ([]byte, error) {
	ext, ok := sn.Extent(id)
	if !ok {
		return nil, fmt.Errorf("no document %d", id)
	}
	out := make([]byte, 0, int(ext.Blocks)*sn.BlockSize())
	for i := 0; i < int(ext.Blocks); i++ {
		q, err := key.NewQuery(detrand.New(fmt.Sprintf("q-%d-%d", id, i)), sn.NumBlocks(), int(ext.First)+i)
		if err != nil {
			return nil, err
		}
		ans, err := answerOne(sn, q, pir.Exec{})
		if err != nil {
			return nil, err
		}
		out = append(out, pir.ColumnBytes(key.Decode(ans))[:sn.BlockSize()]...)
	}
	return out[:ext.Length], nil
}

// TestAnswerPrefixWidth: a query narrower than the store (built from an
// older Params, before later appends) is answered over the prefix.
func TestAnswerPrefixWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	docs := testDocs(6, rng)
	s := mustStore(t, 8, docs)
	old := s.Snapshot()
	key, err := pir.GenerateKey(detrand.New("prefix-pir"), 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(len(docs), bytes.Repeat([]byte{0xEE}, 33)); err != nil {
		t.Fatal(err)
	}
	grown := s.Snapshot()
	// Query width = OLD block count, answered by the GROWN snapshot.
	ext, _ := old.Extent(2)
	var got []byte
	for i := 0; i < int(ext.Blocks); i++ {
		q, err := key.NewQuery(detrand.New(fmt.Sprintf("p-%d", i)), old.NumBlocks(), int(ext.First)+i)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := answerOne(grown, q, pir.Exec{})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pir.ColumnBytes(key.Decode(ans))[:old.BlockSize()]...)
	}
	if !bytes.Equal(got[:ext.Length], docs[2]) {
		t.Fatalf("prefix-width fetch = %x, want %x", got[:ext.Length], docs[2])
	}
	// Wider than the store is refused.
	q, err := key.NewQuery(detrand.New("wide"), grown.NumBlocks()+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := answerOne(grown, q, pir.Exec{}); err == nil {
		t.Fatal("over-wide query answered")
	}
	if _, _, err := grown.AnswerCtx(context.Background(), q); err == nil {
		t.Fatal("over-wide query answered by the oracle")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	docs := testDocs(25, rng)
	s := mustStore(t, 16, docs)
	for _, id := range []int{3, 11, 24} {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ln := loaded.Snapshot()
	if ln.NumDocs() != len(docs) || ln.NumBlocks() != s.Snapshot().NumBlocks() {
		t.Fatalf("shape mismatch: %d docs %d blocks", ln.NumDocs(), ln.NumBlocks())
	}
	for i, want := range docs {
		got, err := ln.Document(i)
		if i == 3 || i == 11 || i == 24 {
			if err == nil {
				t.Fatalf("deleted document %d resurrected by load", i)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Document(%d) after load: %v", i, err)
		}
	}
	// Absent marker round-trips to nil.
	buf.Reset()
	if _, err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	absent, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil || absent != nil {
		t.Fatalf("absent marker: store %v err %v", absent, err)
	}
}

func TestPersistRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	s := mustStore(t, 8, testDocs(10, rng))
	var buf bytes.Buffer
	if _, err := Write(&buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, corrupt := range []func([]byte){
		func(b []byte) { b[len(b)/2] ^= 0x41 }, // payload flip
		func(b []byte) { b[len(b)-1] ^= 0x41 }, // checksum flip
		func(b []byte) { b[0] = 'X' },          // magic
	} {
		bad := append([]byte(nil), good...)
		corrupt(bad)
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupt section accepted")
		}
	}
	for _, cut := range []int{0, 3, 6, len(good) / 2, len(good) - 1} {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestFromPartsRezeroesDeleted: a tampered file carrying live bytes in
// a deleted document's blocks loads with those blocks re-zeroed — the
// padding invariant is restored, not trusted.
func TestFromPartsRezeroesDeleted(t *testing.T) {
	raw := bytes.Repeat([]byte{0xAB}, 3*8)
	exts := []Extent{
		{First: 0, Blocks: 1, Length: 5, Crc: crc32.ChecksumIEEE(raw[:5])},
		{First: 1, Blocks: 2, Length: 9, Deleted: true},
	}
	s, err := FromParts(8, exts, raw)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	for b := 1; b <= 2; b++ {
		if !bytes.Equal(sn.blocks[b], make([]byte, 8)) {
			t.Fatalf("deleted block %d not re-zeroed on load", b)
		}
	}
	// Tiling violations are rejected.
	if _, err := FromParts(8, []Extent{{First: 1, Blocks: 1, Length: 3}}, raw[:16]); err == nil {
		t.Fatal("non-tiling extents accepted")
	}
	if _, err := FromParts(8, exts[:1], raw); err == nil {
		t.Fatal("uncovered trailing blocks accepted")
	}
	// Tampered live bytes fail the content checksum.
	bad := append([]byte(nil), raw...)
	bad[2] ^= 0x55
	if _, err := FromParts(8, exts, bad); err == nil {
		t.Fatal("checksum-violating document bytes accepted")
	}
}

func TestSnapshotIsolationUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	docs := testDocs(10, rng)
	s := mustStore(t, 8, docs)
	sn := s.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := s.Add(10+i, []byte("churn churn churn")); err != nil {
				t.Error(err)
				return
			}
			if err := s.Delete(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		id := i % 10
		got, err := sn.Document(id)
		if err != nil || !bytes.Equal(got, docs[id]) {
			t.Fatalf("pinned snapshot changed under churn: doc %d, %v", id, err)
		}
	}
	<-done
}

// TestAnswerExecMatchesMatrixUnderChurn is the acceptance property of
// the serving path: under a random interleaving of adds and deletes,
// for EVERY live document and every one of its blocks, the executor's
// gammas (AnswerMultiExecCtx) are byte-identical to the sequential
// oracle (AnswerCtx) AND to that oracle over a bit matrix the test
// materializes from the documents' bytes, not from the store's columns
// — and they decode to the stored block.
func TestAnswerExecMatchesMatrixUnderChurn(t *testing.T) {
	const blockSize = 8
	key, err := pir.GenerateKey(detrand.New("exec-churn-pir"), 96)
	if err != nil {
		t.Fatal(err)
	}
	execs := []pir.Exec{{}, {Workers: 2, Window: 3}, {Workers: 4, Window: 1}, {Workers: 3, Window: 8}}
	rng := rand.New(rand.NewSource(19))
	s := mustStore(t, blockSize, testDocs(6, rng))
	deleted := map[int]bool{}
	for op := 0; op < 8; op++ {
		// Churn: add a small batch or tombstone a live doc.
		if rng.Intn(2) == 0 || len(deleted) >= s.Snapshot().NumDocs()-2 {
			base := s.Snapshot().NumDocs()
			if err := s.AddBatch(base, testDocs(1+rng.Intn(2), rng)); err != nil {
				t.Fatalf("op %d add: %v", op, err)
			}
		} else {
			for {
				id := rng.Intn(s.Snapshot().NumDocs())
				if deleted[id] {
					continue
				}
				if err := s.Delete(id); err != nil {
					t.Fatalf("op %d delete %d: %v", op, id, err)
				}
				deleted[id] = true
				break
			}
		}

		sn := s.Snapshot()
		// Materialize the snapshot as the reference bit matrix, one
		// column per block, cut from the documents' bytes.
		matrix := make([][]byte, sn.NumBlocks())
		for b := range matrix {
			if matrix[b], err = fetchBlockClear(sn, b); err != nil {
				t.Fatal(err)
			}
		}
		for id := 0; id < sn.NumDocs(); id++ {
			ext, _ := sn.Extent(id)
			if ext.Deleted {
				continue
			}
			want, err := sn.Document(id)
			if err != nil {
				t.Fatalf("op %d doc %d: %v", op, id, err)
			}
			for b := 0; b < int(ext.Blocks); b++ {
				col := int(ext.First) + b
				q, err := key.NewQuery(detrand.New(fmt.Sprintf("ec-%d-%d-%d", op, id, b)), sn.NumBlocks(), col)
				if err != nil {
					t.Fatal(err)
				}
				ref, _, err := pir.ProcessColumnsCtx(context.Background(), matrix, blockSize, q)
				if err != nil {
					t.Fatal(err)
				}
				seq, _, err := sn.AnswerCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seq.Image, ref.Image) {
					t.Fatalf("op %d doc %d block %d: AnswerCtx differs from the materialized matrix", op, id, b)
				}
				for _, ex := range execs {
					got, err := answerOne(sn, q, ex)
					if err != nil {
						t.Fatalf("exec %+v: %v", ex, err)
					}
					if !bytes.Equal(got.Image, ref.Image) {
						t.Fatalf("op %d doc %d block %d exec %+v: gammas differ from the materialized matrix", op, id, b, ex)
					}
				}
				// The decoded block carries the document's bytes for this
				// extent position (zero-padded past Length).
				lo := b * blockSize
				hi := lo + blockSize
				if hi > len(want) {
					hi = len(want)
				}
				dec := pir.ColumnBytes(key.Decode(seq))[:blockSize]
				if lo < len(want) && !bytes.Equal(dec[:hi-lo], want[lo:hi]) {
					t.Fatalf("op %d doc %d block %d: decoded bytes diverge", op, id, b)
				}
			}
		}
	}
	if len(deleted) == 0 {
		t.Fatal("churn never deleted anything; property undertested")
	}
}

// fetchBlockClear reads one raw block through the document extents —
// the test-side mirror of the layout (blocks are not exported).
func fetchBlockClear(sn *Snapshot, b int) ([]byte, error) {
	for id := 0; id < sn.NumDocs(); id++ {
		ext, _ := sn.Extent(id)
		if b < int(ext.First) || b >= int(ext.First)+int(ext.Blocks) {
			continue
		}
		if ext.Deleted {
			return make([]byte, sn.BlockSize()), nil
		}
		doc, err := sn.Document(id)
		if err != nil {
			return nil, err
		}
		out := make([]byte, sn.BlockSize())
		lo := (b - int(ext.First)) * sn.BlockSize()
		if lo < len(doc) {
			copy(out, doc[lo:])
		}
		return out, nil
	}
	return nil, fmt.Errorf("block %d not covered by any extent", b)
}
