// Package docstore lays live document bytes out into fixed-size PIR
// blocks, completing the paper's second privacy stage: after ranking
// privately, the client fetches the winning documents without revealing
// which ones won. The server treats the block array as one
// Kushilevitz-Ostrovsky PIR database (one column per block); the client
// maps a ranked document id to its block range through the public
// Params and runs one PIR protocol execution per block.
//
// Layout invariants, chosen so the mapping every client holds stays
// valid under concurrent corpus churn:
//
//   - append-only blocks: a document's blocks are allocated once, at
//     dense positions continuing the previous document's, and NEVER
//     move — index segment appends and merges do not touch the store;
//   - tombstone padding: deleting a document ZEROES its blocks in
//     place but keeps them allocated (padded out, not skipped), so no
//     later document's offsets shift and the block count a client
//     learned from an old Params never shrinks. Compacting deleted
//     blocks away would leak churn through offsets — an observer of
//     two Params could diff them — and would invalidate in-flight
//     fetches;
//   - snapshot isolation: readers pin an immutable Snapshot (blocks
//     are copy-on-write per document) and are never blocked by
//     writers.
//
// What the server learns from a fetch: only the NUMBER of PIR
// executions, i.e. the block count of the fetched document — never
// which blocks. Deployments that consider length a secret should pad
// documents to a common size before adding them.
package docstore

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"embellish/internal/pir"
)

// DefaultBlockSize is the PIR block size applied when a store is
// created with size 0.
const DefaultBlockSize = 512

// MaxBlockSize bounds the block size: 8*MaxBlockSize is the PIR answer
// row count, which the client must be able to hold and test.
const MaxBlockSize = 1 << 20

// Extent maps one document id onto the block array.
type Extent struct {
	// First is the index of the document's first block; blocks are
	// contiguous, so the document occupies [First, First+Blocks).
	First uint32
	// Blocks is the number of blocks the document occupies (0 for an
	// empty document).
	Blocks uint32
	// Length is the document's true byte length; the last block is
	// zero-padded past it.
	Length uint32
	// Crc is the IEEE CRC-32 of the document bytes, fixed at add time.
	// Fetch clients verify reassembled bytes against it: a document
	// deleted between the mapping fetch and the last block fetch decodes
	// as (partially) zeroed blocks, which would otherwise be returned
	// silently.
	Crc uint32
	// Deleted marks a tombstoned document: its blocks remain allocated
	// (zeroed) so later documents' offsets never shift.
	Deleted bool
}

// Snapshot is one immutable state of a Store: the block array and the
// per-document extents. Concurrent readers use it without locks; it
// stays internally consistent forever.
type Snapshot struct {
	blockSize int
	blocks    [][]byte // each exactly blockSize bytes, immutable
	exts      []Extent // indexed by document id
}

// BlockSize returns the fixed block size in bytes.
func (sn *Snapshot) BlockSize() int { return sn.blockSize }

// NumBlocks returns the number of blocks in the PIR database.
func (sn *Snapshot) NumBlocks() int { return len(sn.blocks) }

// NumDocs returns the number of documents ever added (tombstoned ones
// included — their extents are padding, not gaps).
func (sn *Snapshot) NumDocs() int { return len(sn.exts) }

// Extent returns the block extent of document id, and whether the id
// has ever been assigned.
func (sn *Snapshot) Extent(id int) (Extent, bool) {
	if id < 0 || id >= len(sn.exts) {
		return Extent{}, false
	}
	return sn.exts[id], true
}

// Document returns a copy of the document's bytes, read directly (in
// the clear — the server-side path; clients fetch through PIR). It
// errors for ids never assigned and for tombstoned documents.
func (sn *Snapshot) Document(id int) ([]byte, error) {
	ext, ok := sn.Extent(id)
	if !ok {
		return nil, fmt.Errorf("docstore: document %d does not exist", id)
	}
	if ext.Deleted {
		return nil, fmt.Errorf("docstore: document %d is deleted", id)
	}
	out := make([]byte, ext.Length)
	for i := 0; i < int(ext.Blocks); i++ {
		lo := i * sn.blockSize
		hi := lo + sn.blockSize
		if hi > len(out) {
			hi = len(out)
		}
		copy(out[lo:hi], sn.blocks[int(ext.First)+i])
	}
	return out, nil
}

// Params is the public block mapping a client needs to turn ranked
// document ids into PIR queries. It reveals nothing a conventional
// engine would not: sizes and liveness are server-side metadata; the
// privacy guarantee is about WHICH document a client fetches.
type Params struct {
	BlockSize int
	NumBlocks int
	Exts      []Extent
}

// Params returns the snapshot's block mapping. The extents slice is
// shared with the snapshot and must not be mutated.
func (sn *Snapshot) Params() Params {
	return Params{BlockSize: sn.blockSize, NumBlocks: len(sn.blocks), Exts: sn.exts}
}

// AnswerMultiExecCtx runs the server side of a batch of k >= 1 PIR
// executions in one database pass (the flat executor,
// pir.ProcessColumnsMultiExecCtx): the block bytes are read and
// transposed once for the whole batch, ex.Workers partitions column
// groups and ex.Window pins the window width. The batch addresses the
// FIRST len(qs[0].Values) blocks: accepting any width up to the current
// block count keeps fetches valid across concurrent appends — a client
// querying against an older Params simply addresses the prefix that
// existed when it fetched the mapping. All queries must share one
// modulus and one prefix width (callers group mixed-width batches);
// answers come back in batch order with per-query Stats, and a
// cancelled scan returns no answers but the Stats of the
// multiplications actually performed.
func (sn *Snapshot) AnswerMultiExecCtx(ctx context.Context, qs []*pir.Query, ex pir.Exec) ([]*pir.Answer, []pir.Stats, error) {
	if len(qs) == 0 {
		return nil, nil, errors.New("docstore: empty PIR batch")
	}
	w, err := sn.queryWidth(qs[0])
	if err != nil {
		return nil, nil, err
	}
	return pir.ProcessColumnsMultiExecCtx(ctx, sn.blocks[:w], sn.blockSize, qs, ex)
}

// AnswerCtx answers one PIR execution through the sequential oracle
// (pir.ProcessColumnsCtx) — one modular multiplication per addressed
// corpus bit, the paper's Section 5.2 cost model, under the same prefix
// addressing. Tests and cost-model baselines compare against it;
// serving goes through AnswerMultiExecCtx, which returns the identical
// gammas.
func (sn *Snapshot) AnswerCtx(ctx context.Context, q *pir.Query) (*pir.Answer, pir.Stats, error) {
	w, err := sn.queryWidth(q)
	if err != nil {
		return nil, pir.Stats{}, err
	}
	return pir.ProcessColumnsCtx(ctx, sn.blocks[:w], sn.blockSize, q)
}

// AnswerRecursiveMultiExecCtx answers a batch of k >= 1 recursive
// (two-level) PIR queries in one level-1 database pass: the block array
// is treated as the √n×√n grid the queries' shape declares, and each
// answer is the recursively-encrypted target block (or the level-1
// gamma matrix for partition-mode queries from a cluster router).
// Blocks past the queries' window — including blocks appended after the
// client fetched its Params — are simply absent from the grid, so
// fetches stay valid across concurrent appends exactly like the flat
// path. All queries must share one modulus and one grid shape; answers
// come back in batch order with per-query Stats.
func (sn *Snapshot) AnswerRecursiveMultiExecCtx(ctx context.Context, qs []*pir.RecursiveQuery, ex pir.Exec) ([]*pir.Answer, []pir.Stats, error) {
	return pir.ProcessColumnsRecursiveMultiExecCtx(ctx, sn.blocks, sn.blockSize, qs, ex)
}

// queryWidth validates a PIR query's width against the block array.
func (sn *Snapshot) queryWidth(q *pir.Query) (int, error) {
	w := len(q.Values)
	if w < 1 {
		return 0, errors.New("docstore: empty PIR query")
	}
	if w > len(sn.blocks) {
		return 0, fmt.Errorf("docstore: query addresses %d blocks, store holds %d", w, len(sn.blocks))
	}
	return w, nil
}

// Store is the mutable, concurrency-safe document store. Readers pin
// Snapshots and never block; Add and Delete serialize on an internal
// lock and publish new snapshots atomically.
type Store struct {
	blockSize int
	zero      []byte // the shared all-zero block tombstoning swaps in

	mu    sync.Mutex
	state atomic.Pointer[Snapshot]
}

// New creates an empty store. blockSize 0 selects DefaultBlockSize.
func New(blockSize int) (*Store, error) {
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < 1 || blockSize > MaxBlockSize {
		return nil, fmt.Errorf("docstore: block size %d out of range [1, %d]", blockSize, MaxBlockSize)
	}
	s := &Store{blockSize: blockSize, zero: make([]byte, blockSize)}
	s.state.Store(&Snapshot{blockSize: blockSize})
	return s, nil
}

// FromParts reassembles a store from persisted parts: the extents in
// document-id order and the raw concatenated block bytes. It validates
// the append-only tiling invariant (extents are dense and consecutive)
// and re-zeroes tombstoned documents' blocks, restoring the padding
// invariant even from a file whose deleted regions were tampered with.
func FromParts(blockSize int, exts []Extent, raw []byte) (*Store, error) {
	s, err := New(blockSize)
	if err != nil {
		return nil, err
	}
	if len(raw)%s.blockSize != 0 {
		return nil, fmt.Errorf("docstore: %d block bytes are not a multiple of block size %d", len(raw), s.blockSize)
	}
	numBlocks := len(raw) / s.blockSize
	blocks := make([][]byte, numBlocks)
	for i := range blocks {
		blocks[i] = raw[i*s.blockSize : (i+1)*s.blockSize : (i+1)*s.blockSize]
	}
	next := uint32(0)
	for id, ext := range exts {
		if ext.First != next {
			return nil, fmt.Errorf("docstore: document %d starts at block %d, want %d (extents must tile)", id, ext.First, next)
		}
		if int(ext.Blocks) > numBlocks-int(next) {
			return nil, fmt.Errorf("docstore: document %d extent exceeds the block array", id)
		}
		if ext.Length > ext.Blocks*uint32(s.blockSize) || (ext.Blocks > 0 && ext.Length <= (ext.Blocks-1)*uint32(s.blockSize)) {
			return nil, fmt.Errorf("docstore: document %d length %d does not fit %d blocks", id, ext.Length, ext.Blocks)
		}
		if ext.Deleted {
			for i := 0; i < int(ext.Blocks); i++ {
				blocks[int(ext.First)+i] = s.zero
			}
		} else if ext.Length > 0 {
			doc := raw[int(ext.First)*s.blockSize:]
			if crc32.ChecksumIEEE(doc[:ext.Length]) != ext.Crc {
				return nil, fmt.Errorf("docstore: document %d bytes do not match its checksum", id)
			}
		}
		next += ext.Blocks
	}
	if int(next) != numBlocks {
		return nil, fmt.Errorf("docstore: extents cover %d blocks, store holds %d", next, numBlocks)
	}
	s.state.Store(&Snapshot{blockSize: s.blockSize, blocks: blocks, exts: append([]Extent(nil), exts...)})
	return s, nil
}

// BlockSize returns the fixed block size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// Snapshot returns the current immutable state.
func (s *Store) Snapshot() *Snapshot { return s.state.Load() }

// Add appends one document. Ids must be dense: id is required to equal
// the number of documents ever added (the engine's NextDocID
// contract), so the extent table needs no holes.
func (s *Store) Add(id int, data []byte) error {
	return s.AddBatch(id, [][]byte{data})
}

// AddBatch appends documents base, base+1, ... in one snapshot swap —
// the batch-ingest path: the block and extent slices are copied once
// per batch, not once per document.
func (s *Store) AddBatch(base int, docs [][]byte) error {
	if len(docs) == 0 {
		return errors.New("docstore: empty batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	if base != len(cur.exts) {
		return fmt.Errorf("docstore: document ids must be dense: got %d, want %d", base, len(cur.exts))
	}
	newBlocks := 0
	for i, data := range docs {
		// uint64 comparison: int(^uint32(0)) would wrap negative on
		// 32-bit platforms.
		if uint64(len(data)) > uint64(^uint32(0)) {
			return fmt.Errorf("docstore: document %d of %d bytes is too large", base+i, len(data))
		}
		newBlocks += (len(data) + s.blockSize - 1) / s.blockSize
	}
	// Fresh backing arrays sized for the whole batch: older snapshots
	// never alias them, and the copy happens once per batch.
	blocks := make([][]byte, len(cur.blocks), len(cur.blocks)+newBlocks)
	copy(blocks, cur.blocks)
	exts := make([]Extent, len(cur.exts), len(cur.exts)+len(docs))
	copy(exts, cur.exts)
	for _, data := range docs {
		nBlocks := (len(data) + s.blockSize - 1) / s.blockSize
		for j := 0; j < nBlocks; j++ {
			b := make([]byte, s.blockSize)
			copy(b, data[j*s.blockSize:])
			blocks = append(blocks, b)
		}
		exts = append(exts, Extent{
			First:  uint32(len(blocks) - nBlocks),
			Blocks: uint32(nBlocks),
			Length: uint32(len(data)),
			Crc:    crc32.ChecksumIEEE(data),
		})
	}
	s.state.Store(&Snapshot{blockSize: s.blockSize, blocks: blocks, exts: exts})
	return nil
}

// Delete tombstones one document; see DeleteBatch.
func (s *Store) Delete(id int) error {
	return s.DeleteBatch([]int{id})
}

// DeleteBatch tombstones documents in one snapshot swap: their blocks
// are swapped for the shared zero block — padded out in place, never
// compacted away — so every other document's offsets survive and the
// churn is not observable through the block layout. Every id must be
// live (repeats within the batch count as already deleted); the batch
// is validated in full before anything is applied.
func (s *Store) DeleteBatch(ids []int) error {
	if len(ids) == 0 {
		return errors.New("docstore: empty batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(cur.exts) {
			return fmt.Errorf("docstore: document %d does not exist", id)
		}
		if cur.exts[id].Deleted || seen[id] {
			return fmt.Errorf("docstore: document %d is already deleted", id)
		}
		seen[id] = true
	}
	blocks := append([][]byte(nil), cur.blocks...)
	exts := append([]Extent(nil), cur.exts...)
	for _, id := range ids {
		ext := exts[id]
		for i := 0; i < int(ext.Blocks); i++ {
			blocks[int(ext.First)+i] = s.zero
		}
		exts[id].Deleted = true
	}
	s.state.Store(&Snapshot{blockSize: s.blockSize, blocks: blocks, exts: exts})
	return nil
}
