// Package docstore lays live document bytes out into fixed-size PIR
// blocks, completing the paper's second privacy stage: after ranking
// privately, the client fetches the winning documents without revealing
// which ones won.
//
// The block array is the store's layout and its persisted form. A flat
// fetch reads it through class views: a document of b >= 1 blocks is in
// class h = min(b, H), where H = Heights(BlockSize), and fills
// k = ceil(b/h) consecutive columns of h blocks each (the last one
// zero-padded) in view h — the Kushilevitz-Ostrovsky PIR database of the
// documents of its class, one column per document of at most H blocks.
// The client maps a ranked document id to its class and columns through
// the public Params (Params.Layout) and runs one PIR protocol execution
// per column. A column is never a copy: each document's blocks are
// windows on one slab, and so are its view columns.
//
// Layout invariants, chosen so the mapping every client holds stays
// valid under concurrent corpus churn:
//
//   - append-only blocks: a document's blocks are allocated once, at
//     dense positions continuing the previous document's, and NEVER
//     move — index segment appends and merges do not touch the store.
//     Each view lists its documents in First order, so views are
//     append-only and prefix-stable too;
//   - tombstone padding: deleting a document ZEROES its blocks and its
//     view columns in place but keeps them allocated (padded out, not
//     skipped), so no later document's offsets shift and the block and
//     column counts a client learned from an old Params never shrink.
//     Compacting deleted blocks away would leak churn through offsets —
//     an observer of two Params could diff them — and would invalidate
//     in-flight fetches;
//   - snapshot isolation: readers pin an immutable Snapshot (blocks
//     and views are copy-on-write per document) and are never blocked
//     by writers.
//
// What the server learns from a fetch: the class of each fetched
// document — the height its frame names — and, for a document taller
// than H blocks, its column count; never which document of the class.
// Deployments that consider length a secret should pad documents to a
// common size before adding them, which makes one class the whole store.
package docstore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
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

// MaxColumnBytes bounds a view column: it is the largest column whose
// answer — 8*MaxColumnBytes gammas at the wire's widest modulus, 1,024
// bytes behind a two-byte length each — fits one 64 MiB wire frame.
const MaxColumnBytes = 8176

// Heights returns H, the tallest column at blockSize, in blocks: a store
// has views of heights 1..H. It is 7 at 1 KiB blocks, and 1 for blocks
// over MaxColumnBytes/2.
func Heights(blockSize int) int {
	return max(1, MaxColumnBytes/max(blockSize, 1))
}

// class returns the view a document of b blocks sits in and the columns
// it fills there under the tallest height hmax; an empty document has
// neither.
func class(b, hmax int) (h, k int) {
	if b == 0 {
		return 0, 0
	}
	h = min(b, hmax)
	return h, (b + h - 1) / h
}

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
// stays internally consistent forever. Its one mutable part is a cache
// of derived data: the transposition of each height, which the first
// complete flat scan of that height fills.
type Snapshot struct {
	blockSize int
	blocks    [][]byte // each exactly blockSize bytes, immutable
	exts      []Extent // indexed by document id
	// views[h], h in 1..H, are the columns of view h, each h*blockSize
	// bytes; views[0] is unused (height 0 is the block array).
	views  [][][]byte
	layout *Layout // where each document sits in views
	// pats[h] is the transposition cache of the height-h database (the
	// block array at 0), filled by its first complete flat scan. It lives
	// and dies with the snapshot: a write publishes empty ones.
	pats []pir.Transposition
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

// Layout places the documents of one block mapping in their class views.
// It is a function of the Params alone, so a client derives it once per
// mapping and addresses exactly the columns the server holds.
type Layout struct {
	blockSize int
	exts      []Extent
	widths    []int    // widths[h]: the columns of view h; widths[0] the blocks
	cols      []uint32 // cols[id]: the document's first column in its view
}

// newLayout returns the layout of a mapping of exts over numBlocks
// blocks with no document placed yet: cols has a slot per document.
func newLayout(blockSize, numBlocks int, exts []Extent) *Layout {
	l := &Layout{blockSize: blockSize, exts: exts, widths: make([]int, Heights(blockSize)+1), cols: make([]uint32, len(exts))}
	l.widths[0] = numBlocks
	return l
}

// put places document id, of b blocks, at the end of its class view and
// returns the view, the document's first column there and the columns
// it fills. It is the one placement rule: the store applies it as it
// appends, Params.Layout as it replays a mapping in First order.
func (l *Layout) put(id, b int) (h, col, k int) {
	h, k = class(b, len(l.widths)-1)
	if k == 0 {
		return 0, 0, 0
	}
	col = l.widths[h]
	l.cols[id], l.widths[h] = uint32(col), col+k
	return h, col, k
}

// Layout returns the class views of the mapping: each view lists its
// documents in First order. In a store that is id order; in a router's
// merged mapping it is partition-major, so each partition's documents are
// one contiguous range of every view.
func (p Params) Layout() *Layout {
	l := newLayout(p.BlockSize, p.NumBlocks, p.Exts)
	order := make([]int, len(p.Exts))
	for id := range order {
		order[id] = id
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(p.Exts[a].First, p.Exts[b].First) })
	for _, id := range order {
		l.put(id, int(p.Exts[id].Blocks))
	}
	return l
}

// Layout returns the snapshot's class views, as Params.Layout derives
// them from its mapping. It is shared and immutable.
func (sn *Snapshot) Layout() *Layout { return sn.layout }

// Widths returns the column count of every view, indexed by height: [0]
// is the block count and [h] the width of view h, for h in 1..H. The
// slice is shared and must not be mutated.
func (l *Layout) Widths() []int { return l.widths }

// Place returns where document id sits: its class h, its first column in
// view h and the k columns it fills there. An empty document has h = 0
// and k = 0: it has no column.
func (l *Layout) Place(id int) (h, col, k int) {
	h, k = class(int(l.exts[id].Blocks), len(l.widths)-1)
	return h, int(l.cols[id]), k
}

// ColumnBytes returns the byte height of a column of view h: h blocks,
// or one for the block array (height 0).
func (l *Layout) ColumnBytes(h int) int { return max(h, 1) * l.blockSize }

// AnswerMultiExecCtx runs the server side of a batch of k >= 1 PIR
// executions in one database pass (the flat executor,
// pir.ProcessColumnsMultiExecCtx): ex.Workers partitions column groups
// and ex.Window pins the window width. The column bytes are transposed
// once per snapshot and height, by the first complete scan of that
// database, and later scans fold from those patterns (the snapshot sets
// ex.Patterns; a caller's is ignored). The queries' Height names
// the database: 0 is the block array, one column per block, and h in
// 1..H is view h, one column of h blocks per document of class h. The
// batch addresses the FIRST len(qs[0].Values) columns of it: accepting
// any width up to the current column count keeps fetches valid across
// concurrent appends — a client querying against an older Params simply
// addresses the prefix that existed when it fetched the mapping. All
// queries must share one modulus, one height and one prefix width
// (callers group mixed batches); answers come back in batch order with
// per-query Stats, and a cancelled scan returns no answers but the Stats
// of the multiplications actually performed.
func (sn *Snapshot) AnswerMultiExecCtx(ctx context.Context, qs []*pir.Query, ex pir.Exec) ([]*pir.Answer, []pir.Stats, error) {
	if len(qs) == 0 {
		return nil, nil, errors.New("docstore: empty PIR batch")
	}
	for _, q := range qs[1:] {
		if q.Height != qs[0].Height {
			return nil, nil, errors.New("docstore: a PIR batch mixes column heights")
		}
	}
	cols, colBytes, err := sn.columns(qs[0])
	if err != nil {
		return nil, nil, err
	}
	ex.Patterns = &sn.pats[qs[0].Height]
	return pir.ProcessColumnsMultiExecCtx(ctx, cols, colBytes, qs, ex)
}

// AnswerCtx answers one PIR execution through the sequential oracle
// (pir.ProcessColumnsCtx) — one modular multiplication per addressed
// corpus bit, the paper's Section 5.2 cost model, under the same height
// and prefix addressing. Tests and cost-model baselines compare against
// it; serving goes through AnswerMultiExecCtx, which returns the
// identical gammas.
func (sn *Snapshot) AnswerCtx(ctx context.Context, q *pir.Query) (*pir.Answer, pir.Stats, error) {
	cols, colBytes, err := sn.columns(q)
	if err != nil {
		return nil, pir.Stats{}, err
	}
	return pir.ProcessColumnsCtx(ctx, cols, colBytes, q)
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

// columns returns the prefix of the database a PIR query addresses and
// its column height in bytes, validating the query's height and width.
func (sn *Snapshot) columns(q *pir.Query) ([][]byte, int, error) {
	w := len(q.Values)
	if w < 1 {
		return nil, 0, errors.New("docstore: empty PIR query")
	}
	if q.Height == 0 {
		if w > len(sn.blocks) {
			return nil, 0, fmt.Errorf("docstore: query addresses %d blocks, store holds %d", w, len(sn.blocks))
		}
		return sn.blocks[:w], sn.blockSize, nil
	}
	if q.Height < 0 || q.Height >= len(sn.views) {
		return nil, 0, fmt.Errorf("docstore: no view of height %d (the tallest is %d)", q.Height, len(sn.views)-1)
	}
	view := sn.views[q.Height]
	if w > len(view) {
		return nil, 0, fmt.Errorf("docstore: query addresses %d columns, view %d holds %d", w, q.Height, len(view))
	}
	return view[:w], q.Height * sn.blockSize, nil
}

// Store is the mutable, concurrency-safe document store. Readers pin
// Snapshots and never block; Add and Delete serialize on an internal
// lock and publish new snapshots atomically.
type Store struct {
	blockSize int
	// zero is the shared all-zero column of the tallest view; tombstoning
	// swaps its prefixes in for blocks and view columns.
	zero []byte

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
	hmax := Heights(blockSize)
	s := &Store{blockSize: blockSize, zero: make([]byte, hmax*blockSize)}
	s.state.Store(&Snapshot{blockSize: blockSize, views: make([][][]byte, hmax+1), layout: newLayout(blockSize, 0, nil), pats: make([]pir.Transposition, hmax+1)})
	return s, nil
}

// zeroColumn returns the shared all-zero column of h blocks (h >= 1).
func (s *Store) zeroColumn(h int) []byte {
	n := h * s.blockSize
	return s.zero[:n:n]
}

// FromParts reassembles a store from persisted parts: the extents in
// document-id order and the raw concatenated block bytes. It validates
// the append-only tiling invariant (extents are dense and consecutive)
// and re-zeroes tombstoned documents' blocks, restoring the padding
// invariant even from a file whose deleted regions were tampered with.
// Blocks and view columns are windows on raw; only the zero-padded last
// column of a document taller than H blocks is a copy.
func FromParts(blockSize int, exts []Extent, raw []byte) (*Store, error) {
	s, err := New(blockSize)
	if err != nil {
		return nil, err
	}
	B := s.blockSize
	if len(raw)%B != 0 {
		return nil, fmt.Errorf("docstore: %d block bytes are not a multiple of block size %d", len(raw), B)
	}
	numBlocks := len(raw) / B
	blocks := make([][]byte, numBlocks)
	for i := range blocks {
		blocks[i] = raw[i*B : (i+1)*B : (i+1)*B]
	}
	layout := newLayout(B, numBlocks, slices.Clone(exts))
	views := make([][][]byte, len(layout.widths))
	next := uint32(0)
	for id, ext := range exts {
		if ext.First != next {
			return nil, fmt.Errorf("docstore: document %d starts at block %d, want %d (extents must tile)", id, ext.First, next)
		}
		if int(ext.Blocks) > numBlocks-int(next) {
			return nil, fmt.Errorf("docstore: document %d extent exceeds the block array", id)
		}
		if ext.Length > ext.Blocks*uint32(B) || (ext.Blocks > 0 && ext.Length <= (ext.Blocks-1)*uint32(B)) {
			return nil, fmt.Errorf("docstore: document %d length %d does not fit %d blocks", id, ext.Length, ext.Blocks)
		}
		b, first := int(ext.Blocks), int(ext.First)
		if ext.Deleted {
			for i := 0; i < b; i++ {
				blocks[first+i] = s.zeroColumn(1)
			}
		} else if ext.Length > 0 {
			doc := raw[first*B:]
			if crc32.ChecksumIEEE(doc[:ext.Length]) != ext.Crc {
				return nil, fmt.Errorf("docstore: document %d bytes do not match its checksum", id)
			}
		}
		h, _, k := layout.put(id, b)
		for c := 0; c < k; c++ {
			lo, hi := (first+c*h)*B, (first+(c+1)*h)*B
			switch {
			case ext.Deleted:
				views[h] = append(views[h], s.zeroColumn(h))
			case c*h+h > b: // the padded tail
				col := make([]byte, h*B)
				copy(col, raw[lo:(first+b)*B])
				views[h] = append(views[h], col)
			default:
				views[h] = append(views[h], raw[lo:hi:hi])
			}
		}
		next += ext.Blocks
	}
	if int(next) != numBlocks {
		return nil, fmt.Errorf("docstore: extents cover %d blocks, store holds %d", next, numBlocks)
	}
	s.state.Store(&Snapshot{blockSize: B, blocks: blocks, exts: layout.exts, views: views, layout: layout, pats: make([]pir.Transposition, len(views))})
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
// the batch-ingest path: the block, extent and view slices are copied
// once per batch, not once per document. Each document is one slab of
// its k columns, zero-padded; its blocks and its view columns are
// windows on that slab.
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
	B := s.blockSize
	newBlocks := 0
	for i, data := range docs {
		// uint64 comparison: int(^uint32(0)) would wrap negative on
		// 32-bit platforms.
		if uint64(len(data)) > uint64(^uint32(0)) {
			return fmt.Errorf("docstore: document %d of %d bytes is too large", base+i, len(data))
		}
		newBlocks += (len(data) + B - 1) / B
	}
	// Fresh backing arrays sized for the whole batch: older snapshots
	// never alias them, and the copy happens once per batch. The views
	// are clipped, so the first append to one copies it.
	blocks := make([][]byte, len(cur.blocks), len(cur.blocks)+newBlocks)
	copy(blocks, cur.blocks)
	exts := make([]Extent, len(cur.exts), len(cur.exts)+len(docs))
	copy(exts, cur.exts)
	layout := &Layout{blockSize: B, widths: slices.Clone(cur.layout.widths), cols: make([]uint32, len(cur.exts)+len(docs))}
	copy(layout.cols, cur.layout.cols)
	views := slices.Clone(cur.views)
	for h := range views {
		views[h] = slices.Clip(views[h])
	}
	for i, data := range docs {
		b := (len(data) + B - 1) / B
		h, _, k := layout.put(base+i, b)
		slab := make([]byte, k*h*B)
		copy(slab, data)
		for j := 0; j < b; j++ {
			blocks = append(blocks, slab[j*B:(j+1)*B:(j+1)*B])
		}
		for c := 0; c < k; c++ {
			views[h] = append(views[h], slab[c*h*B:(c+1)*h*B:(c+1)*h*B])
		}
		exts = append(exts, Extent{
			First:  uint32(len(blocks) - b),
			Blocks: uint32(b),
			Length: uint32(len(data)),
			Crc:    crc32.ChecksumIEEE(data),
		})
	}
	layout.exts, layout.widths[0] = exts, len(blocks)
	s.state.Store(&Snapshot{blockSize: B, blocks: blocks, exts: exts, views: views, layout: layout, pats: make([]pir.Transposition, len(views))})
	return nil
}

// Delete tombstones one document; see DeleteBatch.
func (s *Store) Delete(id int) error {
	return s.DeleteBatch([]int{id})
}

// DeleteBatch tombstones documents in one snapshot swap: their blocks
// and view columns are swapped for the shared zero column — padded out
// in place, never compacted away — so every other document's offsets
// survive and the churn is not observable through the layout. Every id
// must be live (repeats within the batch count as already deleted); the
// batch is validated in full before anything is applied.
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
	blocks := slices.Clone(cur.blocks)
	exts := slices.Clone(cur.exts)
	views := slices.Clone(cur.views)
	cloned := make([]bool, len(views))
	for _, id := range ids {
		ext := exts[id]
		for i := 0; i < int(ext.Blocks); i++ {
			blocks[int(ext.First)+i] = s.zeroColumn(1)
		}
		h, col, k := cur.layout.Place(id)
		if k > 0 && !cloned[h] {
			views[h], cloned[h] = slices.Clone(views[h]), true
		}
		for c := 0; c < k; c++ {
			views[h][col+c] = s.zeroColumn(h)
		}
		exts[id].Deleted = true
	}
	layout := *cur.layout
	layout.exts = exts
	s.state.Store(&Snapshot{blockSize: s.blockSize, blocks: blocks, exts: exts, views: views, layout: &layout, pats: make([]pir.Transposition, len(views))})
	return nil
}
