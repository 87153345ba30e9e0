package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"

	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// Batched private retrieval: a pipelining client packs up to
// MaxPIRBatch block queries — all under ONE client modulus — into a
// single TypePIRBatchQuery frame, and the server answers with one
// TypePIRBatchResponse frame per block. The server computes every answer
// of the frame's equal-width queries in one pass over the store before
// the first of them is written, so the frame, not the block, is the unit
// of overlap: the client decodes one frame's answers while the server
// scans for the next frame, and a k-block fetch costs one round-trip
// instead of k.
//
// TypePIRBatchQuery comes in two forms, told apart by the byte after
// the modulus, and each form in two shapes: with and without heights.
//
// Seeded: modulus big | 0 | query count vbyte | V big | Z big | per
// query: width vbyte | seed (pir.SeedBytes) | rotation vbyte |
// ⌈width/4⌉ code bytes — the vector pir.Seed.Expand makes of them,
// rotated that many columns up — or, for any query but the first, a
// width of 0 and nothing else: the query before it rotated one column
// up (pir.Query.Next). A vector costs two bits a column where it cost a
// group element.
//
// Written out: modulus big | query count vbyte | per query: value count
// vbyte | one group element per column — or, for any query but the
// first, a value count of 0: the query before it rotated.
//
// With heights: modulus big | 0 | 0 | the rest of either form, each
// vector entry's width or value count followed by its height vbyte
// (pir.Query.Height: 0 the block array, h >= 1 class view h of the
// store, whose columns are h blocks tall); a rotation entry has the
// height of the vector it rotates. A frame whose queries all have height
// 0 travels without heights, byte for byte the frame of a store with no
// views; the two zeros were a refused seeded count of 0 before heights
// existed. A server refuses an entry whose height names no view of its
// store, or that is wider than its view, with ViewRefusal, before any
// seed expands.
//
// A document of one view column travels as ONE selection vector; the
// k > 1 columns of a document taller than the tallest view, or the
// blocks of one in the block array, as one vector plus one zero byte per
// further column. Either way every entry is a full query to everything
// past the decoder — it counts against MaxPIRBatch, is scanned and is
// answered like any other — so the CPU a frame can demand is what it
// was; only the bytes that demand it shrink.
// TypePIRBatchResponse: query index vbyte | the packed answer
// (retrieval_hello.go), on every connection.
// Indexes are 0-based positions in the batch and arrive strictly in
// order; a per-query serving error is answered with TypeError and ends
// the batch (the connection survives).
//
// The caps are the single-query ones: the modulus ceiling bounds the
// per-bit serving cost, forged counts are rejected against the
// remaining body before any allocation, and the batch size itself is
// capped so one frame cannot commit the server to unbounded CPU.

// Batch retrieval message types (12-13; 9 is the params request, and
// 10-11, the retired single-query fetch, are refused as unknown types).
const (
	TypePIRBatchQuery    = 12
	TypePIRBatchResponse = 13
)

// MaxPIRBatch caps the block queries per batch frame. Each query in
// the batch costs the server one full database scan, so the cap (with
// the modulus ceiling) bounds the CPU a single frame can demand;
// clients with deeper pipelines split across frames.
const MaxPIRBatch = 64

// UnknownTypeRefusal is the error-body prefix servers send for an
// unrecognized message type, the retired types 10, 11 and 22 among
// them. FROZEN: it is how a peer tells a type the server does not speak
// from a frame the server refused.
const UnknownTypeRefusal = "unexpected message type"

// ViewRefusal opens the error body a server sends for a type-12 entry
// whose height names no view of its store, or that is wider than its
// view. The frame is refused whole, before any seed expands, and the
// connection serves the next frame.
const ViewRefusal = "wire: no such column view"

// SeededEntryBytes is what one vector of width columns over the database
// of height h, rotated rot columns up, costs in a seeded frame; a
// rotation entry costs one byte. A height of 0 is priced as a frame
// without heights carries it, where it costs nothing.
func SeededEntryBytes(width, h, rot int) int {
	return vbyte.Len(uint64(width)) + heightBytes(h) + pir.SeedBytes + vbyte.Len(uint64(rot)) + (width+3)/4
}

// heightBytes is what an entry's height costs in a frame with heights; a
// height of 0 is priced at nothing, as in a frame without them.
func heightBytes(h int) int {
	if h == 0 {
		return 0
	}
	return vbyte.Len(uint64(h))
}

// MaxSeededValues caps the group elements one seeded frame may expand
// to under a modulus of modBytes bytes: what a written-out frame of
// MaxFrame bytes carries at that width, so decoding a seeded frame costs
// no more memory than decoding a written-out one can.
func MaxSeededValues(modBytes int) int {
	return MaxFrame / (modBytes + 1)
}

// WritePIRBatchQuery frames and writes one batch of PIR block queries.
// Every query must carry the same modulus — the batch serializes it
// once. The batch travels seeded when every query has a seed, all under
// the same multipliers, and written out otherwise.
func WritePIRBatchQuery(w io.Writer, qs []*pir.Query) error {
	if len(qs) == 0 {
		return errors.New("wire: empty PIR batch")
	}
	if len(qs) > MaxPIRBatch {
		return fmt.Errorf("wire: PIR batch of %d queries exceeds the %d cap", len(qs), MaxPIRBatch)
	}
	var n *big.Int
	for i, q := range qs {
		if q == nil || q.N == nil || len(q.Values) == 0 {
			return fmt.Errorf("wire: nil PIR query %d in batch", i)
		}
		if q.Height < 0 {
			return fmt.Errorf("wire: PIR batch query %d has height %d", i, q.Height)
		}
		if n == nil {
			n = q.N
		} else if q.N.Cmp(n) != 0 {
			return fmt.Errorf("wire: PIR batch query %d uses a different modulus", i)
		}
	}
	if !seededBatch(qs) {
		return writeFrame(w, appendWrittenOut(n, qs))
	}
	body, err := appendSeeded(n, qs)
	if err != nil {
		return err
	}
	return writeFrame(w, body)
}

// seededBatch reports whether qs travel seeded.
func seededBatch(qs []*pir.Query) bool {
	s0 := qs[0].Seed
	for _, q := range qs {
		if q.Seed == nil || q.Seed.V == nil || q.Seed.Z == nil || q.Seed.V.Cmp(s0.V) != 0 || q.Seed.Z.Cmp(s0.Z) != 0 {
			return false
		}
	}
	return true
}

// withHeights reports whether qs travel in the shape with heights: some
// query addresses a class view.
func withHeights(qs []*pir.Query) bool {
	for _, q := range qs {
		if q.Height != 0 {
			return true
		}
	}
	return false
}

// appendHead opens a type-12 body: the type, the modulus and, for a
// frame with heights, its two zeros.
func appendHead(body []byte, n *big.Int, heights bool) []byte {
	body = append(body, TypePIRBatchQuery)
	body = appendBig(body, n)
	if heights {
		body = append(vbyte.Append(body, 0), vbyte.Append(nil, 0)...)
	}
	return body
}

// appendWrittenOut lays a batch out written out. Entry i travels as a
// zero count exactly when it IS the entry before it rotated
// (pir.Query.Follows: the same elements over the full cycle, at the same
// height); the first entry of a frame has no base and is always written
// out.
func appendWrittenOut(n *big.Int, qs []*pir.Query) []byte {
	rotated := make([]bool, len(qs))
	heights := withHeights(qs)
	size := 2*pirHeadSize + bigsSize(n)
	for i, q := range qs {
		size += 2 * pirHeadSize
		if rotated[i] = i > 0 && q.Follows(qs[i-1]); !rotated[i] {
			size += bigsSize(q.Values...)
		}
	}
	body := appendHead(make([]byte, 0, size), n, heights)
	body = vbyte.Append(body, uint64(len(qs)))
	for i, q := range qs {
		if rotated[i] {
			body = vbyte.Append(body, 0)
			continue
		}
		body = vbyte.Append(body, uint64(len(q.Values)))
		if heights {
			body = vbyte.Append(body, uint64(q.Height))
		}
		for _, v := range q.Values {
			body = appendBig(body, v)
		}
	}
	return body
}

// appendSeeded lays a batch out seeded. Entry i travels as a zero width
// exactly when it is the entry before it one column on: the same seed
// and height, the next rotation.
func appendSeeded(n *big.Int, qs []*pir.Query) ([]byte, error) {
	rotated := make([]bool, len(qs))
	heights := withHeights(qs)
	s0 := qs[0].Seed
	size, values := 3*pirHeadSize+bigsSize(n, s0.V, s0.Z), 0
	for i, q := range qs {
		width := len(q.Values)
		if q.Rot < 0 || q.Rot >= width || len(q.Seed.Codes) != (width+3)/4 {
			return nil, fmt.Errorf("wire: PIR batch query %d: its seed does not fit its %d values", i, width)
		}
		prev := qs[max(i-1, 0)]
		if rotated[i] = i > 0 && q.Seed == prev.Seed && q.Height == prev.Height && width == len(prev.Values) && q.Rot == (prev.Rot+1)%width; rotated[i] {
			size++
			continue
		}
		size += SeededEntryBytes(width, q.Height, q.Rot) + 1
		values += width
	}
	if limit := MaxSeededValues((n.BitLen() + 7) / 8); values > limit {
		return nil, fmt.Errorf("wire: seeded PIR batch of %d values exceeds the %d a frame may expand to", values, limit)
	}
	body := appendHead(make([]byte, 0, size), n, heights)
	body = vbyte.Append(body, 0)
	body = vbyte.Append(body, uint64(len(qs)))
	body = appendBig(body, s0.V)
	body = appendBig(body, s0.Z)
	for i, q := range qs {
		if rotated[i] {
			body = vbyte.Append(body, 0)
			continue
		}
		body = vbyte.Append(body, uint64(len(q.Values)))
		if heights {
			body = vbyte.Append(body, uint64(q.Height))
		}
		body = append(body, q.Seed.Key[:]...)
		body = vbyte.Append(body, uint64(q.Rot))
		body = append(body, q.Seed.Codes...)
	}
	return body, nil
}

// DecodePIRBatchQuery parses a TypePIRBatchQuery body of either form,
// with heights or without. Every value is bounded to (0, N) and the
// modulus width is capped — the answer computation costs one |N|-bit
// multiplication per database bit, so the decoder is the server's
// CPU-exhaustion gate. The query count is capped at MaxPIRBatch, and a
// height at docstore.MaxColumnBytes, the tallest view any block size has.
//
// Every entry comes back as one *pir.Query of full width, a rotation
// entry included, so nothing past the decoder knows the frame was
// compact (seeded queries keep their Seed, so the frame can be written
// again as it came). Rotations are windows, not copies: a vector of n
// values that k more entries follow is decoded into the top of one ring
// of n + k pointers, and each rotation steps the window one slot down,
// filling the slot it uncovers with the element n places up — the one
// that wrapped. Decoding therefore allocates for the values a frame
// carries plus one pointer per entry, never entries x width. The windows
// share elements (and overlap in memory), which is safe because
// everything downstream only reads Values: the executor copies before
// it reduces, the router slices.
func DecodePIRBatchQuery(body []byte) ([]*pir.Query, error) {
	return DecodePIRBatchQueryWithin(body, nil)
}

// DecodePIRBatchQueryWithin is DecodePIRBatchQuery for a server whose
// databases are widths[h] columns wide: widths[0] the block array and
// widths[h] class view h, for h up to the store's tallest
// (docstore.Layout.Widths). An entry whose height names no view, or
// that is wider than its view, is refused with ViewRefusal, and a
// seeded vector without a height that is wider than the block array is
// refused too. Every such refusal comes before anything expands,
// so the expansion one frame can demand is at most MaxPIRBatch vectors
// of a view's width. Written-out vectors without heights are read as
// they come, whatever their width: their bytes pay for them.
func DecodePIRBatchQueryWithin(body []byte, widths []int) ([]*pir.Query, error) {
	n, body, err := decodeBig(body)
	if err != nil {
		return nil, fmt.Errorf("wire: PIR batch modulus: %w", err)
	}
	if n.Sign() <= 0 || (n.BitLen()+7)/8 > maxPIRModulusBytes {
		return nil, errors.New("wire: PIR batch modulus out of range")
	}
	heights := false
	if rest, ok := leadingZero(body); ok {
		if body, heights = leadingZero(rest); !heights {
			return decodeSeeded(n, rest, widths, false)
		}
		if rest, ok := leadingZero(body); ok {
			return decodeSeeded(n, rest, widths, true)
		}
	}
	count, used, err := vbyte.Decode(body)
	if err != nil || count == 0 || count > MaxPIRBatch {
		return nil, fmt.Errorf("wire: PIR batch query count: %w", orRange(err))
	}
	body = body[used:]
	qs := make([]*pir.Query, count)
	var (
		ring   []*big.Int // the last full vector, behind room for its rotations
		at     int        // where the previous entry's window starts in ring
		width  int        // of that window
		height int        // and its database
	)
	for qi := range qs {
		nv, used, err := vbyte.Decode(body)
		if err != nil {
			return nil, fmt.Errorf("wire: PIR batch query %d value count: %w", qi, err)
		}
		// Each value costs at least 2 body bytes (length prefix + one
		// byte), so a count past half the remaining body is forged —
		// reject before allocating the pointer slice. A zero count is a
		// rotation of the entry before it: entry 0 has none.
		if (nv == 0 && qi == 0) || nv > maxPIRBlocks || nv*2 > uint64(len(body)) {
			return nil, fmt.Errorf("wire: PIR batch query %d value count: %w", qi, orRange(nil))
		}
		body = body[used:]
		if nv == 0 {
			at--
			ring[at] = ring[at+width]
		} else {
			height = 0
			if heights {
				if height, body, err = decodeHeight(body, qi, nv, widths); err != nil {
					return nil, err
				}
			}
			// At most the entries still to come can rotate this vector.
			at, width = len(qs)-1-qi, int(nv)
			ring = make([]*big.Int, at+width)
			var bad int
			if body, bad, err = decodeBigs(body, ring[at:], n); err != nil {
				return nil, bigsError(fmt.Sprintf("PIR batch query %d value", qi), bad, err)
			}
		}
		// Capacity stops at the window: an append to one query's Values
		// cannot write into its neighbour's.
		qs[qi] = &pir.Query{N: n, Values: ring[at : at+width : at+width], Height: height}
	}
	if len(body) != 0 {
		return nil, errors.New("wire: trailing bytes after PIR batch query")
	}
	return qs, nil
}

// leadingZero reports whether body opens with a vbyte 0, and what
// follows it.
func leadingZero(body []byte) ([]byte, bool) {
	v, used, err := vbyte.Decode(body)
	if err != nil || v != 0 {
		return body, false
	}
	return body[used:], true
}

// decodeHeight reads the height of entry qi, a vector of width columns,
// and refuses it with ViewRefusal when it names no view of the store
// widths describes, or is wider than its view. Without widths it refuses
// only a height no block size has.
func decodeHeight(body []byte, qi int, width uint64, widths []int) (int, []byte, error) {
	h, used, err := vbyte.Decode(body)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: PIR batch query %d height: %w", qi, err)
	}
	switch {
	case widths == nil && h > docstore.MaxColumnBytes:
		return 0, nil, fmt.Errorf("%s: query %d has height %d, past any store's tallest", ViewRefusal, qi, h)
	case widths == nil:
	case h >= uint64(len(widths)):
		return 0, nil, fmt.Errorf("%s: query %d has height %d, the store's tallest is %d", ViewRefusal, qi, h, len(widths)-1)
	case width > uint64(widths[h]):
		return 0, nil, fmt.Errorf("%s: query %d is %d columns wide, view %d holds %d", ViewRefusal, qi, width, h, widths[h])
	}
	return int(h), body[used:], nil
}

// decodeSeeded parses what follows the 0 of a seeded TypePIRBatchQuery
// body, each vector entry followed by its height when heights is set. It
// reads the whole frame — every width, height, seed, rotation and code
// byte — before it expands or copies anything, and refuses a vector
// wider than its database and a frame whose vectors would expand to more
// than MaxSeededValues group elements, so what a seeded frame can make
// its decoder allocate is bounded as a written-out frame's is.
func decodeSeeded(n *big.Int, body []byte, widths []int, heights bool) ([]*pir.Query, error) {
	count, used, err := vbyte.Decode(body)
	if err != nil || count == 0 || count > MaxPIRBatch {
		return nil, fmt.Errorf("wire: seeded PIR batch query count: %w", orRange(err))
	}
	body = body[used:]
	var mults [2]*big.Int
	for i, name := range []string{"V", "Z"} {
		if mults[i], body, err = decodeBig(body); err != nil {
			return nil, fmt.Errorf("wire: seeded PIR batch %s: %w", name, err)
		}
		if mults[i].Sign() <= 0 || mults[i].Cmp(n) >= 0 {
			return nil, fmt.Errorf("wire: seeded PIR batch %s outside Z_n", name)
		}
	}
	// An entry's bytes, still in the body: key and codes are nil for a
	// rotation.
	type entry struct {
		key, codes         []byte
		width, rot, height int
	}
	entries := make([]entry, count)
	limit, values := MaxSeededValues((n.BitLen()+7)/8), 0
	for qi := range entries {
		width, used, err := vbyte.Decode(body)
		if err != nil || width > maxPIRBlocks {
			return nil, fmt.Errorf("wire: seeded PIR batch query %d width: %w", qi, orRange(err))
		}
		if !heights && widths != nil && width > uint64(widths[0]) {
			return nil, fmt.Errorf("wire: seeded PIR batch query %d is %d columns wide, the store %d", qi, width, widths[0])
		}
		body = body[used:]
		if width == 0 {
			if qi == 0 {
				return nil, errors.New("wire: seeded PIR batch query 0 rotates no vector")
			}
			continue
		}
		e := entry{width: int(width)}
		if heights {
			if e.height, body, err = decodeHeight(body, qi, width, widths); err != nil {
				return nil, err
			}
		}
		if len(body) < pir.SeedBytes {
			return nil, fmt.Errorf("wire: seeded PIR batch query %d seed: truncated", qi)
		}
		e.key, body = body[:pir.SeedBytes], body[pir.SeedBytes:]
		rot, used, err := vbyte.Decode(body)
		if err != nil || rot >= width {
			return nil, fmt.Errorf("wire: seeded PIR batch query %d rotation: %w", qi, orRange(err))
		}
		e.rot = int(rot)
		body = body[used:]
		codeBytes := (e.width + 3) / 4
		if len(body) < codeBytes {
			return nil, fmt.Errorf("wire: seeded PIR batch query %d codes: truncated", qi)
		}
		if pad := e.width % 4; pad != 0 && body[codeBytes-1]>>(2*pad) != 0 {
			return nil, fmt.Errorf("wire: seeded PIR batch query %d codes: bits set past column %d", qi, e.width-1)
		}
		e.codes, body = body[:codeBytes], body[codeBytes:]
		if values += e.width; values > limit {
			return nil, fmt.Errorf("wire: seeded PIR batch expands past the %d values a frame may carry", limit)
		}
		entries[qi] = e
	}
	if len(body) != 0 {
		return nil, errors.New("wire: trailing bytes after PIR batch query")
	}
	qs := make([]*pir.Query, count)
	var (
		ring  []*big.Int // as in the written-out form
		at    int
		width int
	)
	for qi, e := range entries {
		if e.key == nil {
			prev := qs[qi-1]
			at--
			ring[at] = ring[at+width]
			qs[qi] = &pir.Query{N: n, Values: ring[at : at+width : at+width], Seed: prev.Seed, Rot: (prev.Rot + 1) % width, Height: prev.Height}
			continue
		}
		at, width = len(qs)-1-qi, e.width
		ring = make([]*big.Int, at+width)
		s := &pir.Seed{V: mults[0], Z: mults[1], Codes: bytes.Clone(e.codes)}
		copy(s.Key[:], e.key)
		if err := s.Expand(n, ring[at:], e.rot); err != nil {
			return nil, fmt.Errorf("wire: seeded PIR batch query %d: %w", qi, err)
		}
		qs[qi] = &pir.Query{N: n, Values: ring[at : at+width : at+width], Seed: s, Rot: e.rot, Height: e.height}
	}
	return qs, nil
}

// DecodePIRBatchAnswer parses a TypePIRBatchResponse body, returning
// the in-batch query index alongside the answer: the view
// (ViewPIRBatchAnswer) with its gammas copied out of the frame.
func DecodePIRBatchAnswer(body []byte) (int, *pir.Answer, error) {
	v, err := ViewPIRBatchAnswer(body)
	if err != nil {
		return 0, nil, err
	}
	return v.Index, decodePacked(v), nil
}

// ViewPIRBatchAnswer reads a TypePIRBatchResponse body without copying
// its gammas. A body whose answer does not open with the packed form's 0
// — the retired length-prefixed form — is refused.
func ViewPIRBatchAnswer(body []byte) (PIRAnswerView, error) {
	index, used, err := vbyte.Decode(body)
	if err != nil || index >= MaxPIRBatch {
		return PIRAnswerView{}, fmt.Errorf("wire: PIR batch answer index: %w", orRange(err))
	}
	rest, packed := leadingZero(body[used:])
	if !packed {
		return PIRAnswerView{}, errors.New("wire: PIR batch answer is not packed")
	}
	v, err := viewPacked(rest)
	if err != nil {
		return PIRAnswerView{}, err
	}
	v.Index = int(index)
	return v, nil
}
