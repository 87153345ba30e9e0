package wire

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// Batched private retrieval: a pipelining client packs up to
// MaxPIRBatch block queries — all under ONE client modulus — into a
// single TypePIRBatchQuery frame, and the server streams one
// TypePIRBatchResponse frame back per block as each answer is
// computed. Streaming is the point: the client decodes (and
// residuosity-tests) answer i while the server is still multiplying
// answer i+1, and a k-block fetch costs one round-trip instead of k.
//
// TypePIRBatchQuery: modulus big | query count vbyte | per query:
// value count vbyte | one group element per block column — or, for any
// query but the first, a value count of 0 and nothing else: "the
// previous query's vector rotated one column up" (pir.Query.Next). The
// blocks of a document are consecutive columns, so a document travels
// as ONE selection vector plus one zero byte per further block. A
// rotation entry is a full query to everything past the decoder — it
// counts against MaxPIRBatch, is scanned and is answered like any other
// — so the CPU a frame can demand is what it was; only the bytes that
// demand it shrink.
// TypePIRBatchResponse: query index vbyte | gamma count vbyte | one
// group element per matrix row. Indexes are 0-based positions in the
// batch and arrive strictly in order; a per-query serving error is
// answered with TypeError and ends the batch (the connection
// survives).
//
// The caps are the single-query ones: the modulus ceiling bounds the
// per-bit serving cost, forged counts are rejected against the
// remaining body before any allocation, and the batch size itself is
// capped so one frame cannot commit the server to unbounded CPU.

// Batch retrieval message types (12-13; 9-11 are the single-query
// retrieval protocol).
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
// unrecognized message type. FROZEN: servers predating the batch
// messages already sent exactly this text, and pipelined fetch
// clients detect them by matching it on the first batch answer —
// changing it would break the sequential fallback against every
// deployed server.
const UnknownTypeRefusal = "unexpected message type"

// RotationRefusal is the error body a server predating rotation
// entries sends for a batch frame whose entry i is one: its decoder
// refuses the zero value count with exactly this text and keeps the
// connection. FROZEN like UnknownTypeRefusal: pipelined fetch clients
// match it on the first batch answer and retry with one vector per
// block, and this decoder still words its own value-count refusals (a
// zero count on entry 0, a forged count) through it — rewording it
// would strand those clients against every deployed server.
func RotationRefusal(i int) string {
	return fmt.Sprintf("wire: PIR batch query %d value count: value out of range", i)
}

// WritePIRBatchQuery frames and writes one batch of PIR block queries.
// Every query must carry the same modulus — the batch serializes it
// once.
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
		if n == nil {
			n = q.N
		} else if q.N.Cmp(n) != 0 {
			return fmt.Errorf("wire: PIR batch query %d uses a different modulus", i)
		}
	}
	// Entry i travels as a zero count exactly when it IS the entry before
	// it rotated (pir.Query.Follows: the same elements over the full
	// cycle); the first entry of a frame has no base and is always written
	// out.
	rotated := make([]bool, len(qs))
	size := pirHeadSize + bigsSize(n)
	for i, q := range qs {
		size += pirHeadSize
		if rotated[i] = i > 0 && q.Follows(qs[i-1]); !rotated[i] {
			size += bigsSize(q.Values...)
		}
	}
	body := make([]byte, 0, size)
	body = append(body, TypePIRBatchQuery)
	body = appendBig(body, n)
	body = vbyte.Append(body, uint64(len(qs)))
	for i, q := range qs {
		if rotated[i] {
			body = vbyte.Append(body, 0)
			continue
		}
		body = vbyte.Append(body, uint64(len(q.Values)))
		for _, v := range q.Values {
			body = appendBig(body, v)
		}
	}
	return writeFrame(w, body)
}

// DecodePIRBatchQuery parses a TypePIRBatchQuery body. The same
// bounds as DecodePIRQuery apply to the shared modulus and to every
// value; the query count is additionally capped at MaxPIRBatch.
//
// Every entry comes back as one *pir.Query of full width, a rotation
// entry included, so nothing past the decoder knows the frame was
// compact. Rotations are windows, not copies: a vector of n values that
// k more entries follow is decoded into the top of one ring of n + k
// pointers, and each rotation steps the window one slot down, filling
// the slot it uncovers with the element n places up — the one that
// wrapped. Decoding therefore allocates for the values present in
// the body plus one pointer per entry, never entries x width. The
// windows share elements (and overlap in memory), which is safe because
// everything downstream only reads Values: the executor copies before
// it reduces, the router slices.
func DecodePIRBatchQuery(body []byte) ([]*pir.Query, error) {
	n, body, err := decodeBig(body)
	if err != nil {
		return nil, fmt.Errorf("wire: PIR batch modulus: %w", err)
	}
	if n.Sign() <= 0 || (n.BitLen()+7)/8 > maxPIRModulusBytes {
		return nil, errors.New("wire: PIR batch modulus out of range")
	}
	count, used, err := vbyte.Decode(body)
	if err != nil || count == 0 || count > MaxPIRBatch {
		return nil, fmt.Errorf("wire: PIR batch query count: %w", orRange(err))
	}
	body = body[used:]
	qs := make([]*pir.Query, count)
	var (
		ring  []*big.Int // the last full vector, behind room for its rotations
		at    int        // where the previous entry's window starts in ring
		width int        // of that window
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
			return nil, errors.New(RotationRefusal(qi))
		}
		body = body[used:]
		if nv == 0 {
			at--
			ring[at] = ring[at+width]
		} else {
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
		qs[qi] = &pir.Query{N: n, Values: ring[at : at+width : at+width]}
	}
	if len(body) != 0 {
		return nil, errors.New("wire: trailing bytes after PIR batch query")
	}
	return qs, nil
}

// WritePIRBatchAnswer frames and writes one streamed batch answer:
// the index of the query it answers (0-based within its batch)
// followed by a standard PIR answer encoding.
func WritePIRBatchAnswer(w io.Writer, index int, a *pir.Answer) error {
	if index < 0 || index >= MaxPIRBatch {
		return fmt.Errorf("wire: PIR batch answer index %d out of range", index)
	}
	body, err := appendAnswer(vbyte.Append([]byte{TypePIRBatchResponse}, uint64(index)), a)
	if err != nil {
		return err
	}
	return writeFrame(w, body)
}

// DecodePIRBatchAnswer parses a TypePIRBatchResponse body, returning
// the in-batch query index alongside the answer. After the index the
// body is exactly a TypePIRResponse body, so the gamma bounds live in
// one place (DecodePIRAnswer).
func DecodePIRBatchAnswer(body []byte) (int, *pir.Answer, error) {
	index, used, err := vbyte.Decode(body)
	if err != nil || index >= MaxPIRBatch {
		return 0, nil, fmt.Errorf("wire: PIR batch answer index: %w", orRange(err))
	}
	a, err := DecodePIRAnswer(body[used:])
	if err != nil {
		return 0, nil, err
	}
	return int(index), a, nil
}
