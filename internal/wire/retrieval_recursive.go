package wire

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// Recursive private retrieval: the client uploads TWO selection
// vectors of ~√n group elements instead of one per block — KO residues
// over the grid rows, byte-symbol encryptions (x^256, y·x^256 at the
// target) over the grid columns — and the server answers with the
// recursively-encrypted block, one ciphertext per byte of the level-1
// answer. One frame carries a small batch; answers stream back as
// standard TypePIRBatchResponse frames in batch order, so the answer-side
// bounds live in one place (ViewPIRBatchAnswer) and a client reads them
// in the flat fetch's frame loop.
//
// TypePIRRecursiveQuery: modulus big | width vbyte | gridCols vbyte |
// query count vbyte | per query: gridRows(width, gridCols) row elements,
// then gridCols column elements. The vector lengths are DERIVED from the
// shared shape rather than carried per query — a forged per-query length
// cannot disagree with the shape the server validates against.
//
// Every single-node server with retrieval enabled serves this message; a
// cluster router refuses it as an unknown type. A refused frame fails
// the client's fetch.

// TypePIRRecursiveQuery is the recursive retrieval request (type 23;
// answers reuse TypePIRBatchResponse). Type 22 carried the same layout
// under bit-per-ciphertext semantics — the column vector held KO
// residues and the answer one gamma per BIT of the level-1 image — and
// is retired: servers answer it like any unknown type.
const TypePIRRecursiveQuery = 23

// MaxPIRRecursiveBatch caps the recursive queries per frame. A
// recursive answer is 8·blockSize·modBytes ciphertexts — modBytes-fold
// a flat answer — so the recursive cap sits well under MaxPIRBatch to
// bound the response bytes one frame can commit the server to.
const MaxPIRRecursiveBatch = 16

// recursiveCeilSqrt mirrors the grid bound of internal/pir without
// exporting its integer sqrt: the decoder only needs the hostile cap
// gridCols ≤ 2·⌈√width⌉ before it allocates anything.
func recursiveCeilSqrt(n uint64) uint64 {
	var s uint64
	for s*s < n {
		s++
	}
	return s
}

// WritePIRRecursiveQuery frames and writes one batch of recursive
// queries. Every query must share one modulus and one grid shape —
// the frame serializes both once.
func WritePIRRecursiveQuery(w io.Writer, qs []*pir.RecursiveQuery) error {
	if len(qs) == 0 {
		return errors.New("wire: empty recursive PIR batch")
	}
	if len(qs) > MaxPIRRecursiveBatch {
		return fmt.Errorf("wire: recursive PIR batch of %d queries exceeds the %d cap", len(qs), MaxPIRRecursiveBatch)
	}
	q0 := qs[0]
	if q0 == nil || q0.N == nil || len(q0.Rows) == 0 {
		return errors.New("wire: nil recursive PIR query")
	}
	for i, q := range qs {
		if q == nil || q.N == nil || len(q.Rows) == 0 {
			return fmt.Errorf("wire: nil recursive PIR query %d in batch", i)
		}
		if q.N.Cmp(q0.N) != 0 {
			return fmt.Errorf("wire: recursive PIR batch query %d uses a different modulus", i)
		}
		if q.Width != q0.Width || q.GridCols != q0.GridCols ||
			len(q.Rows) != len(q0.Rows) || len(q.Cols) != q0.GridCols {
			return fmt.Errorf("wire: recursive PIR batch query %d disagrees on shape", i)
		}
	}
	body := appendBig(newFrame(TypePIRRecursiveQuery, 0), q0.N)
	body = vbyte.Append(body, uint64(q0.Width))
	body = vbyte.Append(body, uint64(q0.GridCols))
	body = vbyte.Append(body, uint64(len(qs)))
	for _, q := range qs {
		for _, v := range q.Rows {
			body = appendBig(body, v)
		}
		for _, v := range q.Cols {
			body = appendBig(body, v)
		}
	}
	return writeFrame(w, body)
}

// DecodePIRRecursiveQuery parses a TypePIRRecursiveQuery body. The
// shape is validated before any dimension-sized allocation: modulus
// width and block width under the flat caps, grid columns under the
// 2·⌈√width⌉ ceiling (so the derived row-vector length stays ~√width
// honest or not), and the total value count charged against the remaining body bytes — a
// forged count or truncated frame fails here, never in the server's
// scan.
func DecodePIRRecursiveQuery(body []byte) ([]*pir.RecursiveQuery, error) {
	n, body, err := decodeBig(body)
	if err != nil {
		return nil, fmt.Errorf("wire: recursive PIR modulus: %w", err)
	}
	if n.Sign() <= 0 || (n.BitLen()+7)/8 > maxPIRModulusBytes {
		return nil, errors.New("wire: recursive PIR modulus out of range")
	}
	var shape [2]uint64
	for f, name := range []string{"width", "grid columns"} {
		v, used, err := vbyte.Decode(body)
		if err != nil {
			return nil, fmt.Errorf("wire: recursive PIR %s: %w", name, err)
		}
		shape[f] = v
		body = body[used:]
	}
	width, gridCols := shape[0], shape[1]
	if width == 0 || width > maxPIRBlocks {
		return nil, errors.New("wire: recursive PIR width out of range")
	}
	if gridCols == 0 || gridCols > width || gridCols > 2*recursiveCeilSqrt(width) {
		return nil, errors.New("wire: recursive PIR grid columns out of range")
	}
	count, used, err := vbyte.Decode(body)
	if err != nil || count == 0 || count > MaxPIRRecursiveBatch {
		return nil, fmt.Errorf("wire: recursive PIR query count: %w", orRange(err))
	}
	body = body[used:]
	gridRows := (width + gridCols - 1) / gridCols
	perQuery := gridRows + gridCols
	// Each value costs at least 2 body bytes (length prefix + one
	// byte), so a total past half the remaining body is forged — reject
	// before allocating any pointer slice.
	if count*perQuery*2 > uint64(len(body)) {
		return nil, errors.New("wire: recursive PIR vectors exceed the frame")
	}
	qs := make([]*pir.RecursiveQuery, count)
	for qi := range qs {
		q := &pir.RecursiveQuery{
			N:        n,
			Width:    int(width),
			GridCols: int(gridCols),
			Rows:     make([]*big.Int, gridRows),
			Cols:     make([]*big.Int, gridCols),
		}
		for _, vec := range [][]*big.Int{q.Rows, q.Cols} {
			var at int
			if body, at, err = decodeBigs(body, vec, n); err != nil {
				return nil, bigsError(fmt.Sprintf("recursive PIR query %d value", qi), at, err)
			}
		}
		qs[qi] = q
	}
	if len(body) != 0 {
		return nil, errors.New("wire: trailing bytes after recursive PIR query")
	}
	return qs, nil
}
