package wire

import (
	"errors"
	"fmt"
	"io"

	"embellish/internal/core"
	"embellish/internal/vbyte"
)

// Batch messages amortize framing and round-trips when one client
// session issues several embellished queries at once (a user tab
// restoring saved searches, or a proxy multiplexing users): the Benaloh
// public key — hundreds of bytes of modulus — is serialized once for the
// whole batch instead of once per query, and the server answers all
// queries in a single frame.

// MaxBatch caps the number of queries in one batch frame.
const MaxBatch = 1024

// WriteBatchQuery frames and writes a batch of embellished queries that
// share one public key (they must come from the same client key pair).
func WriteBatchQuery(w io.Writer, qs []*core.Query) error {
	if len(qs) == 0 {
		return errors.New("wire: empty batch")
	}
	if len(qs) > MaxBatch {
		return fmt.Errorf("wire: batch of %d exceeds limit %d", len(qs), MaxBatch)
	}
	pub := qs[0].Pub
	if pub == nil {
		return errors.New("wire: nil public key")
	}
	for _, q := range qs[1:] {
		if q.Pub == nil || q.Pub.N.Cmp(pub.N) != 0 || q.Pub.G.Cmp(pub.G) != 0 || q.Pub.R.Cmp(pub.R) != 0 {
			return errors.New("wire: batch queries must share one public key")
		}
	}
	size := bigsSize(pub.N, pub.G, pub.R) + vbyte.MaxLen
	for _, q := range qs {
		size += vbyte.MaxLen + len(q.Entries)*entryBytes(pub)
	}
	frame := appendKey(newFrame(TypeBatchQuery, size), pub)
	frame = vbyte.Append(frame, uint64(len(qs)))
	for _, q := range qs {
		frame = appendEntries(frame, q.Entries)
	}
	return writeFrame(w, frame)
}

// DecodeBatchQuery parses a TypeBatchQuery body. The returned queries
// share one PublicKey value.
func DecodeBatchQuery(body []byte) ([]*core.Query, error) {
	pub, body, err := decodeKey(body)
	if err != nil {
		return nil, err
	}
	nq, used, err := vbyte.Decode(body)
	if err != nil || nq == 0 || nq > MaxBatch {
		return nil, fmt.Errorf("wire: batch count: %w", orRange(err))
	}
	body = body[used:]
	out := make([]*core.Query, nq)
	for qi := range out {
		var entries []core.QueryEntry
		if entries, body, err = decodeEntries(body, pub.N); err != nil {
			return nil, fmt.Errorf("wire: batch query %d: %w", qi, err)
		}
		out[qi] = &core.Query{Pub: pub, Entries: entries}
	}
	if len(body) != 0 {
		return nil, errors.New("wire: trailing bytes after batch query")
	}
	return out, nil
}

// WriteBatchResponse frames and writes the per-query candidate sets and
// cost figures answering one batch query, in batch order.
func WriteBatchResponse(w io.Writer, resps []*core.Response, stats []core.Stats) error {
	if len(resps) != len(stats) {
		return errors.New("wire: responses and stats length mismatch")
	}
	cands := make([][]Candidate, len(resps))
	rstats := make([]ResponseStats, len(stats))
	for i, resp := range resps {
		cands[i], rstats[i] = resp.Docs, responseStats(stats[i])
	}
	return WriteCandidateBatchResponse(w, cands, rstats)
}

// DecodeBatchResponse parses a TypeBatchResponse body.
func DecodeBatchResponse(body []byte) ([][]Candidate, []ResponseStats, error) {
	nq, used, err := vbyte.Decode(body)
	if err != nil || nq == 0 || nq > MaxBatch {
		return nil, nil, fmt.Errorf("wire: batch response count: %w", orRange(err))
	}
	body = body[used:]
	cands := make([][]Candidate, nq)
	stats := make([]ResponseStats, nq)
	for qi := range cands {
		if cands[qi], body, err = decodeCandidates(body); err != nil {
			return nil, nil, fmt.Errorf("wire: batch response %d %w", qi, err)
		}
		if stats[qi], body, err = decodeResponseStats(body); err != nil {
			return nil, nil, fmt.Errorf("wire: batch response %d stats: %w", qi, err)
		}
	}
	if len(body) != 0 {
		return nil, nil, errors.New("wire: trailing bytes after batch response")
	}
	return cands, stats, nil
}
