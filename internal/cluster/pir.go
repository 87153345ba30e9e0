package cluster

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"slices"
	"strings"

	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// PIR routing. The router serves one fetch protocol, the flat one over
// class views (type 12); the recursive protocol (type 23) is
// single-node only, and the router refuses it as an unknown type.
//
// The merged mapping concatenates the partitions' block spaces (all
// partitions share one BlockSize, pinned by the template engine file)
// and lists documents partition-major in First order, so each
// partition's documents are one contiguous range of every merged class
// view. A KO-PIR answer factors across that split — gamma row i is the
// product over all columns of q_j^bit(i,j) — so cutting the query's
// column vector at the partition boundaries, letting each partition
// answer over its own columns, and multiplying the per-partition gammas
// element-wise mod N reconstructs exactly the answer a single store
// holding every document would have computed. A partition's own view h
// holds the template documents it does not own too, interleaved in its
// local First order; the epoch records, per view and partition, which
// merged column each local column carries, and the router fills the
// columns of documents the partition does not own with the identity 1,
// which multiplies every gamma by 1.
//
// Addressing under churn: partitions only ever append, so a partition's
// local columns are stable, but the merged columns shift when an earlier
// partition grows. The router therefore slices every query against the
// epoch — the mapping behind the params it served on that same
// connection — and a sub-query sliced from it is a prefix of the
// partition's view as it stood at params time, which addresses the same
// local columns regardless of later appends. A partition that refuses
// such a sub-query as outside its views no longer holds the epoch's
// columns, and the router answers with wire.StaleMapRefusal.

// pirEpoch is one connection's merged-params snapshot: views[h] is the
// width of merged view h (views[0] the block array, never addressed) and
// columns[h][p][c] the merged column that partition p's local column c
// of view h carries, or -1 for a document p does not own.
type pirEpoch struct {
	views   []int
	columns [][][]int32
}

// gatherParams fetches every partition's current block mapping.
func (r *Router) gatherParams() ([]docstore.Params, error) {
	parts := make([]docstore.Params, r.n)
	err := r.scatter(nil, false, func(p int, conn net.Conn) error {
		if err := wire.WritePIRParamsRequest(conn); err != nil {
			return err
		}
		rbody, err := readReply(conn, wire.TypePIRParams)
		if err != nil {
			return err
		}
		pp, err := wire.DecodePIRParams(rbody)
		if err != nil {
			return err
		}
		parts[p] = pp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// mergeParams builds the cluster-global block mapping: blocks
// concatenate in partition order, and each global document's extent
// comes from its owner with First shifted by the blocks of the
// partitions before it. The global extent table must come out dense — a
// hole means the corpus was not ingested through the router's
// round-robin assignment.
func (r *Router) mergeParams(parts []docstore.Params) (docstore.Params, *pirEpoch, error) {
	blockSize := parts[0].BlockSize
	offsets := make([]int, r.n)
	total := 0
	for p, pp := range parts {
		if pp.BlockSize != blockSize {
			return docstore.Params{}, nil, fmt.Errorf("cluster: partition %d block size %d differs from partition 0's %d", p, pp.BlockSize, blockSize)
		}
		if len(pp.Exts) < r.base {
			return docstore.Params{}, nil, fmt.Errorf("cluster: partition %d stores %d documents, fewer than the template base %d", p, len(pp.Exts), r.base)
		}
		offsets[p] = total
		total += pp.NumBlocks
	}
	nglobal := r.base
	for _, pp := range parts {
		nglobal += len(pp.Exts) - r.base
	}
	exts := make([]docstore.Extent, nglobal)
	seen := make([]bool, nglobal)
	for p, pp := range parts {
		for l, ext := range pp.Exts {
			g, owned := r.ownedID(p, l)
			if !owned {
				continue // template doc reported by its owner only
			}
			if g >= nglobal || seen[g] {
				return docstore.Params{}, nil, fmt.Errorf("cluster: partition %d local doc %d maps to global id %d outside the dense corpus of %d", p, l, g, nglobal)
			}
			ext.First += uint32(offsets[p])
			exts[g] = ext
			seen[g] = true
		}
	}
	for g, ok := range seen {
		if !ok {
			return docstore.Params{}, nil, fmt.Errorf("cluster: no partition stores global document %d; the corpus was not ingested round-robin", g)
		}
	}
	merged := docstore.Params{BlockSize: blockSize, NumBlocks: total, Exts: exts}
	global := merged.Layout()
	ep := &pirEpoch{views: global.Widths()}
	ep.columns = make([][][]int32, len(ep.views))
	for h := range ep.columns {
		ep.columns[h] = make([][]int32, r.n)
	}
	for p, pp := range parts {
		local := pp.Layout()
		for h, w := range local.Widths()[1:] {
			ep.columns[h+1][p] = slices.Repeat([]int32{-1}, w)
		}
		for l := range pp.Exts {
			h, col, k := local.Place(l)
			g, owned := r.ownedID(p, l)
			if k == 0 || !owned {
				continue
			}
			_, gcol, _ := global.Place(g)
			for j := 0; j < k; j++ {
				ep.columns[h][p][col+j] = int32(gcol + j)
			}
		}
	}
	return merged, ep, nil
}

// ownedID returns the global id of partition p's local document l, and
// whether p owns it: every partition holds the template documents, and
// each is its owner's, partition l mod n.
func (r *Router) ownedID(p, l int) (int, bool) {
	return r.globalID(p, l), l >= r.base || p == l%r.n
}

// handlePIRParams serves the merged block mapping — the table alone to
// the empty request, the unchanged or changed reply to the hello, judged
// by the digest of the merged table — and the epoch it was built from
// becomes the connection's slicing snapshot for subsequent PIR queries,
// changed or not. Partitions are always asked with the empty request. A
// refused params request leaves the previous epoch.
func (r *Router) handlePIRParams(req *request) error {
	var have *wire.ParamsDigest
	hello := len(req.Body) != 0
	if hello {
		var err error
		if have, err = wire.DecodePIRHello(req.Body); err != nil {
			return err
		}
	}
	parts, err := r.gatherParams()
	if err != nil {
		return err
	}
	merged, ep, err := r.mergeParams(parts)
	if err != nil {
		return err
	}
	*req.State = ep
	if !hello {
		return wire.WritePIRParams(req.W, merged)
	}
	return wire.WritePIRHelloReply(req.W, merged, have)
}

// identity is the column value a partition's sub-query carries for a
// document it does not own: 1 leaves every gamma as it is.
var identity = big.NewInt(1)

// sliceView cuts one query over merged view h into per-partition
// sub-queries under the epoch: partition p's sub-query is the prefix of
// its local view h up to the last column it carries for the query's
// columns, each column the query's value for the merged column it
// carries or the identity. Partitions that carry none of the query's
// columns are skipped (prefix addressing — the paper's protocol lets a
// narrow query address the view's prefix).
func (ep *pirEpoch) sliceView(q *pir.Query) (ps []int, subs []*pir.Query, err error) {
	h, w := q.Height, len(q.Values)
	if h >= len(ep.views) || w > ep.views[h] {
		return nil, nil, fmt.Errorf("cluster: PIR query over %d columns of view %d exceeds the served views %v", w, h, ep.views)
	}
	for p, local := range ep.columns[h] {
		n := len(local)
		for n > 0 && (local[n-1] < 0 || int(local[n-1]) >= w) {
			n--
		}
		if n == 0 {
			continue
		}
		vals := make([]*big.Int, n)
		for c, g := range local[:n] {
			if vals[c] = identity; g >= 0 {
				vals[c] = q.Values[g]
			}
		}
		ps = append(ps, p)
		subs = append(subs, &pir.Query{N: q.N, Values: vals, Height: h})
	}
	if len(ps) == 0 {
		return nil, nil, fmt.Errorf("cluster: PIR query addresses no partition")
	}
	return ps, subs, nil
}

// combineAnswers multiplies per-partition gamma vectors element-wise
// mod n — the column-split factorization of the KO-PIR answer — into the
// first answer's image, at n's byte length. Nil entries (partitions the
// query did not address) contribute the multiplicative identity.
func combineAnswers(n *big.Int, answers []*pir.Answer) (*pir.Answer, error) {
	var out *pir.Answer
	var acc, g big.Int
	for _, a := range answers {
		if a == nil {
			continue
		}
		if a.Width != (n.BitLen()+7)/8 {
			return nil, fmt.Errorf("cluster: partition answered %d-byte gammas under a %d-bit modulus", a.Width, n.BitLen())
		}
		if out == nil {
			out = a
			continue
		}
		if len(a.Image) != len(out.Image) {
			return nil, fmt.Errorf("cluster: partition answered %d gammas, expected %d", a.Count(), out.Count())
		}
		for at := 0; at < len(out.Image); at += out.Width {
			slot := out.Image[at : at+out.Width]
			acc.Mul(acc.SetBytes(slot), g.SetBytes(a.Image[at:at+out.Width]))
			acc.Mod(&acc, n).FillBytes(slot)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("cluster: no partition answers to combine")
	}
	return out, nil
}

// ensureEpoch returns the connection's slicing snapshot, establishing
// one from the partitions' current params if the client somehow sends
// a PIR query before fetching params on this connection.
func (r *Router) ensureEpoch(epoch **pirEpoch) (*pirEpoch, error) {
	if *epoch != nil {
		return *epoch, nil
	}
	parts, err := r.gatherParams()
	if err != nil {
		return nil, err
	}
	_, ep, err := r.mergeParams(parts)
	if err != nil {
		return nil, err
	}
	*epoch = ep
	return ep, nil
}

// handlePIRBatch routes one batch frame: each query is sliced, every
// partition gets one sub-batch of the slices addressed to it, and the
// combined answers stream back to the client strictly in batch order
// (the protocol's contract). A worker death mid-stream fails that
// partition's whole sub-batch, and withEndpoint replays it against the
// replica — reads are idempotent, so the retry is invisible beyond the
// latency. The epoch comes first so that an entry naming no served view,
// or wider than its view, is refused before any seed expands. A
// partition refusing its sub-batch with wire.ViewRefusal no longer holds
// the epoch's columns, and the client is told to send the hello again
// (wire.StaleMapRefusal).
func (r *Router) handlePIRBatch(req *request) error {
	ep, err := r.ensureEpoch(req.State)
	if err != nil {
		return err
	}
	qs, err := wire.DecodePIRBatchQueryWithin(req.Body, ep.views)
	if err != nil {
		return err
	}
	// Per partition: which batch members address it, and with what
	// slice.
	perQIs := make([][]int, r.n)
	perSubs := make([][]*pir.Query, r.n)
	for qi, q := range qs {
		ps, subs, err := ep.sliceView(q)
		if err != nil {
			return err
		}
		for i, p := range ps {
			perQIs[p] = append(perQIs[p], qi)
			perSubs[p] = append(perSubs[p], subs[i])
		}
	}
	var targets []int
	for p := 0; p < r.n; p++ {
		if len(perQIs[p]) > 0 {
			targets = append(targets, p)
		}
	}
	// answers[qi][p] is partition p's gamma vector for batch member qi.
	answers := make([][]*pir.Answer, len(qs))
	for qi := range answers {
		answers[qi] = make([]*pir.Answer, r.n)
	}
	err = r.scatter(targets, false, func(p int, conn net.Conn) error {
		if err := wire.WritePIRBatchQuery(conn, perSubs[p]); err != nil {
			return err
		}
		// One streamed frame per sub-batch member; indexes are the
		// positions in the SUB-batch, mapped back through perQIs.
		got := make([]*pir.Answer, len(perSubs[p]))
		for range perSubs[p] {
			rbody, err := readReply(conn, wire.TypePIRBatchResponse)
			if err != nil {
				return err
			}
			idx, a, err := wire.DecodePIRBatchAnswer(rbody)
			if err != nil {
				return err
			}
			if idx < 0 || idx >= len(got) || got[idx] != nil {
				return fmt.Errorf("cluster: partition %d answered batch index %d out of order", p, idx)
			}
			got[idx] = a
		}
		for i, a := range got {
			answers[perQIs[p][i]][p] = a
		}
		return nil
	})
	if pe := (*peerError)(nil); errors.As(err, &pe) && strings.HasPrefix(pe.Error(), wire.ViewRefusal) {
		return fmt.Errorf("%s: a partition no longer holds the columns of the block mapping this connection was sent (%s); send the PIR hello again", wire.StaleMapRefusal, pe)
	}
	if err != nil {
		return err
	}
	for qi, q := range qs {
		combined, err := combineAnswers(q.N, answers[qi])
		if err != nil {
			return err
		}
		if err := wire.WritePIRBatchAnswerPacked(req.W, qi, combined, q.N); err != nil {
			return err
		}
	}
	r.loop.Counters[wire.StatRetrievals].Add(int64(len(qs)))
	return nil
}
