package cluster

import (
	"fmt"
	"net"
	"sort"

	"embellish/internal/index"
	"embellish/internal/wire"
)

// readReply reads one frame from a partition and classifies it: the
// wanted type returns its body, a TypeError becomes a peerError (relay,
// don't retry), anything else is a protocol failure.
func readReply(conn net.Conn, want byte) ([]byte, error) {
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		return nil, err
	}
	switch typ {
	case want:
		return body, nil
	case wire.TypeError:
		return nil, &peerError{body: append([]byte(nil), body...)}
	default:
		return nil, fmt.Errorf("cluster: partition answered type %d, wanted %d", typ, want)
	}
}

// mergeCandidates concatenates per-partition candidate sets into the
// global id space: local ids are rewritten through globalID, template
// documents (held by every partition) are taken from their owner only,
// and the result is re-sorted ascending by global id — the same order
// a single-process engine emits, so the merge is byte-transparent.
func (r *Router) mergeCandidates(parts [][]wire.Candidate) []wire.Candidate {
	total := 0
	for _, cs := range parts {
		total += len(cs)
	}
	out := make([]wire.Candidate, 0, total)
	for p, cs := range parts {
		for _, c := range cs {
			l := int(c.Doc)
			if l < r.base && l%r.n != p {
				continue
			}
			out = append(out, wire.Candidate{Doc: index.DocID(r.globalID(p, l)), Enc: c.Enc})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out
}

// sumStats folds per-partition cost figures into the response tail:
// the cluster's work is the sum of its partitions' work.
func sumStats(parts []wire.ResponseStats) wire.ResponseStats {
	var out wire.ResponseStats
	for _, st := range parts {
		out.Postings += st.Postings
		out.Seeks += st.Seeks
		out.IOBytes += st.IOBytes
	}
	return out
}

// handleQuery scatter-gathers one embellished query or decoy: the
// client frame is forwarded to every partition verbatim (the shared
// template engine pins one bucket organization, so the same term ids
// and ciphertexts are valid everywhere), type byte included, so a decoy
// reaches each partition's DecoyQueries; the disjoint per-partition
// score maps merge by concatenation.
func (r *Router) handleQuery(req *request) error {
	parts := make([][]wire.Candidate, r.n)
	stats := make([]wire.ResponseStats, r.n)
	err := r.scatter(nil, false, func(p int, conn net.Conn) error {
		if err := wire.WriteRaw(conn, req.Type, req.Body); err != nil {
			return err
		}
		rbody, err := readReply(conn, wire.TypeResponse)
		if err != nil {
			return err
		}
		cands, st, err := wire.DecodeResponse(rbody)
		if err != nil {
			return err
		}
		parts[p], stats[p] = cands, st
		return nil
	})
	if err != nil {
		return err
	}
	r.loop.Counters[wire.StatQueries].Add(1)
	return wire.WriteCandidateResponse(req.W, r.mergeCandidates(parts), sumStats(stats))
}

// handleBatch is handleQuery over a whole batch frame: one forward per
// partition, then a per-query merge in batch order.
func (r *Router) handleBatch(req *request) error {
	parts := make([][][]wire.Candidate, r.n)
	stats := make([][]wire.ResponseStats, r.n)
	err := r.scatter(nil, false, func(p int, conn net.Conn) error {
		if err := wire.WriteRaw(conn, wire.TypeBatchQuery, req.Body); err != nil {
			return err
		}
		rbody, err := readReply(conn, wire.TypeBatchResponse)
		if err != nil {
			return err
		}
		cands, sts, err := wire.DecodeBatchResponse(rbody)
		if err != nil {
			return err
		}
		parts[p], stats[p] = cands, sts
		return nil
	})
	if err != nil {
		return err
	}
	nq := len(parts[0])
	for p := 1; p < r.n; p++ {
		if len(parts[p]) != nq {
			return fmt.Errorf("cluster: partition %d answered %d queries, partition 0 answered %d", p, len(parts[p]), nq)
		}
	}
	merged := make([][]wire.Candidate, nq)
	mstats := make([]wire.ResponseStats, nq)
	per := make([][]wire.Candidate, r.n)
	sts := make([]wire.ResponseStats, r.n)
	for qi := 0; qi < nq; qi++ {
		for p := 0; p < r.n; p++ {
			per[p] = parts[p][qi]
			sts[p] = stats[p][qi]
		}
		merged[qi] = r.mergeCandidates(per)
		mstats[qi] = sumStats(sts)
	}
	r.loop.Counters[wire.StatQueries].Add(int64(nq))
	return wire.WriteCandidateBatchResponse(req.W, merged, mstats)
}

// handleAdmin routes one corpus update to the owning partitions with
// ids rewritten to each partition's local space. Adds go to the single
// owner of each new id; deletes of template ids (held everywhere) fan
// to every partition. Updates are applied on primaries only — replicas
// receive them through WAL shipping — and are NOT failed over: a
// half-applied write replayed against a replica could fork the two
// histories. The ack sums the live-doc and segment counts of the
// partitions this frame touched.
func (r *Router) handleAdmin(req *request) error {
	perDocs := make([][]wire.DocText, r.n)
	perIDs := make([][]uint32, r.n)
	switch req.Type {
	case wire.TypeAddDocs:
		dts, err := wire.DecodeAddDocs(req.Body)
		if err != nil {
			return err
		}
		for _, d := range dts {
			g := int(d.ID)
			if g < r.base {
				return fmt.Errorf("cluster: document id %d is below the partition base %d (template ids are fixed at build time)", g, r.base)
			}
			p := r.ownerOf(g)
			perDocs[p] = append(perDocs[p], wire.DocText{ID: uint32(r.localID(g)), Text: d.Text})
		}
	case wire.TypeDeleteDocs:
		ids, err := wire.DecodeDeleteDocs(req.Body)
		if err != nil {
			return err
		}
		for _, id := range ids {
			g := int(id)
			if g < r.base {
				for p := 0; p < r.n; p++ {
					perIDs[p] = append(perIDs[p], uint32(g))
				}
				continue
			}
			p := r.ownerOf(g)
			perIDs[p] = append(perIDs[p], uint32(r.localID(g)))
		}
		for p := range perIDs {
			sort.Slice(perIDs[p], func(i, j int) bool { return perIDs[p][i] < perIDs[p][j] })
		}
	}
	var targets []int
	for p := 0; p < r.n; p++ {
		if len(perDocs[p]) > 0 || len(perIDs[p]) > 0 {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("cluster: empty admin frame")
	}
	lives := make([]int, r.n)
	segs := make([]int, r.n)
	err := r.scatter(targets, true, func(p int, conn net.Conn) error {
		var werr error
		if req.Type == wire.TypeAddDocs {
			werr = wire.WriteAddDocs(conn, perDocs[p])
		} else {
			werr = wire.WriteDeleteDocs(conn, perIDs[p])
		}
		if werr != nil {
			return werr
		}
		rbody, err := readReply(conn, wire.TypeAdminOK)
		if err != nil {
			return err
		}
		live, seg, err := wire.DecodeAdminOK(rbody)
		if err != nil {
			return err
		}
		lives[p], segs[p] = live, seg
		return nil
	})
	if err != nil {
		return err
	}
	r.loop.Counters[wire.StatUpdates].Add(1)
	live, seg := 0, 0
	for _, p := range targets {
		live += lives[p]
		seg += segs[p]
	}
	return wire.WriteAdminOK(req.W, live, seg)
}

// handleStats aggregates the cluster's counters by each field's rule in
// wire.StatFields: partition totals summed, watermarks maxed, Durable
// an AND, and the routing fields the router's own.
func (r *Router) handleStats(req *request) error {
	parts := make([]wire.Stats, r.n)
	err := r.scatter(nil, false, func(p int, conn net.Conn) error {
		if err := wire.WriteStatsRequest(conn); err != nil {
			return err
		}
		rbody, err := readReply(conn, wire.TypeStats)
		if err != nil {
			return err
		}
		parts[p], err = wire.DecodeStats(rbody)
		return err
	})
	if err != nil {
		return err
	}
	return wire.WriteStats(req.W, wire.Aggregate(r.loop.Snapshot(), parts))
}

// handleClusterMap serves the configured topology.
func (r *Router) handleClusterMap(req *request) error {
	return wire.WriteClusterMap(req.W, r.Map())
}
