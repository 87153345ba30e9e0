package wire

import (
	"errors"
	"fmt"
	"io"

	"embellish/internal/vbyte"
)

// Cluster messages carry the coordinator tier over the same framed
// stream as the retrieval protocol: WAL shipping (a replica reports its
// journal position, the primary ships the missing record suffix) and
// the partition map a router serves so operators can inspect the
// topology. Like the admin and stats messages they are not part of the
// private-retrieval protocol itself — record bodies are the same
// crc-framed journal records the durability layer already persists,
// and the partition map names endpoints, never query contents.
//
// TypeWALPull: vbyte afterSeq — the replica's last applied sequence
// number; the primary answers with every journal record after it.
// TypeWALChunk: vbyte primarySeq | vbyte lastSeq | more byte | vbyte
// record-bytes length | raw record frames (u32 len | body | u32 crc,
// exactly as they sit in a wal segment). lastSeq == afterSeq with no
// records means the replica is caught up.
// TypeClusterMap: sent with an EMPTY body it is the request; the
// response is vbyte partition base | vbyte partition count | per
// partition: vbyte endpoint count, then length-prefixed endpoint
// strings (primary first, replicas after).
const (
	TypeWALPull    = 15
	TypeWALChunk   = 16
	TypeClusterMap = 17
)

// Cluster caps on attacker-controlled sizes.
const (
	// maxClusterPartitions bounds the partition table a router may
	// claim; doc-mod-n sharding past a thousand processes is far beyond
	// the deployment sizes the cost model covers.
	maxClusterPartitions = 1 << 10
	// maxClusterEndpoints bounds replicas per partition.
	maxClusterEndpoints = 1 << 4
	// maxEndpointBytes bounds one host:port string.
	maxEndpointBytes = 1 << 8
)

// WriteWALPull frames a replica's catch-up request: ship every journal
// record with sequence number greater than afterSeq.
func WriteWALPull(w io.Writer, afterSeq uint64) error {
	return writeFrame(w, vbyte.Append(newFrame(TypeWALPull, vbyte.MaxLen), afterSeq))
}

// DecodeWALPull parses a TypeWALPull body.
func DecodeWALPull(body []byte) (uint64, error) {
	after, used, err := vbyte.Decode(body)
	if err != nil {
		return 0, fmt.Errorf("wire: WAL pull seq: %w", err)
	}
	if len(body) != used {
		return 0, errors.New("wire: trailing bytes after WAL pull")
	}
	return after, nil
}

// WALChunk is one shipped slice of the primary's journal.
type WALChunk struct {
	// PrimarySeq is the primary's newest journaled sequence number at
	// the time of the pull — the replica's staleness target.
	PrimarySeq uint64
	// LastSeq is the sequence number of the last record in Records, or
	// the request's afterSeq when Records is empty (caught up).
	LastSeq uint64
	// More reports that the primary truncated the chunk at its size cap
	// and the replica should pull again immediately.
	More bool
	// Records holds zero or more raw wal record frames, concatenated —
	// the same crc-framed bytes the primary's segment files hold.
	Records []byte
}

// WriteWALChunk frames and writes one shipped journal slice.
func WriteWALChunk(w io.Writer, c WALChunk) error {
	body := newFrame(TypeWALChunk, 4*vbyte.MaxLen+len(c.Records))
	body = vbyte.Append(body, c.PrimarySeq)
	body = vbyte.Append(body, c.LastSeq)
	if c.More {
		body = append(body, 1)
	} else {
		body = append(body, 0)
	}
	body = vbyte.Append(body, uint64(len(c.Records)))
	body = append(body, c.Records...)
	return writeFrame(w, body)
}

// DecodeWALChunk parses a TypeWALChunk body. The record bytes are not
// parsed here — wal.DecodeShipped owns the record grammar (and its
// crc checks); this decoder only validates the envelope.
func DecodeWALChunk(body []byte) (WALChunk, error) {
	var c WALChunk
	var used int
	var err error
	for _, dst := range []*uint64{&c.PrimarySeq, &c.LastSeq} {
		*dst, used, err = vbyte.Decode(body)
		if err != nil {
			return c, fmt.Errorf("wire: WAL chunk seq: %w", err)
		}
		body = body[used:]
	}
	if len(body) < 1 || body[0] > 1 {
		return c, errors.New("wire: WAL chunk continuation flag")
	}
	c.More = body[0] == 1
	body = body[1:]
	n, used, err := vbyte.Decode(body)
	if err != nil || n > uint64(MaxFrame) {
		return c, fmt.Errorf("wire: WAL chunk length: %w", orRange(err))
	}
	body = body[used:]
	if uint64(len(body)) != n {
		return c, errors.New("wire: WAL chunk length does not match body")
	}
	if n > 0 {
		c.Records = body
	}
	return c, nil
}

// ClusterMap is the router's partition topology: documents with global
// id g >= Base live on partition (g-Base) mod len(Partitions); ids
// below Base (the shared template corpus every partition loads) live on
// partition g mod len(Partitions). Each partition lists its endpoints
// primary first, read replicas after — the failover order.
type ClusterMap struct {
	Base       int
	Partitions [][]string
}

// WriteClusterMapRequest frames the client's empty topology request.
func WriteClusterMapRequest(w io.Writer) error {
	return writeFrame(w, newFrame(TypeClusterMap, 0))
}

// WriteClusterMap frames and writes the router's partition topology.
func WriteClusterMap(w io.Writer, m ClusterMap) error {
	if len(m.Partitions) == 0 || len(m.Partitions) > maxClusterPartitions {
		return fmt.Errorf("wire: cluster map with %d partitions", len(m.Partitions))
	}
	body := newFrame(TypeClusterMap, 0)
	body = vbyte.Append(body, uint64(m.Base))
	body = vbyte.Append(body, uint64(len(m.Partitions)))
	for _, eps := range m.Partitions {
		if len(eps) == 0 || len(eps) > maxClusterEndpoints {
			return fmt.Errorf("wire: partition with %d endpoints", len(eps))
		}
		body = vbyte.Append(body, uint64(len(eps)))
		for _, ep := range eps {
			if len(ep) == 0 || len(ep) > maxEndpointBytes {
				return fmt.Errorf("wire: endpoint of %d bytes", len(ep))
			}
			body = vbyte.Append(body, uint64(len(ep)))
			body = append(body, ep...)
		}
	}
	return writeFrame(w, body)
}

// DecodeClusterMap parses a non-empty TypeClusterMap body.
func DecodeClusterMap(body []byte) (ClusterMap, error) {
	var m ClusterMap
	base, used, err := vbyte.Decode(body)
	if err != nil || base >= 1<<31 {
		return m, fmt.Errorf("wire: cluster map base: %w", orRange(err))
	}
	body = body[used:]
	nparts, used, err := vbyte.Decode(body)
	// Each partition costs at least 3 body bytes (endpoint count + one
	// endpoint's length + one byte), so a count past a third of the
	// remaining body is forged — reject before allocating.
	if err != nil || nparts == 0 || nparts > maxClusterPartitions || nparts*3 > uint64(len(body)) {
		return m, fmt.Errorf("wire: cluster map partition count: %w", orRange(err))
	}
	body = body[used:]
	m.Base = int(base)
	m.Partitions = make([][]string, nparts)
	for p := range m.Partitions {
		ne, used, err := vbyte.Decode(body)
		if err != nil || ne == 0 || ne > maxClusterEndpoints {
			return m, fmt.Errorf("wire: partition %d endpoint count: %w", p, orRange(err))
		}
		body = body[used:]
		eps := make([]string, ne)
		for i := range eps {
			n, used, err := vbyte.Decode(body)
			if err != nil || n == 0 || n > maxEndpointBytes || n > uint64(len(body[used:])) {
				return m, fmt.Errorf("wire: partition %d endpoint %d: %w", p, i, orRange(err))
			}
			body = body[used:]
			eps[i] = string(body[:n])
			body = body[n:]
		}
		m.Partitions[p] = eps
	}
	if len(body) != 0 {
		return m, errors.New("wire: trailing bytes after cluster map")
	}
	return m, nil
}

// WriteRaw frames an already-encoded message body under the given type
// byte — the router's forwarding primitive: a client frame is relayed
// to every partition verbatim, without a decode/re-encode round trip.
func WriteRaw(w io.Writer, typ byte, body []byte) error {
	return writeFrame(w, append(newFrame(typ, len(body)), body...))
}

// WriteCandidateResponse frames candidates as a TypeResponse — the
// engine's reply (WriteResponse) and the router's merge output alike, so
// it is the byte-exact inverse of DecodeResponse: a candidate list
// decoded, merged, and re-encoded is indistinguishable from one the
// engine produced directly, which is what keeps the cluster transparent
// to clients.
func WriteCandidateResponse(w io.Writer, cands []Candidate, st ResponseStats) error {
	frame := newFrame(TypeResponse, candidatesSize(cands))
	return writeFrame(w, appendCandidates(frame, cands, st))
}

// WriteCandidateBatchResponse re-frames decoded per-query candidate
// sets as a TypeBatchResponse, in batch order.
func WriteCandidateBatchResponse(w io.Writer, cands [][]Candidate, stats []ResponseStats) error {
	if len(cands) != len(stats) {
		return errors.New("wire: candidates and stats length mismatch")
	}
	size := vbyte.MaxLen
	for i := range cands {
		size += candidatesSize(cands[i])
	}
	frame := vbyte.Append(newFrame(TypeBatchResponse, size), uint64(len(cands)))
	for i := range cands {
		frame = appendCandidates(frame, cands[i], stats[i])
	}
	return writeFrame(w, frame)
}
