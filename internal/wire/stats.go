package wire

import (
	"errors"
	"fmt"
	"io"

	"embellish/internal/vbyte"
)

// TypeStats is the operational-metrics message (type 14). Sent with an
// EMPTY body it is the client's request; the server answers with the
// same type carrying its serving counters. Like the admin messages it
// is not part of the private-retrieval protocol — it exposes only
// aggregate load figures (queue depth, latency sums, WAL lag), never
// anything about any individual query, which stays protected by the
// embellishment and PIR layers.
const TypeStats = 14

// Typed error-body prefixes for the operational layer. Like
// UnknownTypeRefusal they are matched as prefixes by clients, so they
// are FROZEN once a server ships them; the text after the prefix may
// carry detail (retry hints, timings) and may change freely.
const (
	// OverloadRefusal prefixes the shed-with-retry-hint error a server
	// sends when its admission queue (or connection cap) is full, or
	// when a queued request waited out the queue timeout. The request
	// was NOT started; clients should back off and retry.
	OverloadRefusal = "server overloaded"
	// DeadlineRefusal prefixes the error a server sends when its
	// per-request deadline expired mid-scan. The request burned partial
	// work and was abandoned; retrying immediately will likely expire
	// again unless the query shrinks or the load drops.
	DeadlineRefusal = "server deadline exceeded"
)

// maxStatsFields caps the field count a peer may claim, far above the
// current schema so the encoding can grow without a protocol break
// while a forged count still cannot force large allocations.
const maxStatsFields = 64

// Stat indexes one serving counter. The index is the counter's position
// on the wire: APPEND-ONLY — new counters go at the end, and decoders
// tolerate both shorter (older server) and longer (newer server) field
// lists, defaulting missing trailing fields to zero.
type Stat int

// The serving counters, in wire order. StatFields describes each one.
const (
	StatAccepted Stat = iota
	StatRejected
	StatActive
	StatQueries
	StatUpdates
	StatRetrievals
	StatErrors
	StatQueryNs
	StatMaxQueryNs
	StatInflight
	StatQueued
	StatQueuedTotal
	StatQueueWaitNs
	StatMaxQueueWaitNs
	StatShedQueueFull
	StatShedQueueTimeout
	StatDeadlines
	StatDurable
	StatWALSeq
	StatWALCheckpointSeq
	StatCheckpointAgeNs
	StatPIRModMuls
	StatPIRTableMuls
	StatReplPrimarySeq
	StatReplLagOps
	StatRouterPartitions
	StatRouterRetries
	StatRouterFailovers
	StatDecoyQueries
	StatRiskAudited
	StatRiskSkipped
	StatRiskSumMicros
	StatPIRRecursiveQueries
	NumStatFields
)

// Stats is the wire form of a server's serving counters, indexed by
// Stat and encoded positionally as vbytes.
type Stats [NumStatFields]uint64

// Unit is how a counter is read and exported.
type Unit uint8

const (
	UnitCount  Unit = iota // a monotonic total or a level, exported as is
	UnitGauge              // an instantaneous level; a transiently negative read clamps to 0
	UnitNanos              // nanoseconds, exported in seconds
	UnitMicros             // micro-units, exported in units
)

// Agg is how a cluster router folds its partitions' values of a counter.
type Agg uint8

const (
	AggSum    Agg = iota // the cluster's figure is the partitions' sum
	AggMax               // a watermark: the largest partition's
	AggAnd               // a flag: 1 only when every partition reports nonzero
	AggRouter            // the router's own figure; partitions' values are ignored
)

// StatField describes one counter.
type StatField struct {
	// Name is the counter's wire name, used by the docs.
	Name string
	// Metric is its name on a server's /metrics page after the
	// "embellish_" prefix; empty when the page does not carry it.
	Metric string
	Unit   Unit
	Agg    Agg
}

// StatFields is the one declaration of the serving counters: the codec,
// the /metrics exposition and the router's aggregation all walk it.
var StatFields = [NumStatFields]StatField{
	// Connection lifecycle.
	StatAccepted: {"Accepted", "connections_accepted_total", UnitCount, AggSum},
	StatRejected: {"Rejected", "connections_rejected_total", UnitCount, AggSum},
	StatActive:   {"Active", "connections_active", UnitGauge, AggSum},
	// Requests.
	StatQueries:    {"Queries", "queries_total", UnitCount, AggSum},
	StatUpdates:    {"Updates", "updates_total", UnitCount, AggSum},
	StatRetrievals: {"Retrievals", "retrievals_total", UnitCount, AggSum},
	StatErrors:     {"Errors", "errors_total", UnitCount, AggSum},
	// Query latency (engine processing only, not queue wait).
	StatQueryNs:    {"QueryNs", "query_seconds_total", UnitNanos, AggSum},
	StatMaxQueryNs: {"MaxQueryNs", "query_seconds_max", UnitNanos, AggMax},
	// Admission control.
	StatInflight:         {"Inflight", "inflight", UnitGauge, AggSum},
	StatQueued:           {"Queued", "queue_depth", UnitGauge, AggSum},
	StatQueuedTotal:      {"QueuedTotal", "queued_total", UnitCount, AggSum},
	StatQueueWaitNs:      {"QueueWaitNs", "queue_wait_seconds_total", UnitNanos, AggSum},
	StatMaxQueueWaitNs:   {"MaxQueueWaitNs", "queue_wait_seconds_max", UnitNanos, AggMax},
	StatShedQueueFull:    {"ShedQueueFull", "shed_queue_full_total", UnitCount, AggSum},
	StatShedQueueTimeout: {"ShedQueueTimeout", "shed_queue_timeout_total", UnitCount, AggSum},
	StatDeadlines:        {"Deadlines", "deadline_cancellations_total", UnitCount, AggSum},
	// Durability (zero on in-memory engines; Durable tells "in-memory"
	// from "durable with zero lag").
	StatDurable:          {"Durable", "durable", UnitCount, AggAnd},
	StatWALSeq:           {"WALSeq", "wal_seq", UnitCount, AggMax},
	StatWALCheckpointSeq: {"WALCheckpointSeq", "wal_checkpoint_seq", UnitCount, AggMax},
	StatCheckpointAgeNs:  {"CheckpointAgeNs", "checkpoint_age_seconds", UnitNanos, AggMax},
	// PIR work (partial work of cancelled scans included).
	StatPIRModMuls:   {"PIRModMuls", "pir_modmuls_total", UnitCount, AggSum},
	StatPIRTableMuls: {"PIRTableMuls", "pir_table_muls_total", UnitCount, AggSum},
	// Replication (zero unless the server is a WAL-shipped replica).
	StatReplPrimarySeq: {"ReplPrimarySeq", "repl_primary_seq", UnitCount, AggMax},
	StatReplLagOps:     {"ReplLagOps", "repl_lag_ops", UnitCount, AggSum},
	// Cluster routing (zero unless the answering process is a router,
	// whose own page exports them).
	StatRouterPartitions: {"RouterPartitions", "", UnitCount, AggRouter},
	StatRouterRetries:    {"RouterRetries", "", UnitCount, AggRouter},
	StatRouterFailovers:  {"RouterFailovers", "", UnitCount, AggRouter},
	// Privacy traffic and auditing.
	StatDecoyQueries:  {"DecoyQueries", "decoy_queries_total", UnitCount, AggSum},
	StatRiskAudited:   {"RiskAudited", "risk_audited_total", UnitCount, AggSum},
	StatRiskSkipped:   {"RiskSkipped", "risk_skipped_total", UnitCount, AggSum},
	StatRiskSumMicros: {"RiskSumMicros", "risk_sum", UnitMicros, AggSum},
	// Recursive retrieval.
	StatPIRRecursiveQueries: {"PIRRecursiveQueries", "pir_recursive_queries_total", UnitCount, AggSum},
}

// Exported is v in the unit the /metrics page shows: seconds for
// nanoseconds, units for micro-units, the count itself otherwise.
func (f StatField) Exported(v uint64) any {
	switch f.Unit {
	case UnitNanos:
		return float64(v) / 1e9
	case UnitMicros:
		return float64(v) / 1e6
	default:
		return v
	}
}

// Aggregate folds partitions' counters into one cluster view, each field
// by its Agg rule; the AggRouter fields are taken from own, the router's
// own counters.
func Aggregate(own Stats, parts []Stats) Stats {
	var out Stats
	for i, f := range StatFields {
		switch f.Agg {
		case AggRouter:
			out[i] = own[i]
			continue
		case AggAnd:
			out[i] = 1
		}
		for _, p := range parts {
			switch f.Agg {
			case AggSum:
				out[i] += p[i]
			case AggMax:
				out[i] = max(out[i], p[i])
			case AggAnd:
				if p[i] == 0 {
					out[i] = 0
				}
			}
		}
	}
	return out
}

// WriteStatsRequest frames the client's empty stats request.
func WriteStatsRequest(w io.Writer) error {
	return writeFrame(w, newFrame(TypeStats, 0))
}

// WriteStats frames and writes the server's stats response: a field
// count followed by that many vbyte-coded values in Stat order.
func WriteStats(w io.Writer, st Stats) error {
	body := vbyte.Append(newFrame(TypeStats, (len(st)+1)*vbyte.MaxLen), uint64(len(st)))
	for _, v := range st {
		body = vbyte.Append(body, v)
	}
	return writeFrame(w, body)
}

// DecodeStats parses a non-empty TypeStats body. Field counts beyond
// the current schema are tolerated (the extra values are read and
// dropped — a newer server); counts up to maxStatsFields bound the
// decode work against forged headers.
func DecodeStats(body []byte) (Stats, error) {
	var st Stats
	n, used, err := vbyte.Decode(body)
	if err != nil || n == 0 || n > maxStatsFields {
		return st, fmt.Errorf("wire: stats field count: %w", orRange(err))
	}
	body = body[used:]
	for i := 0; i < int(n); i++ {
		v, used, err := vbyte.Decode(body)
		if err != nil {
			return Stats{}, fmt.Errorf("wire: stats field %d: %w", i, err)
		}
		body = body[used:]
		if i < len(st) {
			st[i] = v
		}
	}
	if len(body) != 0 {
		return Stats{}, errors.New("wire: trailing bytes after stats")
	}
	return st, nil
}
