package embellish

import (
	"fmt"
	"io"
	"time"

	"embellish/internal/wire"
)

// The metrics surface: one counter snapshot in the wire.Stats form is
// exported three ways — over the wire protocol (TypeStats, served
// without admission so it stays readable under saturation), as a
// Prometheus-style text page for the embellish-server -metrics HTTP
// listener, and to remote clients via ServerStats. All three read the
// identical counters, walked through the one table wire.StatFields, so
// an operator's dashboard and a client's retry policy never disagree
// about what the server is doing.

// statsPayload snapshots the server's counters, with the durability and
// replication rows read from the engine and the replication probe.
func (s *NetServer) statsPayload() wire.Stats {
	st := s.loop.Snapshot()
	if ws, ok := s.engine.WALStatus(); ok {
		st[wire.StatDurable] = 1
		st[wire.StatWALSeq] = ws.Seq
		st[wire.StatWALCheckpointSeq] = ws.CheckpointSeq
		if !ws.LastCheckpointAt.IsZero() {
			st[wire.StatCheckpointAgeNs] = uint64(time.Since(ws.LastCheckpointAt))
		}
	}
	if probe := s.replicaStatus.Load(); probe != nil {
		if primarySeq, ok := (*probe)(); ok {
			st[wire.StatReplPrimarySeq] = primarySeq
			if walSeq := st[wire.StatWALSeq]; primarySeq > walSeq {
				st[wire.StatReplLagOps] = primarySeq - walSeq
			}
		}
	}
	return st
}

// answerStats serves one TypeStats request.
func (s *NetServer) answerStats(req *netRequest) error {
	return wire.WriteStats(req.W, s.statsPayload())
}

// MetricsText renders the counter snapshot as a Prometheus-style text
// exposition — one embellish_* line per field — for the optional
// -metrics HTTP listener in cmd/embellish-server. Durations are
// exported in seconds, matching Prometheus convention.
func (s *NetServer) MetricsText() []byte {
	return metricsText(s.statsPayload())
}

func metricsText(st wire.Stats) []byte {
	var b []byte
	for i, f := range wire.StatFields {
		if f.Metric != "" {
			b = fmt.Appendf(b, "embellish_%s %v\n", f.Metric, f.Exported(st[i]))
		}
	}
	return b
}

// serveStats is the public view of a wire snapshot — the one place the
// counters are copied field by field.
func serveStats(p wire.Stats) ServeStats {
	return ServeStats{
		Accepted:            int64(p[wire.StatAccepted]),
		Rejected:            int64(p[wire.StatRejected]),
		Active:              int64(p[wire.StatActive]),
		Queries:             int64(p[wire.StatQueries]),
		Updates:             int64(p[wire.StatUpdates]),
		Retrievals:          int64(p[wire.StatRetrievals]),
		Errors:              int64(p[wire.StatErrors]),
		QueryTime:           time.Duration(p[wire.StatQueryNs]),
		MaxQueryTime:        time.Duration(p[wire.StatMaxQueryNs]),
		Inflight:            int64(p[wire.StatInflight]),
		Queued:              int64(p[wire.StatQueued]),
		QueuedTotal:         int64(p[wire.StatQueuedTotal]),
		QueueWait:           time.Duration(p[wire.StatQueueWaitNs]),
		MaxQueueWait:        time.Duration(p[wire.StatMaxQueueWaitNs]),
		ShedQueueFull:       int64(p[wire.StatShedQueueFull]),
		ShedQueueTimeout:    int64(p[wire.StatShedQueueTimeout]),
		Deadlines:           int64(p[wire.StatDeadlines]),
		Durable:             p[wire.StatDurable] != 0,
		WALSeq:              p[wire.StatWALSeq],
		WALCheckpointSeq:    p[wire.StatWALCheckpointSeq],
		CheckpointAge:       time.Duration(p[wire.StatCheckpointAgeNs]),
		PIRModMuls:          int64(p[wire.StatPIRModMuls]),
		PIRTableMuls:        int64(p[wire.StatPIRTableMuls]),
		PIRRecursiveQueries: int64(p[wire.StatPIRRecursiveQueries]),
		ReplPrimarySeq:      p[wire.StatReplPrimarySeq],
		ReplLag:             p[wire.StatReplLagOps],
		RouterPartitions:    p[wire.StatRouterPartitions],
		RouterRetries:       p[wire.StatRouterRetries],
		RouterFailovers:     p[wire.StatRouterFailovers],
		DecoyQueries:        int64(p[wire.StatDecoyQueries]),
		RiskAudited:         int64(p[wire.StatRiskAudited]),
		RiskSkipped:         int64(p[wire.StatRiskSkipped]),
		RiskSumMicros:       int64(p[wire.StatRiskSumMicros]),
	}
}

// ServerStats fetches a remote server's counter snapshot over an open
// protocol connection. Any wire client may call it — the server
// answers without admission control, so it works even while the
// server is saturated (which is exactly when it matters). Fields the
// remote server is too old to send decode as zero.
func ServerStats(conn io.ReadWriter) (ServeStats, error) {
	if err := wire.WriteStatsRequest(conn); err != nil {
		return ServeStats{}, fmt.Errorf("embellish: sending stats request: %w", err)
	}
	body, err := readReply(conn, wire.TypeStats, "stats")
	if err != nil {
		return ServeStats{}, err
	}
	p, err := wire.DecodeStats(body)
	if err != nil {
		return ServeStats{}, err
	}
	return serveStats(p), nil
}
