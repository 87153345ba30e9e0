package cluster

import (
	"fmt"

	"embellish/internal/wire"
)

// RouterStats is a snapshot of the router's own counters — the routing
// tier's view, as opposed to the aggregated partition view served over
// TypeStats.
type RouterStats struct {
	// Partitions is the configured shard count.
	Partitions int
	// Accepted and Active count client connections; Inflight counts
	// requests currently being routed.
	Accepted, Active, Inflight int64
	// Queries, Updates and Retrievals count routed requests by class
	// (batch frames count each member).
	Queries, Updates, Retrievals int64
	// Errors counts refusals written back to clients.
	Errors int64
	// Retries counts partition attempts beyond the first; Failovers
	// counts attempts that landed on a non-primary endpoint.
	Retries, Failovers int64
	// PartitionRetries and PartitionFailovers break the totals down per
	// partition — the fastest way to spot the one sick worker.
	PartitionRetries, PartitionFailovers []int64
}

// Stats snapshots the router's counters.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Partitions:         r.n,
		Accepted:           r.loop.Counters[wire.StatAccepted].Load(),
		Active:             r.loop.Counters[wire.StatActive].Load(),
		Inflight:           r.loop.Counters[wire.StatInflight].Load(),
		Queries:            r.loop.Counters[wire.StatQueries].Load(),
		Updates:            r.loop.Counters[wire.StatUpdates].Load(),
		Retrievals:         r.loop.Counters[wire.StatRetrievals].Load(),
		Errors:             r.loop.Counters[wire.StatErrors].Load(),
		Retries:            r.loop.Counters[wire.StatRouterRetries].Load(),
		Failovers:          r.loop.Counters[wire.StatRouterFailovers].Load(),
		PartitionRetries:   make([]int64, r.n),
		PartitionFailovers: make([]int64, r.n),
	}
	for p := 0; p < r.n; p++ {
		st.PartitionRetries[p] = r.partRetries[p].Load()
		st.PartitionFailovers[p] = r.partFailovers[p].Load()
	}
	return st
}

// MetricsText renders the router counters as a Prometheus-style text
// page for the embellish-router -metrics listener; per-partition
// breakdowns carry a partition label.
func (r *Router) MetricsText() []byte {
	st := r.Stats()
	var b []byte
	line := func(name string, v interface{}) {
		b = fmt.Appendf(b, "embellish_router_%s %v\n", name, v)
	}
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	line("partitions", st.Partitions)
	line("connections_accepted_total", st.Accepted)
	line("connections_active", clamp(st.Active))
	line("inflight", clamp(st.Inflight))
	line("queries_total", st.Queries)
	line("updates_total", st.Updates)
	line("retrievals_total", st.Retrievals)
	line("errors_total", st.Errors)
	line("retries_total", st.Retries)
	line("failovers_total", st.Failovers)
	for p := 0; p < st.Partitions; p++ {
		b = fmt.Appendf(b, "embellish_router_partition_retries_total{partition=\"%d\"} %d\n", p, st.PartitionRetries[p])
		b = fmt.Appendf(b, "embellish_router_partition_failovers_total{partition=\"%d\"} %d\n", p, st.PartitionFailovers[p])
	}
	return b
}
