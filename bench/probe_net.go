package main

// probe_net.go: the serving layer (the root package's net.go and
// admission.go). What an op costs over loopback beyond its in-process chain
// is codec + TCP + admission + serving glue; the server's own counters say
// how much of that is queueing.

import (
	"fmt"
	"time"
)

func (t *traceRun) probeNet() error {
	// Loopback minus in-process, paired op by op.
	for workload, name := range map[string]string{
		searchSession: "net.search_overhead_ms", rankServe: "net.rank_overhead_ms",
		fetchFlat: "net.fetch_overhead_ms", fetchRecursive: "net.rec_overhead_ms",
	} {
		rp := t.replays[workload]
		if len(rp.local) != len(rp.loop) {
			return fmt.Errorf("%s: %d loopback ops but %d in-process ones", workload, len(rp.loop), len(rp.local))
		}
		diffs := make([]float64, len(rp.loop))
		for i := range diffs {
			diffs[i] = ms(rp.loop[i] - rp.local[i])
		}
		t.m.set(name, median(diffs), "ms", len(diffs))
	}

	// The server under the contention rank-serve puts it under: two
	// connections replaying frames for a second.
	sess, err := newSessions(t.w, t.in, rankServe, 2)
	if err != nil {
		return err
	}
	defer closeSessions(sess)
	before := t.w.server.Stats()
	r := closedLoop(sess, 0, time.Second, nil, nil, rankServe)
	after := t.w.server.Stats()
	t.noteLoop(r)
	queries := float64(after.Queries - before.Queries)
	if queries == 0 {
		return fmt.Errorf("the server counted no query in the rank burst")
	}
	t.m.set("net.server_query_ms", ms(after.QueryTime-before.QueryTime)/queries, "ms", int(queries))
	t.m.set("net.queue_wait_ms", ms(after.QueueWait-before.QueueWait)/queries, "ms", int(queries))
	t.m.set("net.queued_share", float64(after.QueuedTotal-before.QueuedTotal)/queries, "ratio", int(queries))
	if p90, ok := percentile(msOf(r.latencies), 0.90); ok {
		t.m.set("net.rank_p90_ms", p90, "ms", len(r.latencies))
	}
	t.m.set("net.rank_ops_per_s", r.opsPerS, "1/s", len(r.latencies))
	// Over the whole traced run so far: the server never refused or failed.
	t.m.set("net.shed", float64(after.ShedQueueFull+after.ShedQueueTimeout), "count", 0)
	t.m.set("net.errors", float64(after.Errors), "count", 0)
	return nil
}
