package embellish

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"

	"embellish/internal/wire"
)

func TestGaugeClampsNegatives(t *testing.T) {
	// Regression: the live gauges (Active, Inflight, Queued) can read
	// transiently negative under disconnect-accounting races, and a raw
	// uint64 cast rendered them as ~1.8e19 on dashboards.
	e, _ := testEngine(t)
	cases := map[int64]uint64{-1: 0, -1 << 40: 0, 0: 0, 7: 7, 1 << 40: 1 << 40}
	for in, want := range cases {
		srv := e.NewNetServer(ServeConfig{})
		for _, f := range []wire.Stat{wire.StatActive, wire.StatInflight, wire.StatQueued} {
			srv.loop.Counters[f].Add(in)
			if got := srv.statsPayload()[f]; got != want {
				t.Fatalf("%s read at %d = %d, want %d", wire.StatFields[f].Name, in, got, want)
			}
		}
	}
}

func TestStatsPayloadClampsGauges(t *testing.T) {
	e, _ := testEngine(t)
	srv := e.NewNetServer(ServeConfig{})
	// Force the gauges negative the way a lost decrement race would.
	srv.loop.Counters[wire.StatActive].Add(-3)
	srv.loop.Counters[wire.StatInflight].Add(-2)
	p := srv.statsPayload()
	if p[wire.StatActive] != 0 || p[wire.StatInflight] != 0 {
		t.Fatalf("negative gauges leaked into the wire payload: active=%d inflight=%d",
			p[wire.StatActive], p[wire.StatInflight])
	}
	text := string(srv.MetricsText())
	for _, line := range []string{
		"embellish_connections_active 0\n",
		"embellish_inflight 0\n",
		"embellish_queue_depth 0\n",
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("metrics text missing %q:\n%s", line, text)
		}
	}
	if strings.Contains(text, "1844674407") {
		t.Fatalf("wrapped negative gauge in metrics text:\n%s", text)
	}
}

// metricsOracle is the /metrics page as it was written line by line
// before the stats table existed, over the public snapshot.
func metricsOracle(st ServeStats) []byte {
	var b []byte
	line := func(name string, v interface{}) {
		b = fmt.Appendf(b, "embellish_%s %v\n", name, v)
	}
	secs := func(d int64) float64 { return float64(d) / 1e9 }
	gauge := func(v int64) uint64 { return uint64(max(v, 0)) }
	line("connections_accepted_total", st.Accepted)
	line("connections_rejected_total", st.Rejected)
	line("connections_active", gauge(st.Active))
	line("queries_total", st.Queries)
	line("updates_total", st.Updates)
	line("retrievals_total", st.Retrievals)
	line("errors_total", st.Errors)
	line("query_seconds_total", secs(int64(st.QueryTime)))
	line("query_seconds_max", secs(int64(st.MaxQueryTime)))
	line("inflight", gauge(st.Inflight))
	line("queue_depth", gauge(st.Queued))
	line("queued_total", st.QueuedTotal)
	line("queue_wait_seconds_total", secs(int64(st.QueueWait)))
	line("queue_wait_seconds_max", secs(int64(st.MaxQueueWait)))
	line("shed_queue_full_total", st.ShedQueueFull)
	line("shed_queue_timeout_total", st.ShedQueueTimeout)
	line("deadline_cancellations_total", st.Deadlines)
	durable := 0
	if st.Durable {
		durable = 1
	}
	line("durable", durable)
	line("wal_seq", st.WALSeq)
	line("wal_checkpoint_seq", st.WALCheckpointSeq)
	line("checkpoint_age_seconds", secs(int64(st.CheckpointAge)))
	line("pir_modmuls_total", st.PIRModMuls)
	line("pir_table_muls_total", st.PIRTableMuls)
	line("pir_recursive_queries_total", st.PIRRecursiveQueries)
	line("pir_recursive_partials_total", st.PIRRecursivePartials)
	line("repl_primary_seq", st.ReplPrimarySeq)
	line("repl_lag_ops", st.ReplLag)
	line("decoy_queries_total", st.DecoyQueries)
	line("risk_audited_total", st.RiskAudited)
	line("risk_skipped_total", st.RiskSkipped)
	line("risk_sum", float64(st.RiskSumMicros)/1e6)
	return b
}

// TestMetricsTextMatchesOracle: the table-driven page carries exactly
// the hand-written page's lines with its values, over random snapshots;
// only the line order may follow the table.
func TestMetricsTextMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sorted := func(b []byte) []string {
		lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		slices.Sort(lines)
		return lines
	}
	for trial := 0; trial < 200; trial++ {
		var p wire.Stats
		for i := range p {
			switch rng.Intn(3) {
			case 0:
			case 1:
				p[i] = uint64(rng.Intn(1000))
			default:
				p[i] = uint64(rng.Int63())
			}
		}
		p[wire.StatDurable] &= 1
		got, want := sorted(metricsText(p)), sorted(metricsOracle(serveStats(p)))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: metrics lines\n%v\nwant\n%v", trial, got, want)
		}
	}
}

// TestStatsRoundTripAllocs pins the allocations of one TypeStats round
// trip through the request loop, client and server side together, at
// the count the hand-written loop this one replaced made (15).
func TestStatsRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	e, _ := testEngine(t)
	client, server := net.Pipe()
	defer client.Close()
	go e.ServeConn(server)
	roundTrip := func() {
		if _, err := ServerStats(client); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if n := testing.AllocsPerRun(200, roundTrip); n > 15 {
		t.Fatalf("a stats round trip allocates %.0f times, the per-type loop it replaced 15", n)
	}
}
