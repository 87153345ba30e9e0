package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"strings"
	"testing"

	"embellish/internal/vbyte"
)

func sampleStats() Stats {
	return Stats{
		StatAccepted: 101, StatRejected: 3, StatActive: 7,
		StatQueries: 5000, StatUpdates: 12, StatRetrievals: 900, StatErrors: 4,
		StatQueryNs: 1 << 44, StatMaxQueryNs: 1 << 30,
		StatInflight: 8, StatQueued: 5, StatQueuedTotal: 620,
		StatQueueWaitNs: 1 << 33, StatMaxQueueWaitNs: 1 << 28,
		StatShedQueueFull: 17, StatShedQueueTimeout: 6, StatDeadlines: 2,
		StatDurable: 1, StatWALSeq: 812, StatWALCheckpointSeq: 800, StatCheckpointAgeNs: 1 << 36,
		StatPIRModMuls: 1 << 40, StatPIRTableMuls: 1 << 22,
		StatReplPrimarySeq: 815, StatReplLagOps: 3,
		StatRouterPartitions: 3, StatRouterRetries: 9, StatRouterFailovers: 1,
		StatDecoyQueries: 400, StatRiskAudited: 390, StatRiskSkipped: 10, StatRiskSumMicros: 123456,
		StatPIRRecursiveQueries: 70,
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := sampleStats()
	var buf bytes.Buffer
	if err := WriteStats(&buf, want); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeStats {
		t.Fatalf("type = %d, want %d", typ, TypeStats)
	}
	got, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestStatsGolden pins the positional order byte for byte: the frame in
// testdata sets every counter to a distinct value.
func TestStatsGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/stats.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStats(&buf, sampleStats()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stats frame %x, golden %x", buf.Bytes(), want)
	}
}

func TestStatsRequestIsEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStatsRequest(&buf); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadMessage(&buf)
	if err != nil || typ != TypeStats {
		t.Fatalf("type = %d err = %v", typ, err)
	}
	if len(body) != 0 {
		t.Fatalf("request body has %d bytes, want 0", len(body))
	}
}

// TestStatsForwardCompat proves both directions of schema drift: a
// SHORTER field list (older server) decodes with the missing trailing
// fields zero, and a LONGER one (newer server) decodes with the extra
// values dropped — in both cases without error.
func TestStatsForwardCompat(t *testing.T) {
	// Older server: only the first three fields.
	var body []byte
	body = vbyte.Append(body, 3)
	for _, v := range []uint64{11, 22, 33} {
		body = vbyte.Append(body, v)
	}
	got, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if got[StatAccepted] != 11 || got[StatRejected] != 22 || got[StatActive] != 33 || got[StatQueries] != 0 {
		t.Fatalf("short decode = %+v", got)
	}

	// Newer server: the full schema plus extra trailing fields.
	full := sampleStats()
	body = body[:0]
	body = vbyte.Append(body, uint64(len(full)+2))
	for _, v := range full {
		body = vbyte.Append(body, v)
	}
	body = vbyte.Append(body, 12345)
	body = vbyte.Append(body, 67890)
	got, err = DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != full {
		t.Fatalf("long decode = %+v, want %+v", got, full)
	}
}

// TestStatsHostileBodies pins the decoder's forged-input behavior to
// the package convention: bad counts, truncation and trailing garbage
// are clean errors, never panics or allocations driven by the header.
func TestStatsHostileBodies(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"zero count", vbyte.Append(nil, 0)},
		{"count over cap", vbyte.Append(nil, maxStatsFields+1)},
		{"huge count", vbyte.Append(nil, 1<<40)},
		{"truncated fields", vbyte.Append(nil, 5)},
		{"trailing bytes", append(vbyte.Append(vbyte.Append(nil, 1), 9), 0xff)},
	}
	for _, tc := range cases {
		if _, err := DecodeStats(tc.body); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// TestStatsFieldCountPinned fails when a field is added without
// bumping this constant — the reminder that the encoding is
// positional and append-only — and when a table row is left unnamed.
func TestStatsFieldCountPinned(t *testing.T) {
	if NumStatFields != 33 {
		t.Fatalf("Stats encodes %d fields, test expects 33; fields are append-only — update this test after appending", NumStatFields)
	}
	if maxStatsFields < NumStatFields {
		t.Fatal("maxStatsFields fell below the schema size")
	}
	seen := make(map[string]bool)
	for i, f := range StatFields {
		if f.Name == "" {
			t.Fatalf("stats field %d has no name", i)
		}
		for _, name := range []string{f.Name, f.Metric} {
			if name != "" && seen[name] {
				t.Fatalf("stats field %d repeats the name %q", i, name)
			}
			seen[name] = true
		}
	}
}

// aggregateOracle is the router's aggregation as it was written field by
// field before the stats table existed: partition totals summed,
// watermarks maxed, Durable an AND, and the router's own three fields
// taken from the router.
func aggregateOracle(own Stats, parts []Stats) Stats {
	agg := Stats{StatDurable: 1}
	maxU := func(dst *uint64, v uint64) {
		if v > *dst {
			*dst = v
		}
	}
	for _, st := range parts {
		agg[StatAccepted] += st[StatAccepted]
		agg[StatRejected] += st[StatRejected]
		agg[StatActive] += st[StatActive]
		agg[StatQueries] += st[StatQueries]
		agg[StatUpdates] += st[StatUpdates]
		agg[StatRetrievals] += st[StatRetrievals]
		agg[StatErrors] += st[StatErrors]
		agg[StatQueryNs] += st[StatQueryNs]
		maxU(&agg[StatMaxQueryNs], st[StatMaxQueryNs])
		agg[StatInflight] += st[StatInflight]
		agg[StatQueued] += st[StatQueued]
		agg[StatQueuedTotal] += st[StatQueuedTotal]
		agg[StatQueueWaitNs] += st[StatQueueWaitNs]
		maxU(&agg[StatMaxQueueWaitNs], st[StatMaxQueueWaitNs])
		agg[StatShedQueueFull] += st[StatShedQueueFull]
		agg[StatShedQueueTimeout] += st[StatShedQueueTimeout]
		agg[StatDeadlines] += st[StatDeadlines]
		if st[StatDurable] == 0 {
			agg[StatDurable] = 0
		}
		maxU(&agg[StatWALSeq], st[StatWALSeq])
		maxU(&agg[StatWALCheckpointSeq], st[StatWALCheckpointSeq])
		maxU(&agg[StatCheckpointAgeNs], st[StatCheckpointAgeNs])
		agg[StatPIRModMuls] += st[StatPIRModMuls]
		agg[StatPIRTableMuls] += st[StatPIRTableMuls]
		agg[StatPIRRecursiveQueries] += st[StatPIRRecursiveQueries]
		maxU(&agg[StatReplPrimarySeq], st[StatReplPrimarySeq])
		agg[StatReplLagOps] += st[StatReplLagOps]
		agg[StatDecoyQueries] += st[StatDecoyQueries]
		agg[StatRiskAudited] += st[StatRiskAudited]
		agg[StatRiskSkipped] += st[StatRiskSkipped]
		agg[StatRiskSumMicros] += st[StatRiskSumMicros]
	}
	agg[StatRouterPartitions] = own[StatRouterPartitions]
	agg[StatRouterRetries] = own[StatRouterRetries]
	agg[StatRouterFailovers] = own[StatRouterFailovers]
	return agg
}

// TestAggregateMatchesOracle holds the table-driven aggregation to the
// hand-written rule over random partition counters, zero flags and
// wrapping sums included.
func TestAggregateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	draw := func() Stats {
		var st Stats
		for i := range st {
			switch rng.Intn(4) {
			case 0: // zero, so the AND and max see empty partitions
			case 1:
				st[i] = uint64(rng.Intn(3))
			case 2:
				st[i] = uint64(rng.Int63n(1 << 40))
			default:
				st[i] = rng.Uint64()
			}
		}
		return st
	}
	for trial := 0; trial < 500; trial++ {
		parts := make([]Stats, 1+rng.Intn(5))
		for p := range parts {
			parts[p] = draw()
		}
		own := draw()
		if got, want := Aggregate(own, parts), aggregateOracle(own, parts); got != want {
			t.Fatalf("trial %d: Aggregate = %v, oracle %v", trial, got, want)
		}
	}
}
