package embellish

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"embellish/internal/wire"
)

// TestDocsLinksResolve is the documentation-suite link check: every
// relative markdown link in README.md and docs/ must point to a file
// that exists in the repository, and every anchor into a markdown
// file must match one of its headings. External http(s) links are not
// fetched (tests run offline) — only their syntax is accepted.
func TestDocsLinksResolve(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md", "CHANGES.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	if len(files) < 9 { // README, ROADMAP, CHANGES + the 6 docs/ pages
		t.Fatalf("only %d markdown files found; docs suite incomplete: %v", len(files), files)
	}

	// [text](target) — good enough for the plain links these docs use;
	// images and reference-style links would need more.
	linkRe := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(file), path)
			if path == "" {
				resolved = file // same-file anchor
			}
			info, err := os.Stat(resolved)
			if err != nil {
				t.Errorf("%s links to %q: %v", file, target, err)
				continue
			}
			if anchor != "" && !info.IsDir() {
				if !hasAnchor(t, resolved, anchor) {
					t.Errorf("%s links to %q: no heading matches #%s", file, target, anchor)
				}
			}
		}
	}
}

// hasAnchor reports whether the markdown file has a heading whose
// GitHub-style slug equals anchor.
func hasAnchor(t *testing.T, file, anchor string) bool {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		if headingSlug(strings.TrimLeft(line, "# ")) == anchor {
			return true
		}
	}
	return false
}

// headingSlug approximates GitHub's anchor slugging: lowercase, drop
// everything but letters/digits/spaces/hyphens/underscores, spaces to
// hyphens.
func headingSlug(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// TestDocsMentionCurrentSurface guards against the docs drifting
// behind the code: the flag tables and knob references in the docs
// must name the knobs the binaries actually expose, and the wire
// reference must cover every message type constant.
func TestDocsMentionCurrentSurface(t *testing.T) {
	perf, err := os.ReadFile("docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, knob := range []string{
		"schedule derived from GOMAXPROCS",
		"ProcessColumnsMultiExecCtx", "Deleted plans",
		"SetFetchRecursive",
		"BlockSize", "RetrievalKeyBits", "MaxSegments",
		"Durability", "CheckpointEveryOps", "Montgomery",
		"OPERATIONS.md", "What an engine build costs",
	} {
		if !strings.Contains(string(perf), knob) {
			t.Errorf("docs/PERFORMANCE.md does not mention %s", knob)
		}
	}
	// The one benchmark: its command, every workload and every end-to-end
	// metric BENCHMARK.json declares.
	var bench struct {
		Command   []string                `json:"command"`
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bench.Workloads) == 0 || len(bench.EndToEnd) == 0 {
		t.Fatalf("BENCHMARK.json declares %d workloads and %d end-to-end metrics", len(bench.Workloads), len(bench.EndToEnd))
	}
	names := []string{strings.Join(bench.Command, " ")}
	for _, w := range bench.Workloads {
		names = append(names, "`"+w.Name+"`")
	}
	for _, m := range bench.EndToEnd {
		names = append(names, "`"+m.Name+"`")
	}
	for _, name := range names {
		if !strings.Contains(string(perf), name) {
			t.Errorf("docs/PERFORMANCE.md does not name the benchmark's %s", name)
		}
	}
	ops, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		// The serving knobs and their CLI spellings...
		"MaxInflight", "QueueDepth", "QueueTimeout", "RequestTimeout",
		"IdleTimeout", "-max-inflight", "-queue-depth", "-queue-timeout",
		"-request-timeout", "-metrics",
		// ...the typed error surface and cancellation API...
		"ErrOverloaded", "ErrRemoteDeadline", "OverloadRefusal",
		"DeadlineRefusal", "CancelledError", "ProcessContext",
		"FetchDocumentsContext",
		// ...the metrics surface (the counters themselves below)...
		"TypeStats", "ServerStats", "/metrics", "/stats.json",
		// ...the recursive PIR serving surface...
		"SetFetchRecursive",
		// ...the replication and cluster knobs...
		"-allow-replication", "-replicate-from", "-replicate-every",
		"-partition", "embellish_router_",
		// ...and the privacy serving surfaces.
		"-allow-lexicon-sync", "-risk-audit", "-sync-lexicon",
		"-decoys", "-audit",
	} {
		if !strings.Contains(string(ops), name) {
			t.Errorf("docs/OPERATIONS.md does not document %s", name)
		}
	}
	// Every serving counter, by its wire name and its /metrics name.
	for _, f := range wire.StatFields {
		if !strings.Contains(string(ops), "`"+f.Name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document the counter %s", f.Name)
		}
		if f.Metric != "" && !strings.Contains(string(ops), "`embellish_"+f.Metric+"`") {
			t.Errorf("docs/OPERATIONS.md does not document the metric embellish_%s", f.Metric)
		}
	}
	durability, err := os.ReadFile("docs/DURABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		// The API surface and policy names the durability layer exposes...
		"OpenDurable", "EnableDurability", "Checkpoint", "WALStatus",
		"FsyncEveryRecord", "FsyncInterval", "FsyncNever",
		"CheckpointEveryOps", "CheckpointEveryBytes",
		"-data-dir", "-fsync", "-checkpoint-every",
		// ...and the on-disk grammar recovery depends on.
		"EWAL", "crc32", "checkpoint-", "wal-",
	} {
		if !strings.Contains(string(durability), name) {
			t.Errorf("docs/DURABILITY.md does not document %s", name)
		}
	}
	wireDoc, err := os.ReadFile("docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	for typ := 1; typ <= 23; typ++ { // 10, 11 and 22 are listed as retired
		if !strings.Contains(string(wireDoc), fmt.Sprintf("| %d |", typ)) {
			t.Errorf("docs/WIRE.md type table misses message type %d", typ)
		}
	}
	for _, name := range []string{
		"TypeQuery", "TypeResponse", "TypeError", "TypeBatchQuery",
		"TypeBatchResponse", "TypeAddDocs", "TypeDeleteDocs", "TypeAdminOK",
		"TypePIRParams", "TypePIRBatchQuery", "TypePIRBatchResponse", "TypeStats",
		"TypeWALPull", "TypeWALChunk", "TypeClusterMap",
		"TypeLexiconSync", "TypeLexicon", "TypeDecoyQuery", "TypeRiskAudit",
		"TypePIRRecursiveQuery", "MaxPIRRecursiveBatch",
		"SetFetchRecursive", "ViewRefusal", "StaleMapRefusal",
		"AllowUpdates", "AllowRetrieval", "AllowReplication",
		"AllowLexiconSync", "RiskAudit", "StaleLexiconRefusal",
		"ErrStaleLexicon", "DecoyQueries",
		// The fetch hello and the packed answers.
		"ParamsDigest", "WritePIRHello", "DecodePIRParamsReply",
		"WritePIRHelloReply", "WritePIRBatchAnswerPacked",
	} {
		if !strings.Contains(string(wireDoc), name) {
			t.Errorf("docs/WIRE.md does not document %s", name)
		}
	}
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		// The cluster tier: binaries, id math anchors, replication path.
		"embellish-router", "Config.Base", "TypeWALPull",
		"AllowReplication", "failover",
		// The fetch lifecycle opens with the hello.
		"TypePIRParams hello",
		// Every ingest path analyzes through one function.
		"indexDocuments",
	} {
		if !strings.Contains(string(arch), name) {
			t.Errorf("docs/ARCHITECTURE.md does not document %s", name)
		}
	}
	threat, err := os.ReadFile("docs/THREAT_MODEL.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range []string{"timing", "length", "bucketsize", "honest"} {
		if !strings.Contains(strings.ToLower(string(threat)), topic) {
			t.Errorf("docs/THREAT_MODEL.md does not discuss %s", topic)
		}
	}
	for _, name := range []string{
		// The served-embellishment adversary model of PR 9.
		"AllowLexiconSync", "RiskAudit", "TypeDecoyQuery",
		"NewDecoyStream", "GhostRate", "StaleLexiconRefusal",
		"RiskPoint", "coheren",
		// What the hello's digest links, and the packed answer's length.
		"ParamsDigest", "8·BlockSize·modBytes",
	} {
		if !strings.Contains(string(threat), name) {
			t.Errorf("docs/THREAT_MODEL.md does not document %s", name)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "THREAT_MODEL.md") {
		t.Error("README.md does not link the threat model")
	}
}

// TestDocsOneBenchmarkHarness: bench/ is the only benchmark harness. The
// retired tool's directory stays gone, no report of it is kept anywhere
// in the tree, and README.md and docs/ cite neither.
func TestDocsOneBenchmarkHarness(t *testing.T) {
	if _, err := os.Stat("cmd/embellish-bench"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("cmd/embellish-bench: %v, want it absent", err)
	}
	report := regexp.MustCompile(`^BENCH_PR.*\.json$`)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && report.MatchString(d.Name()) {
			t.Errorf("%s is a report of the retired benchmark tool", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("docs/*.md: %d files, %v", len(docs), err)
	}
	for _, file := range append(docs, "README.md") {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"cmd/embellish-bench", "BENCH_PR"} {
			if strings.Contains(string(data), name) {
				t.Errorf("%s cites %s", file, name)
			}
		}
	}
}
