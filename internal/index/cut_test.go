package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// buildCutTestIndex indexes random documents, every seventh a copy of an
// earlier one, so lists hold postings of equal impact and byImpact's
// doc tie-break decides their order.
func buildCutTestIndex(t *testing.T, docs, vocab int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	var texts [][]string
	for d := 0; d < docs; d++ {
		var toks []string
		if d%7 == 6 {
			toks = texts[rng.Intn(len(texts))]
		} else {
			toks = make([]string, 5+rng.Intn(20))
			for i := range toks {
				toks[i] = fmt.Sprintf("w%d", rng.Intn(vocab))
			}
		}
		texts = append(texts, toks)
		b.Add(DocID(d), toks)
	}
	return b.Build()
}

func indexBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameResultBits(a, b []Result) bool {
	return slices.EqualFunc(a, b, func(x, y Result) bool {
		return x.Doc == y.Doc && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// TestCutLayout: at every n, each run of every list holds only the
// documents ≡ s (mod n), in byImpact order, the runs together hold the
// uncut list's postings, and the readers that need the global impact
// order — WriteTo and TopK — answer exactly as on the uncut index. The
// cut copies: the uncut index is left as it was, and re-cutting a cut
// index lands on the same layout as cutting the uncut one. The small
// corpus has fewer documents than most of the run counts.
func TestCutLayout(t *testing.T) {
	for _, shape := range []struct{ docs, vocab int }{{200, 40}, {10, 8}} {
		t.Run(fmt.Sprintf("docs=%d", shape.docs), func(t *testing.T) {
			testCutLayout(t, buildCutTestIndex(t, shape.docs, shape.vocab))
		})
	}
}

func testCutLayout(t *testing.T, ix *Index) {
	want := indexBytes(t, ix)
	ties := 0
	for ti := 0; ti < ix.NumTerms(); ti++ {
		list := ix.List(ti)
		for i := 1; i < len(list); i++ {
			if list[i].Impact == list[i-1].Impact {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("fixture has no equal-impact postings; the tie-break goes untested")
	}
	rng := rand.New(rand.NewSource(8))
	queries := make([][]int, 20)
	for i := range queries {
		for range 1 + rng.Intn(5) {
			queries[i] = append(queries[i], rng.Intn(ix.NumTerms()))
		}
	}
	var prev *Index
	for _, n := range []int{1, 2, 3, 8, 17, 64} {
		cut := ix.Cut(n)
		if cut.Runs() != n || ix.Runs() != 1 {
			t.Fatalf("n=%d: cut has %d runs, source %d", n, cut.Runs(), ix.Runs())
		}
		for ti := 0; ti < ix.NumTerms(); ti++ {
			var joined []Posting
			for s := range n {
				run := cut.Run(ti, s)
				for i, p := range run {
					if int(p.Doc)%n != s {
						t.Fatalf("n=%d term %d: doc %d in run %d", n, ti, p.Doc, s)
					}
					if i > 0 && byImpact(run[i-1], p) >= 0 {
						t.Fatalf("n=%d term %d run %d: out of byImpact order at %d", n, ti, s, i)
					}
				}
				joined = append(joined, run...)
			}
			if !slices.Equal(joined, cut.List(ti)) {
				t.Fatalf("n=%d term %d: List is not the runs back to back", n, ti)
			}
			slices.SortFunc(joined, byImpact)
			if !slices.Equal(joined, ix.List(ti)) {
				t.Fatalf("n=%d term %d: runs hold other postings than the uncut list", n, ti)
			}
		}
		if got := indexBytes(t, cut); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: WriteTo differs from the uncut index's", n)
		}
		for _, q := range queries {
			if !sameResultBits(cut.TopK(q, 10), ix.TopK(q, 10)) {
				t.Fatalf("n=%d query %v: TopK differs from the uncut index's", n, q)
			}
		}
		if prev != nil {
			recut := prev.Cut(n)
			for ti := 0; ti < ix.NumTerms(); ti++ {
				if !slices.Equal(recut.List(ti), cut.List(ti)) {
					t.Fatalf("n=%d term %d: re-cut from %d runs lays out otherwise", n, ti, prev.Runs())
				}
			}
		}
		prev = cut
	}
	if back := prev.Cut(1); !bytes.Equal(indexBytes(t, back), want) || back.Runs() != 1 {
		t.Fatal("cutting back to one run does not restore the uncut lists")
	}
	if ix.Cut(1) != ix || ix.Cut(0) != ix {
		t.Fatal("cutting an uncut index into one run copied it")
	}
	if !bytes.Equal(indexBytes(t, ix), want) {
		t.Fatal("cutting modified the source index")
	}
}

// TestShardPartition: cutting into n runs partitions every list by
// document: each posting lands in exactly one run, the run its document
// maps to, with impact order kept inside the run and none lost.
func TestShardPartition(t *testing.T) {
	ix := buildCutTestIndex(t, 200, 40)
	for _, n := range []int{1, 2, 3, 8, 17} {
		cut := ix.Cut(n)
		if cut.Runs() != n {
			t.Fatalf("Runs = %d, want %d", cut.Runs(), n)
		}
		for ti := 0; ti < ix.NumTerms(); ti++ {
			full := ix.List(ti)
			total := 0
			seen := make(map[DocID]bool, len(full))
			for s := 0; s < n; s++ {
				part := cut.Run(ti, s)
				total += len(part)
				for i, p := range part {
					if int(p.Doc)%n != s {
						t.Fatalf("n=%d term %d: doc %d in run %d", n, ti, p.Doc, s)
					}
					if seen[p.Doc] {
						t.Fatalf("n=%d term %d: doc %d appears twice", n, ti, p.Doc)
					}
					seen[p.Doc] = true
					if i > 0 && part[i-1].Impact < p.Impact {
						t.Fatalf("n=%d term %d run %d: impact order broken at %d", n, ti, s, i)
					}
				}
			}
			if total != len(full) {
				t.Fatalf("n=%d term %d: runs hold %d postings, index has %d", n, ti, total, len(full))
			}
			for _, p := range full {
				if !seen[p.Doc] {
					t.Fatalf("n=%d term %d: doc %d lost", n, ti, p.Doc)
				}
			}
		}
	}
}

// TestShardDegenerate covers n<1 clamping and run counts exceeding the
// document count.
func TestShardDegenerate(t *testing.T) {
	ix := buildCutTestIndex(t, 10, 8)
	one := ix.Cut(0)
	if one.Runs() != 1 {
		t.Fatalf("Cut(0) produced %d runs, want 1", one.Runs())
	}
	for ti := 0; ti < ix.NumTerms(); ti++ {
		if got, want := len(one.Run(ti, 0)), len(ix.List(ti)); got != want {
			t.Fatalf("term %d: single run holds %d postings, want %d", ti, got, want)
		}
	}
	wide := ix.Cut(64)
	for ti := 0; ti < ix.NumTerms(); ti++ {
		total := 0
		for s := 0; s < 64; s++ {
			total += len(wide.Run(ti, s))
		}
		if total != len(ix.List(ti)) {
			t.Fatalf("term %d: 64-way runs hold %d postings, want %d", ti, total, len(ix.List(ti)))
		}
	}
}

// TestLiveSetShardingCutsEverySegment: under SetSharding(3), segments
// made by Append, MergeNow and Compact are cut at 3. The re-cut keeps
// Version, leaves the caller's index as it was and leaves published
// snapshots their segments.
func TestLiveSetShardingCutsEverySegment(t *testing.T) {
	lv, base := buildBase(t)
	baseBytes := indexBytes(t, base)
	before := lv.Snapshot()
	lv.SetSharding(3)
	sn := lv.Snapshot()
	if sn.Runs != 3 || sn.Version != before.Version || before.Runs != 1 || before.Segs[0] != base {
		t.Fatalf("SetSharding(3): runs %d, version %d (was %d), old snapshot runs %d",
			sn.Runs, sn.Version, before.Version, before.Runs)
	}
	if !bytes.Equal(indexBytes(t, base), baseBytes) || base.Runs() != 1 {
		t.Fatal("SetSharding modified the caller's index")
	}
	cutAt := func(what string, want int) {
		t.Helper()
		sn := lv.Snapshot()
		if sn.Runs != want {
			t.Fatalf("%s: snapshot runs %d, want %d", what, sn.Runs, want)
		}
		for i, seg := range sn.Segs {
			if seg.Runs() != want {
				t.Fatalf("%s: segment %d cut into %d runs, want %d", what, i, seg.Runs(), want)
			}
		}
	}
	cutAt("SetSharding", 3)
	query := []string{"apple", "banana", "cherry", "fig"}

	lv.SetMaxSegments(-1)
	for i := range 3 {
		if _, err := lv.Append(pinnedSegment(lv, [][]string{{"fig", "apple"}, {fmt.Sprintf("t%d", i)}})); err != nil {
			t.Fatal(err)
		}
	}
	cutAt("Append", 3)
	if err := lv.Delete([]DocID{1, 5}); err != nil {
		t.Fatal(err)
	}
	lv.SetMaxSegments(2)
	for lv.MergeNow() {
	}
	cutAt("MergeNow", 3)
	merged := lv.Snapshot()
	lv.Compact()
	cutAt("Compact", 3)
	if got, want := lv.Snapshot().QuantizedTopK(query, 0), merged.QuantizedTopK(query, 0); !slices.Equal(got, want) {
		t.Fatalf("Compact changed scores: %v, want %v", got, want)
	}
	compacted := lv.Snapshot()
	lv.SetSharding(0)
	cutAt("SetSharding(0)", 1)
	if got, want := lv.Snapshot().QuantizedTopK(query, 0), compacted.QuantizedTopK(query, 0); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("re-cut changed scores: %v, want %v", got, want)
	}
}
