package index

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func buildSample(t *testing.T) *Index {
	t.Helper()
	b := NewBuilder()
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "multi word term"}
	for d := 0; d < 40; d++ {
		var tokens []string
		n := 10 + rng.Intn(30)
		for i := 0; i < n; i++ {
			tokens = append(tokens, vocab[rng.Intn(len(vocab))])
		}
		b.Add(DocID(d), tokens)
	}
	return b.Build()
}

func TestPersistRoundTrip(t *testing.T) {
	ix := buildSample(t)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs != ix.NumDocs || got.QuantLevels != ix.QuantLevels || got.maxImpact != ix.maxImpact {
		t.Fatalf("header mismatch: %+v vs %+v", got, ix)
	}
	if got.NumTerms() != ix.NumTerms() {
		t.Fatalf("vocab size %d vs %d", got.NumTerms(), ix.NumTerms())
	}
	for i := 0; i < ix.NumTerms(); i++ {
		if got.Term(i) != ix.Term(i) {
			t.Fatalf("term %d: %q vs %q", i, got.Term(i), ix.Term(i))
		}
		a, b := got.List(i), ix.List(i)
		if len(a) != len(b) {
			t.Fatalf("list %d length %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("list %d posting %d: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
	// Behaviour check: identical top-k on a query.
	qt := []int{0, 2, 4}
	ra := got.TopK(qt, 10)
	rb := ix.TopK(qt, 10)
	for i := range rb {
		if ra[i] != rb[i] {
			t.Fatalf("TopK diverges at %d: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestPersistDetectsCorruption(t *testing.T) {
	ix := buildSample(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload byte near the middle.
	data[len(data)/2] ^= 0xff
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt file accepted")
	}
}

func TestPersistRejectsBadMagic(t *testing.T) {
	if _, err := ReadIndex(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPersistRejectsTruncation(t *testing.T) {
	ix := buildSample(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 5, 20, len(data) / 2, len(data) - 2} {
		if _, err := ReadIndex(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestPersistRejectsBadVersion(t *testing.T) {
	ix := buildSample(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestPersistEmptyListsSurvive(t *testing.T) {
	// A term can exist in the vocabulary with an empty list after
	// pruning; persistence must round-trip it.
	b := NewBuilder()
	b.Add(0, []string{"only"})
	ix := b.Build()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTerms() != 1 || len(got.List(0)) != 1 {
		t.Fatalf("tiny index mangled: %d terms", got.NumTerms())
	}
}

// TestPersistRejectsListsOutOfImpactOrder: the loader holds every list
// to byImpact, the order WriteTo restores, so a file it accepts saves
// back byte for byte. Equal impacts out of doc order, and a document
// repeated at equal impact, are both refused; the golden order loads.
func TestPersistRejectsListsOutOfImpactOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		list []Posting
		ok   bool
	}{
		{"byImpact", []Posting{{Doc: 1, Impact: 0.7, Quantized: 2}, {Doc: 0, Impact: 0.5, Quantized: 1}, {Doc: 2, Impact: 0.5, Quantized: 1}}, true},
		{"equal impacts, docs descending", []Posting{{Doc: 2, Impact: 0.5, Quantized: 1}, {Doc: 0, Impact: 0.5, Quantized: 1}}, false},
		{"repeated doc at equal impact", []Posting{{Doc: 1, Impact: 0.5, Quantized: 1}, {Doc: 1, Impact: 0.5, Quantized: 1}}, false},
		{"impact rising", []Posting{{Doc: 0, Impact: 0.5, Quantized: 1}, {Doc: 1, Impact: 0.7, Quantized: 2}}, false},
	} {
		crafted := &Index{
			NumDocs:     3,
			terms:       map[string]int{"t": 0},
			vocab:       []string{"t"},
			lists:       [][]Posting{tc.list},
			docLen:      []int32{1, 1, 1},
			QuantLevels: 2,
			maxImpact:   0.7,
		}
		var buf bytes.Buffer
		if _, err := crafted.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		file := bytes.Clone(buf.Bytes())
		got, err := ReadIndex(&buf)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: load error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err == nil && !bytes.Equal(indexBytes(t, got.Cut(2)), file) {
			t.Fatalf("%s: loaded file does not save back byte for byte", tc.name)
		}
	}
}
