package embellish

import (
	"bytes"
	"errors"
	"testing"

	"embellish/internal/detrand"
)

// TestLexiconPayloadRoundTrip pins the tentpole's core contract: a
// client world rebuilt from the sync payload is byte-compatible with
// the engine's own — given the same crypto stream and permutation
// seed, both sides embellish ANY query into the identical wire frame.
// This is what makes synced remote clients protocol-equivalent to
// engine-file clients.
func TestLexiconPayloadRoundTrip(t *testing.T) {
	e, _ := testEngine(t)
	l, err := e.lexiconPayload()
	if err != nil {
		t.Fatal(err)
	}
	if l.Version == 0 || l.Current {
		t.Fatalf("malformed payload: %+v", l)
	}
	if l.ScoreSpace != e.opts.ScoreSpace || l.KeyBits != e.opts.KeyBits || l.Stopwords != e.opts.Stopwords {
		t.Fatalf("payload options drifted: %+v", l)
	}
	w, err := buildWorld(l)
	if err != nil {
		t.Fatal(err)
	}
	if w.org.Terms() != e.org.Terms() || w.org.NumBuckets() != e.org.NumBuckets() {
		t.Fatalf("synced organization shape (%d terms, %d buckets) != engine (%d, %d)",
			w.org.Terms(), w.org.NumBuckets(), e.org.Terms(), e.org.NumBuckets())
	}

	queries := []string{
		"osteosarcoma therapy",
		"anxiety disorder treatment",
		"cancer",
	}
	for _, query := range queries {
		local, err := e.NewClient(detrand.New("sync-identity"))
		if err != nil {
			t.Fatal(err)
		}
		synced, err := newWorldClient(w, detrand.New("sync-identity"))
		if err != nil {
			t.Fatal(err)
		}
		// Key generation is deliberately nondeterministic even with a
		// deterministic reader (crypto/rand.Prime flips a coin on how
		// many bytes it consumes), so the property under test is world
		// equivalence, not keygen: same key + same encryption stream +
		// same permutation seed must give identical bytes.
		synced.inner.Key = local.inner.Key
		local.inner.CryptoRand = detrand.New("sync-identity-enc")
		synced.inner.CryptoRand = detrand.New("sync-identity-enc")
		local.SetEmbellishSeed(42)
		synced.SetEmbellishSeed(42)
		lq, err := local.Embellish(query)
		if err != nil {
			continue // not every phrase is in the mini corpus
		}
		sq, err := synced.Embellish(query)
		if err != nil {
			t.Fatalf("synced client cannot embellish %q: %v", query, err)
		}
		lf, err := lq.WireFrame()
		if err != nil {
			t.Fatal(err)
		}
		sf, err := sq.WireFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lf, sf) {
			t.Fatalf("wire frames diverge for %q: %d vs %d bytes", query, len(lf), len(sf))
		}
	}
}

func TestLexiconVersionStable(t *testing.T) {
	e, _ := testEngine(t)
	v1, err := e.LexiconVersion()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.LexiconVersion()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || v1 == 0 {
		t.Fatalf("version unstable: %d, %d", v1, v2)
	}
	// A differently bucketed engine must disagree: the organization
	// bytes (and thus the content hash) change with BucketSize.
	opts := DefaultOptions()
	opts.BucketSize = 6
	opts.KeyBits = 256
	opts.ScoreSpace = 10
	other, err := NewEngine(MiniLexicon(), demoDocs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := other.LexiconVersion()
	if err != nil {
		t.Fatal(err)
	}
	if ov == v1 {
		t.Fatal("different bucket organizations produced the same lexicon version")
	}
}

func TestRemoteOnlyClientGuards(t *testing.T) {
	e, _ := testEngine(t)
	l, err := e.lexiconPayload()
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorld(l)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newWorldClient(w, detrand.New("remote-only"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search("cancer", 5); !errors.Is(err, ErrRemoteOnly) {
		t.Fatalf("Search on remote-only client: %v, want ErrRemoteOnly", err)
	}
	if _, _, err := c.FetchDocuments([]int{0}); !errors.Is(err, ErrRemoteOnly) {
		t.Fatalf("FetchDocuments on remote-only client: %v, want ErrRemoteOnly", err)
	}
	// Embellish and Decode still work (no engine needed).
	if _, err := c.Embellish("cancer"); err != nil {
		t.Fatalf("Embellish on remote-only client: %v", err)
	}
}

func TestBuildWorldRejectsCorruptPayloads(t *testing.T) {
	e, _ := testEngine(t)
	l, err := e.lexiconPayload()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt organization bytes: crc in the persistence codec rejects.
	bad := l
	bad.Org = append([]byte{}, l.Org...)
	bad.Org[len(bad.Org)/2] ^= 0xff
	if _, err := buildWorld(bad); err == nil {
		t.Error("corrupt organization accepted")
	}
	// Corrupt lexicon bytes likewise.
	bad = l
	bad.Lex = append([]byte{}, l.Lex...)
	bad.Lex[len(bad.Lex)/2] ^= 0xff
	if _, err := buildWorld(bad); err == nil {
		t.Error("corrupt lexicon accepted")
	}
	// A structurally valid organization over a DIFFERENT (smaller)
	// lexicon must fail the cross-consistency check, not index out of
	// bounds later.
	small := SyntheticLexicon(40, 9)
	small.freeze()
	var smallLex bytes.Buffer
	if _, err := small.db.WriteTo(&smallLex); err != nil {
		t.Fatal(err)
	}
	bad = l
	bad.Lex = smallLex.Bytes()
	if _, err := buildWorld(bad); err == nil {
		t.Error("organization/lexicon mismatch accepted")
	}
	// Hostile option fields are refused.
	bad = l
	bad.ScoreSpace = 0
	if _, err := buildWorld(bad); err == nil {
		t.Error("zero score space accepted")
	}
	bad.ScoreSpace = 40
	if _, err := buildWorld(bad); err == nil {
		t.Error("score space 3^40, wider than an int64 score, accepted")
	}
}
