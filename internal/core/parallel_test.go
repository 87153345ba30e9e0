package core

import (
	"math/rand"
	"testing"
)

// TestParallelMatchesSequential: the parallel accumulator must decrypt
// to exactly the sequential scores for every candidate.
func TestParallelMatchesSequential(t *testing.T) {
	w, _ := world(t)
	c, s := newPair(t, 80)
	rng := rand.New(rand.NewSource(81))
	for _, workers := range []int{2, 3, 8} {
		genuine := pickGenuine(w, rng, 3)
		q, _, err := c.Embellish(genuine)
		if err != nil {
			t.Fatal(err)
		}
		seqResp, seqStats, err := s.Process(q)
		if err != nil {
			t.Fatal(err)
		}
		parResp, parStats, err := s.ProcessParallel(q, workers)
		if err != nil {
			t.Fatal(err)
		}
		if parStats.Postings != seqStats.Postings || parStats.Candidates != seqStats.Candidates {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, parStats, seqStats)
		}
		if parStats.IO != seqStats.IO {
			t.Fatalf("workers=%d: IO accounting diverges", workers)
		}
		seqRanked, err := c.PostFilter(seqResp, 0)
		if err != nil {
			t.Fatal(err)
		}
		parRanked, err := c.PostFilter(parResp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqRanked) != len(parRanked) {
			t.Fatalf("workers=%d: %d vs %d candidates", workers, len(parRanked), len(seqRanked))
		}
		for i := range seqRanked {
			if seqRanked[i] != parRanked[i] {
				t.Fatalf("workers=%d rank %d: %+v vs %+v", workers, i, parRanked[i], seqRanked[i])
			}
		}
	}
}

func TestParallelSmallQueryFallsBack(t *testing.T) {
	w, _ := world(t)
	c, s := newPair(t, 82)
	genuine := pickGenuine(w, rand.New(rand.NewSource(83)), 1)
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	// Far more workers than the one shard: the pool is capped, the
	// result must still be correct.
	resp, _, err := s.ProcessParallel(q, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Docs) == 0 {
		t.Fatal("no candidates")
	}
}

func TestParallelEmptyQuery(t *testing.T) {
	_, s := newPair(t, 84)
	if _, _, err := s.ProcessParallel(&Query{}, 4); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestParallelDefaultWorkers(t *testing.T) {
	w, _ := world(t)
	c, s := newPair(t, 86)
	genuine := pickGenuine(w, rand.New(rand.NewSource(87)), 2)
	q, _, err := c.Embellish(genuine)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ProcessParallel(q, 0); err != nil {
		t.Fatal(err)
	}
}
