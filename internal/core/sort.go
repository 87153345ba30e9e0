package core

import (
	"cmp"
	"slices"
)

// lessSwap sorts ranked results by decreasing score, ties by ascending
// document ID.
func lessSwap(rs []Ranked) {
	slices.SortFunc(rs, func(a, b Ranked) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
}

// sortDocScores orders the candidate set by document ID, a canonical
// order that leaks nothing (the ciphertexts are already order-free) and
// makes responses reproducible for tests.
func sortDocScores(ds []DocScore) {
	slices.SortFunc(ds, func(a, b DocScore) int { return cmp.Compare(a.Doc, b.Doc) })
}
