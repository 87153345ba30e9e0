package cluster

import (
	"fmt"
	"math/big"
	"testing"

	"embellish/internal/docstore"
	"embellish/internal/pir"
)

// TestSliceViewSendsIdentityToNonOwners: three partitions each hold the
// three one-block template documents and one document of their own. The
// merged view 1 lists documents partition-major in First order, so each
// partition's documents are one contiguous range of it, and a
// partition's sub-query carries the query's value for every column it
// owns and the identity 1 for every template document it does not. A
// query over a prefix of the view addresses each partition's prefix up
// to its last owned column inside it, and no partition past it.
func TestSliceViewSendsIdentityToNonOwners(t *testing.T) {
	const n, base, blockSize = 3, 3, 1024
	r := &Router{base: base, n: n}
	parts := make([]docstore.Params, n)
	for p := range parts {
		exts := make([]docstore.Extent, base+1)
		for l := range exts {
			exts[l] = docstore.Extent{First: uint32(l), Blocks: 1, Length: blockSize}
		}
		parts[p] = docstore.Params{BlockSize: blockSize, NumBlocks: len(exts), Exts: exts}
	}
	merged, ep, err := r.mergeParams(parts)
	if err != nil {
		t.Fatal(err)
	}
	// Merged view 1: template 0 and global 3 (partition 0), template 1
	// and global 4 (partition 1), template 2 and global 5 (partition 2).
	layout := merged.Layout()
	for g, want := range []int{0, 2, 4, 1, 3, 5} {
		if h, col, k := layout.Place(g); h != 1 || col != want || k != 1 {
			t.Fatalf("global document %d at view %d column %d (%d columns), want view 1 column %d", g, h, col, k, want)
		}
	}
	vals := make([]*big.Int, 6)
	for i := range vals {
		vals[i] = big.NewInt(int64(10 + i))
	}
	for _, tc := range []struct {
		width int
		want  map[int][]int64 // partition -> sub-query values
	}{
		{6, map[int][]int64{0: {10, 1, 1, 11}, 1: {1, 12, 1, 13}, 2: {1, 1, 14, 15}}},
		{3, map[int][]int64{0: {10, 1, 1, 11}, 1: {1, 12}}},
	} {
		q := &pir.Query{N: big.NewInt(97), Values: vals[:tc.width], Height: 1}
		ps, subs, err := ep.sliceView(q)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int][]int64{}
		for i, p := range ps {
			if subs[i].Height != 1 {
				t.Fatalf("width %d: partition %d's sub-query has height %d", tc.width, p, subs[i].Height)
			}
			for _, v := range subs[i].Values {
				got[p] = append(got[p], v.Int64())
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("width %d: sub-queries %v, want %v", tc.width, got, tc.want)
		}
	}
	for _, h := range []int{0, 2} {
		if _, _, err := ep.sliceView(&pir.Query{N: big.NewInt(97), Values: vals, Height: h}); err == nil {
			t.Fatalf("a query over view %d, the block array or empty, was sliced", h)
		}
	}
}
