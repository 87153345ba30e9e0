package pir

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"testing"
)

// TestQueryNextRotates: Next is the query for the next column — the
// same elements one place up, the last wrapping to the first — and
// Follows recognises exactly that, over the full cycle.
func TestQueryNextRotates(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 9, 5
	cols := randomColumns(t, 77, nCols, colBytes)
	q, err := k.NewQuery(newDetRand("rotate"), nCols, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := q
	for target := 0; target <= nCols; target++ { // the last step wraps to column 0
		ans, _, err := ProcessColumnsCtx(context.Background(), cols, colBytes, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ColumnBytes(k.Decode(ans)), cols[target%nCols]; !bytes.Equal(got, want) {
			t.Fatalf("after %d rotations: decoded %x, want column %d = %x", target, got, target%nCols, want)
		}
		next := q.Next()
		if !next.Follows(q) || next.N != q.N || len(next.Values) != nCols {
			t.Fatalf("rotation %d does not follow its base", target+1)
		}
		// Rotation r follows the base exactly when r ≡ 1 (mod nCols).
		if q.Follows(next) || next.Follows(next) || next.Follows(base) != ((target+1)%nCols == 1) {
			t.Fatalf("rotation %d: Follows holds for a query that is not one place down", target+1)
		}
		q = next
	}
	for j, v := range q.Values { // nCols+1 rotations: one past the full cycle
		if v != base.Values[(j-1+nCols)%nCols] {
			t.Fatalf("value %d is not the base's element one place down", j)
		}
	}

	// Follows is an identity over the FULL cycle: equal values are not
	// the same elements, and neither is a window that agrees everywhere
	// but at the wrap (what a router's slice of a rotation looks like).
	next := base.Next()
	copied := &Query{N: next.N, Values: make([]*big.Int, nCols)}
	for j, v := range next.Values {
		copied.Values[j] = new(big.Int).Set(v)
	}
	if copied.Follows(base) {
		t.Fatal("a value-equal copy follows the base")
	}
	lo, hi := 2, 7
	if (&Query{N: base.N, Values: next.Values[lo:hi]}).Follows(&Query{N: base.N, Values: base.Values[lo:hi]}) {
		t.Fatal("a slice of a rotation follows the same slice of its base")
	}
	if (&Query{N: base.N, Values: next.Values[:nCols-1]}).Follows(base) || (&Query{N: base.N}).Follows(&Query{N: base.N}) {
		t.Fatal("Follows holds across widths, or for empty queries")
	}
	one, err := k.NewQuery(newDetRand("rotate-one"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !one.Next().Follows(one) || one.Next().Values[0] != one.Values[0] {
		t.Fatal("the rotation of a width-1 query is not itself")
	}
}

// rotatedBatches returns the six block queries of two three-block
// documents (first columns a and b) twice: fresh — six vectors that
// share no element — and aliased — two vectors and four rotations of
// them, as the views the wire decoder hands out: windows one slot apart
// on one ring per document, so the queries share elements AND memory.
// Query i of one batch equals query i of the other value for value.
func rotatedBatches(t *testing.T, k *ClientKey, nCols, a, b int) (fresh, aliased []*Query) {
	t.Helper()
	for d, first := range []int{a, b} {
		base, err := k.NewQuery(newDetRand(fmt.Sprintf("alias-%d", d)), nCols, first)
		if err != nil {
			t.Fatal(err)
		}
		ring := make([]*big.Int, 2+nCols)
		copy(ring[2:], base.Values)
		ring[1], ring[0] = ring[1+nCols], ring[nCols]
		for r := 0; r < 3; r++ {
			view := &Query{N: base.N, Values: ring[2-r : 2-r+nCols : 2-r+nCols]}
			if r > 0 && !view.Follows(aliased[len(aliased)-1]) {
				t.Fatalf("ring window %d is not the rotation of the one before", r)
			}
			aliased = append(aliased, view)
			own := &Query{N: base.N, Values: make([]*big.Int, nCols)}
			for j, v := range view.Values {
				own.Values[j] = new(big.Int).Set(v)
			}
			fresh = append(fresh, own)
		}
	}
	return fresh, aliased
}

// TestExecutorAliasedRotations: the executor only reads Values, so a
// batch of two vectors and four rotations that alias their elements is
// answered exactly like six vectors that share nothing — gamma for
// gamma against each other and against the sequential oracle on the
// materialised vectors, Stats field for field — and every rotation
// decodes the block after its base's.
func TestExecutorAliasedRotations(t *testing.T) {
	ctx := context.Background()
	for _, kern := range []struct {
		name string
		k    *ClientKey
	}{{"word", wordTestKey(t)}, {"wide", testKey(t)}} {
		const nCols, colBytes = 37, 16
		cols := churnColumns(t, 1101, nCols, colBytes)
		fresh, aliased := rotatedBatches(t, kern.k, nCols, 0, nCols-3) // both ends of the store
		targets := []int{0, 1, 2, nCols - 3, nCols - 2, nCols - 1}
		for _, ex := range []Exec{{}, {Workers: 3, Window: 4}, {Workers: 2, Window: 1}} {
			label := fmt.Sprintf("%s %+v", kern.name, ex)
			want, wantSt, err := ProcessColumnsMultiExecCtx(ctx, cols, colBytes, fresh, ex)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, gotSt, err := ProcessColumnsMultiExecCtx(ctx, cols, colBytes, aliased, ex)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i := range aliased {
				oracle, _, err := ProcessColumnsCtx(ctx, cols, colBytes, aliased[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[i].Image, want[i].Image) || !bytes.Equal(got[i].Image, oracle.Image) {
					t.Fatalf("%s query %d: aliased rotations, fresh vectors and the oracle disagree", label, i)
				}
				if gotSt[i] != wantSt[i] {
					t.Fatalf("%s query %d: aliased stats %+v, fresh %+v", label, i, gotSt[i], wantSt[i])
				}
				if dec := ColumnBytes(kern.k.Decode(got[i])); !bytes.Equal(dec, cols[targets[i]]) {
					t.Fatalf("%s query %d: decoded %x, want column %d", label, i, dec, targets[i])
				}
			}
		}
	}
}

// TestRotatedFrameWorkAtBenchShape: at the repository benchmark's shape
// (6,029 blocks of 1 KiB, a 64-bit modulus, frames of six) a frame of
// two vectors and four rotations costs every query the counts a frame
// of six vectors always cost — 5,567,588 products, 636,004 of them
// table work — wherever in the store the two documents sit.
func TestRotatedFrameWorkAtBenchShape(t *testing.T) {
	k := wordTestKey(t)
	const nCols, colBytes = 6029, 1024
	cols := randomColumns(t, 6029, nCols, colBytes)
	// The window is 10 at 8,192 rows: 602 groups of ten columns and one
	// of nine. A query's table work is 2·width for its values, 2^g − 2 a
	// group's table and one export a row; past it, every row folds once
	// in each group but the first of each of the two workers, and merges
	// once.
	const rows, groups = colBytes * 8, 603
	table := 2*nCols + 602*(1<<10-2) + (1<<9 - 2) + rows
	want := Stats{ModMuls: table + (groups-1)*rows, TableMuls: table}
	for _, firsts := range [][2]int{{0, nCols - 3}, {1500, 1503}, {4096, 17}} {
		_, aliased := rotatedBatches(t, k, nCols, firsts[0], firsts[1])
		answers, stats, err := ProcessColumnsMultiExecCtx(context.Background(), cols, colBytes, aliased, Exec{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range stats {
			if st != want {
				t.Fatalf("documents at %v, query %d: %+v, want %+v", firsts, i, st, want)
			}
		}
		for i, first := range []int{firsts[0], firsts[0] + 1, firsts[0] + 2, firsts[1], firsts[1] + 1, firsts[1] + 2} {
			if dec := ColumnBytes(k.Decode(answers[i])); !bytes.Equal(dec, cols[first]) {
				t.Fatalf("documents at %v, query %d: wrong block decoded", firsts, i)
			}
		}
	}
}
