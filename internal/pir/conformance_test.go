// Cross-plan conformance battery: the package computes the same
// protocol four ways — the bit-matrix reference, the sequential column
// oracle, the flat executor (the one serving path), and the two-level
// recursive executor — and every one of them must retrieve
// byte-identical blocks from the same corpus. The flat ones must agree
// gamma-for-gamma (they answer the same query); the recursive executor
// speaks a different wire shape, so it is held to the decoded bytes.
package pir

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// planResult is one plan's answers for a batch of targets: the decoded
// block bytes (the cross-plan contract), the raw flat-protocol answers
// when the plan speaks the flat wire shape, and per-query stats.
type planResult struct {
	decoded [][]byte
	answers []*Answer
	stats   []Stats
}

// addFlat records one flat answer; a nil key (the even-modulus kernel
// has no factorization) records the gammas without decoding.
func (r *planResult) addFlat(k *ClientKey, ans *Answer, st Stats) {
	if k != nil {
		r.decoded = append(r.decoded, ColumnBytes(k.Decode(ans)))
	}
	r.answers = append(r.answers, ans)
	r.stats = append(r.stats, st)
}

// conformancePlan answers every query of the batch over cols. Flat
// plans consume qs; the recursive plan consumes rqs (same targets, its
// own protocol).
type conformancePlan struct {
	name string
	run  func(ctx context.Context, k *ClientKey, cols [][]byte, colBytes int, qs []*Query, rqs []*RecursiveQuery, ex Exec) (*planResult, error)
}

func conformancePlans() []conformancePlan {
	return []conformancePlan{
		{name: "matrix", run: func(ctx context.Context, k *ClientKey, cols [][]byte, colBytes int, qs []*Query, _ []*RecursiveQuery, _ Exec) (*planResult, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m := NewMatrix(colBytes*8, len(cols))
			for j, col := range cols {
				m.SetColumn(j, col[:colBytes])
			}
			res := &planResult{}
			for _, q := range qs {
				ans, st, err := m.Process(q)
				if err != nil {
					return nil, err
				}
				res.addFlat(k, ans, st)
			}
			return res, nil
		}},
		{name: "sequential", run: func(ctx context.Context, k *ClientKey, cols [][]byte, colBytes int, qs []*Query, _ []*RecursiveQuery, _ Exec) (*planResult, error) {
			res := &planResult{}
			for _, q := range qs {
				ans, st, err := ProcessColumnsCtx(ctx, cols, colBytes, q)
				if err != nil {
					return nil, err
				}
				res.addFlat(k, ans, st)
			}
			return res, nil
		}},
		{name: "executor", run: func(ctx context.Context, k *ClientKey, cols [][]byte, colBytes int, qs []*Query, _ []*RecursiveQuery, ex Exec) (*planResult, error) {
			answers, stats, err := ProcessColumnsMultiExecCtx(ctx, cols, colBytes, qs, ex)
			if err != nil {
				return nil, err
			}
			res := &planResult{}
			for i, ans := range answers {
				res.addFlat(k, ans, stats[i])
			}
			return res, nil
		}},
		{name: "recursive", run: func(ctx context.Context, k *ClientKey, cols [][]byte, colBytes int, _ []*Query, rqs []*RecursiveQuery, ex Exec) (*planResult, error) {
			answers, stats, err := ProcessColumnsRecursiveMultiExecCtx(ctx, cols, colBytes, rqs, ex)
			if err != nil {
				return nil, err
			}
			res := &planResult{}
			for i, ans := range answers {
				bits, derr := k.DecodeRecursive(ans, colBytes)
				if derr != nil {
					return nil, derr
				}
				res.decoded = append(res.decoded, ColumnBytes(bits))
				res.stats = append(res.stats, stats[i])
			}
			return res, nil
		}},
	}
}

// randomColumns builds a random column-major database.
func randomColumns(t testing.TB, seed int64, nCols, colBytes int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]byte, nCols)
	for j := range cols {
		cols[j] = make([]byte, colBytes)
		rng.Read(cols[j])
	}
	return cols
}

// churnColumns builds a corpus shaped like a block store under churn:
// random live columns interleaved with all-zero tombstones and
// mostly-zero padded tails.
func churnColumns(t testing.TB, seed int64, nCols, colBytes int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]byte, nCols)
	for j := range cols {
		cols[j] = make([]byte, colBytes)
		switch rng.Intn(4) {
		case 0: // tombstoned block: all zero
		case 1: // padded tail: data in the first quarter only
			rng.Read(cols[j][:colBytes/4+1])
		default:
			rng.Read(cols[j])
		}
	}
	return cols
}

// evenModulus is a client-chosen modulus the Montgomery kernel rejects
// (REDC needs an odd one): the executors refuse it before any work, and
// only the references answer it.
var evenModulus = big.NewInt(1 << 20)

// rawRecursiveQuery is rawQuery's recursive counterpart: random row and
// column selectors modulo n over the grid of nCols blocks.
func rawRecursiveQuery(rng *rand.Rand, n *big.Int, nCols int) *RecursiveQuery {
	R, C := RecursiveGrid(nCols)
	return &RecursiveQuery{
		N: n, Width: nCols, GridCols: C,
		Rows: rawQuery(rng, n, R).Values,
		Cols: rawQuery(rng, n, C).Values,
	}
}

// assertRefused fails unless an executor refused its batch outright: an
// error, no answers, and no multiplication charged.
func assertRefused(t *testing.T, label string, answers []*Answer, stats []Stats, err error) {
	t.Helper()
	if err == nil || len(answers) != 0 {
		t.Fatalf("%s: served %d answers (err %v), want a refusal", label, len(answers), err)
	}
	for i, st := range stats {
		if st != (Stats{}) {
			t.Fatalf("%s query %d: refusal charged work %+v", label, i, st)
		}
	}
}

// rawQuery builds a query of uniformly random residues modulo n — no
// key, so it decodes to nothing; the flat plans must still agree on its
// gammas.
func rawQuery(rng *rand.Rand, n *big.Int, nCols int) *Query {
	q := &Query{N: n, Values: make([]*big.Int, nCols)}
	for j := range q.Values {
		q.Values[j] = new(big.Int).Rand(rng, n)
	}
	return q
}

// conformanceTargets samples every (1+n/7)-th block so small corpora
// cover every index and large ones stay cheap.
func conformanceTargets(nCols int) []int {
	var ts []int
	for i := 0; i < nCols; i += 1 + nCols/7 {
		ts = append(ts, i)
	}
	return ts
}

// conformanceQueries builds one flat and one recursive query per
// target, deterministically seeded so failures replay.
func conformanceQueries(t *testing.T, k *ClientKey, tag string, nCols int, targets []int) ([]*Query, []*RecursiveQuery) {
	t.Helper()
	qs := make([]*Query, len(targets))
	rqs := make([]*RecursiveQuery, len(targets))
	for i, target := range targets {
		q, err := k.NewQuery(newDetRand(fmt.Sprintf("%s-f%d", tag, i)), nCols, target)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := k.NewRecursiveQuery(newDetRand(fmt.Sprintf("%s-r%d", tag, i)), nCols, target)
		if err != nil {
			t.Fatal(err)
		}
		qs[i], rqs[i] = q, rq
	}
	return qs, rqs
}

// sameGammas fails unless got agrees gamma-for-gamma with the first
// len(got.answers) queries of want.
func sameGammas(t *testing.T, label string, got, want *planResult) {
	t.Helper()
	for i, ans := range got.answers {
		ref := want.answers[i]
		if len(ans.Gammas) != len(ref.Gammas) {
			t.Fatalf("%s query %d: %d gammas, reference %d", label, i, len(ans.Gammas), len(ref.Gammas))
		}
		for g := range ans.Gammas {
			if ans.Gammas[g].Cmp(ref.Gammas[g]) != 0 {
				t.Fatalf("%s query %d gamma %d differs from the reference", label, i, g)
			}
		}
	}
}

// TestPIRConformance is the battery. The two executor kernels (64-bit
// one-word Montgomery, 192-bit multi-word Montgomery) run over clean
// and churned corpora (tombstoned blocks, padded tails) and grids from
// degenerate to exact-square. Both references answer a MaxMulti-wide
// batch once per corpus; the executor is then crossed over batch widths
// {1, 4, MaxMulti}, workers {1, 3} and windows {auto, 1, pinned} and
// must match BOTH references gamma-for-gamma on every case; keyed
// kernels must also decode every target to the stored bytes, through
// the recursive executor too — the one-word key on its packed word
// kernel, the wide key on the big.Int reference — whose blocks must
// equal the flat path's on the same snapshot. An even modulus has no
// Montgomery form: the references still answer it, and every executor
// entry refuses it with no work done (assertRefused).
func TestPIRConformance(t *testing.T) {
	type shape struct{ nCols, colBytes int }
	kernels := []struct {
		name   string
		k      *ClientKey // nil: no factorization, gammas only
		shapes []shape
	}{
		// The word kernel carries the big shapes; the wide key's job is
		// exercising the multi-word kernel, where 37×16 costs seconds
		// without covering anything 16×4 doesn't.
		{"word", wordTestKey(t), []shape{
			{13, 3},
			{37, 16},
			{16, 4}, // exact square grid
			{5, 1},
			{1, 2}, // single block: 1×1 grid
		}},
		{"wide", testKey(t), []shape{
			{13, 3},
			{16, 4},
			{5, 1},
			{1, 2},
		}},
		{"even", nil, []shape{
			{13, 3},
			{16, 4},
			{1, 2},
		}},
	}
	corpora := []struct {
		name  string
		build func(t testing.TB, seed int64, nCols, colBytes int) [][]byte
	}{
		{"random", randomColumns},
		{"churn", churnColumns},
	}
	plans := conformancePlans()
	matrix, sequential, executor, recursive := plans[0], plans[1], plans[2], plans[3]
	ctx := context.Background()
	for _, kern := range kernels {
		for ci, corpus := range corpora {
			for si, shape := range kern.shapes {
				name := fmt.Sprintf("%s/%s/%dx%d", kern.name, corpus.name, shape.nCols, shape.colBytes)
				t.Run(name, func(t *testing.T) {
					seed := int64(1000 + 100*ci + si)
					cols := corpus.build(t, seed, shape.nCols, shape.colBytes)
					targets := make([]int, MaxMulti)
					qs := make([]*Query, MaxMulti)
					rng := rand.New(rand.NewSource(seed))
					for i := range qs {
						targets[i] = i % shape.nCols
						if kern.k == nil {
							qs[i] = rawQuery(rng, evenModulus, shape.nCols)
							continue
						}
						q, err := kern.k.NewQuery(newDetRand(fmt.Sprintf("%s-f%d", name, i)), shape.nCols, targets[i])
						if err != nil {
							t.Fatal(err)
						}
						qs[i] = q
					}
					check := func(label string, res *planResult, targets []int) {
						t.Helper()
						for i, dec := range res.decoded {
							if want := cols[targets[i]][:shape.colBytes]; !bytes.Equal(dec, want) {
								t.Fatalf("%s target %d: decoded %x, want %x", label, targets[i], dec, want)
							}
						}
						for i, st := range res.stats {
							if st.ModMuls <= 0 || st.TableMuls < 0 || st.TableMuls > st.ModMuls {
								t.Fatalf("%s query %d: implausible stats %+v", label, i, st)
							}
						}
					}
					refM, err := matrix.run(ctx, kern.k, cols, shape.colBytes, qs, nil, Exec{})
					if err != nil {
						t.Fatal(err)
					}
					check("matrix", refM, targets)
					refS, err := sequential.run(ctx, kern.k, cols, shape.colBytes, qs, nil, Exec{})
					if err != nil {
						t.Fatal(err)
					}
					check("sequential", refS, targets)
					sameGammas(t, "sequential vs matrix", refS, refM)

					for _, width := range []int{1, 4, MaxMulti} {
						for _, workers := range []int{1, 3} {
							for _, window := range []int{0, 1, 4} {
								ex := Exec{Workers: workers, Window: window}
								label := fmt.Sprintf("executor batch %d %+v", width, ex)
								if kern.k == nil {
									answers, stats, err := ProcessColumnsMultiExecCtx(ctx, cols, shape.colBytes, qs[:width], ex)
									assertRefused(t, label, answers, stats, err)
									continue
								}
								res, err := executor.run(ctx, kern.k, cols, shape.colBytes, qs[:width], nil, ex)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								if len(res.answers) != width {
									t.Fatalf("%s answered %d queries", label, len(res.answers))
								}
								check(label, res, targets)
								sameGammas(t, label+" vs matrix", res, refM)
								sameGammas(t, label+" vs sequential", res, refS)
							}
						}
					}
					if kern.k == nil {
						rq := rawRecursiveQuery(rng, evenModulus, shape.nCols)
						for _, ex := range []Exec{{}, {Workers: 3, Window: 4}} {
							answers, stats, err := ProcessColumnsRecursiveMultiExecCtx(ctx, cols, shape.colBytes, []*RecursiveQuery{rq}, ex)
							assertRefused(t, fmt.Sprintf("recursive %+v", ex), answers, stats, err)
							level1 := *rq
							level1.Cols = nil
							answers, stats, err = ProcessColumnsRecursiveMultiExecCtx(ctx, cols, shape.colBytes, []*RecursiveQuery{&level1}, ex)
							assertRefused(t, fmt.Sprintf("recursive level 1 %+v", ex), answers, stats, err)
							matrix := make([]*big.Int, rq.GridCols*shape.colBytes*8)
							for i := range matrix {
								matrix[i] = big.NewInt(1)
							}
							ans, st, err := RecursiveLevel2(ctx, rq, matrix, shape.colBytes, ex)
							var level2 []*Answer
							if ans != nil {
								level2 = []*Answer{ans}
							}
							assertRefused(t, fmt.Sprintf("level 2 %+v", ex), level2, []Stats{st}, err)
						}
						return
					}
					rtargets := conformanceTargets(shape.nCols)
					_, rqs := conformanceQueries(t, kern.k, name, shape.nCols, rtargets)
					for _, ex := range []Exec{
						{},
						{Workers: 1, Window: 1},
						{Workers: 3, Window: 4},
						{Workers: 16, Window: 64}, // clamped
					} {
						label := fmt.Sprintf("recursive %+v", ex)
						res, err := recursive.run(ctx, kern.k, cols, shape.colBytes, nil, rqs, ex)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if len(res.decoded) != len(rtargets) {
							t.Fatalf("%s answered %d targets, want %d", label, len(res.decoded), len(rtargets))
						}
						check(label, res, rtargets)
						// The flat path's block on the same snapshot,
						// tombstoned (all-zero) blocks included:
						// targets[j] = j below the column count.
						for i, target := range rtargets {
							if !bytes.Equal(res.decoded[i], refM.decoded[target]) {
								t.Fatalf("%s target %d: recursive decoded %x, flat decoded %x", label, target, res.decoded[i], refM.decoded[target])
							}
						}
					}
				})
			}
		}
	}
}

// TestExecutorHostileOperands pins the executor's shared front on a
// batch of one: operands the oracle's Mod tolerates — negative, >= N,
// zero — are canonicalised once ahead of every kernel, and a width-zero
// batch is answered with the empty product directly. Gamma-for-gamma
// with ProcessColumnsCtx on the one-word and multi-word kernels; an even
// modulus is refused at every width, the empty one included, with no
// work charged.
func TestExecutorHostileOperands(t *testing.T) {
	const nCols, colBytes = 9, 2
	cols := churnColumns(t, 77, nCols, colBytes)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		n    *big.Int
	}{
		{"word", wordTestKey(t).N},
		{"wide", testKey(t).N},
		{"even", evenModulus},
	} {
		q := rawQuery(rand.New(rand.NewSource(5)), tc.n, nCols)
		q.Values[1] = new(big.Int).Neg(q.Values[1])
		q.Values[2] = new(big.Int).Add(q.Values[2], tc.n)
		q.Values[3] = new(big.Int).Lsh(tc.n, 3)
		q.Values[4] = new(big.Int)
		q.Values[8] = new(big.Int).Set(tc.n)
		for _, ex := range []Exec{{}, {Workers: 3, Window: 2}} {
			for _, width := range []int{nCols, 0} {
				sub := &Query{N: q.N, Values: q.Values[:width]}
				want, _, err := ProcessColumnsCtx(ctx, cols[:width], colBytes, sub)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := ProcessColumnsMultiExecCtx(ctx, cols[:width], colBytes, []*Query{sub}, ex)
				if tc.n == evenModulus {
					assertRefused(t, fmt.Sprintf("%s width %d %+v", tc.name, width, ex), got, stats, err)
					continue
				}
				if err != nil {
					t.Fatalf("%s width %d %+v: %v", tc.name, width, ex, err)
				}
				for r, g := range want.Gammas {
					if got[0].Gammas[r].Cmp(g) != 0 {
						t.Fatalf("%s width %d %+v gamma %d: executor %v, oracle %v", tc.name, width, ex, r, got[0].Gammas[r], g)
					}
				}
				if width == 0 && stats[0] != (Stats{}) {
					t.Fatalf("%s: width-zero batch charged work %+v", tc.name, stats[0])
				}
			}
		}
		if q.Values[1].Sign() >= 0 || q.Values[8].Cmp(tc.n) != 0 {
			t.Fatalf("%s: canonicalisation mutated the caller's query", tc.name)
		}
	}
}

// TestPIRConformanceCancellation: cancellation is part of the contract.
// Every plan must refuse an already-expired deadline and a cancelled
// context with an error and no answers — on both kernels — and under a
// halving deadline each run either completes with the correct bytes or
// fails with the context's error. Wrong bytes are never an outcome.
func TestPIRConformanceCancellation(t *testing.T) {
	plans := conformancePlans()
	for _, key := range []struct {
		name string
		k    *ClientKey
	}{
		{"word", wordTestKey(t)},
		{"wide", testKey(t)},
	} {
		const nCols, colBytes = 32, 16
		cols := churnColumns(t, 7, nCols, colBytes)
		targets := conformanceTargets(nCols)
		qs, rqs := conformanceQueries(t, key.k, "cancel-"+key.name, nCols, targets)
		for _, plan := range plans {
			expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			res, err := plan.run(expired, key.k, cols, colBytes, qs, rqs, Exec{Workers: 2})
			cancel()
			if err == nil || res != nil {
				t.Fatalf("%s/%s: expired deadline served: res=%v err=%v", key.name, plan.name, res, err)
			}
			stopped, stop := context.WithCancel(context.Background())
			stop()
			if _, err := plan.run(stopped, key.k, cols, colBytes, qs, rqs, Exec{}); err == nil {
				t.Fatalf("%s/%s: cancelled context served", key.name, plan.name)
			}
		}
	}

	// Deadline halving: from comfortably-enough down to never-enough,
	// the only legal outcomes are full correct answers or a context
	// error. Timing decides which, so both are accepted; corruption
	// fails loudly.
	k := wordTestKey(t)
	const nCols, colBytes = 48, 32
	cols := churnColumns(t, 11, nCols, colBytes)
	targets := conformanceTargets(nCols)
	qs, rqs := conformanceQueries(t, k, "halving", nCols, targets)
	for _, plan := range conformancePlans() {
		for d := 50 * time.Millisecond; d >= 50*time.Microsecond; d /= 2 {
			ctx, cancel := context.WithTimeout(context.Background(), d)
			res, err := plan.run(ctx, k, cols, colBytes, qs, rqs, Exec{Workers: 2})
			cancel()
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Fatalf("%s at %v: non-context error %v", plan.name, d, err)
				}
				continue
			}
			for i, target := range targets {
				if !bytes.Equal(res.decoded[i], cols[target]) {
					t.Fatalf("%s at %v: served wrong bytes for target %d", plan.name, d, target)
				}
			}
		}
	}
}
