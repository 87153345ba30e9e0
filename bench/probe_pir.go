package main

// probe_pir.go: the pir layer called directly on the harness's own store —
// query generation, the database scan and the answer decoding of a fetch op,
// flat and recursive, each a span — and the kernel under them.

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"time"

	"embellish/internal/pir"
)

// spanPrefix names the pir spans and metrics of a fetch workload.
func spanPrefix(workload string) string {
	if workload == fetchRecursive {
		return "pir.rec_"
	}
	return "pir."
}

// chainStore is one fetch op against the harness's store: a query per block
// of the pair's documents, one scan for all of them, a decode per answer.
func (t *traceRun) chainStore(i int, workload string) (queries int, stats []pir.Stats, err error) {
	params := t.mirror.Params()
	exec := pir.Exec{Workers: runtime.GOMAXPROCS(0)}
	recursive := workload == fetchRecursive
	prefix := spanPrefix(workload)
	var cols []int
	for _, id := range t.in.pairs[i] {
		ext := params.Exts[id]
		for b := 0; b < int(ext.Blocks); b++ {
			cols = append(cols, int(ext.First)+b)
		}
	}
	root := t.tr.start("op."+workload+".store", -1, i)
	defer t.tr.end(root)

	var flat []*pir.Query
	var rec []*pir.RecursiveQuery
	id := t.tr.start(prefix+"querygen", root, i)
	for _, col := range cols {
		if recursive {
			q, err := t.pirKey.NewRecursiveQuery(nil, params.NumBlocks, col)
			if err != nil {
				return 0, nil, err
			}
			rec = append(rec, q)
		} else {
			q, err := t.pirKey.NewQuery(nil, params.NumBlocks, col)
			if err != nil {
				return 0, nil, err
			}
			flat = append(flat, q)
		}
	}
	t.tr.end(id)

	var answers []*pir.Answer
	id = t.tr.start(prefix+"scan", root, i)
	if recursive {
		answers, stats, err = t.mirror.AnswerRecursiveMultiExecCtx(context.Background(), rec, exec)
	} else {
		answers, stats, err = t.mirror.AnswerMultiExecCtx(context.Background(), flat, exec)
	}
	t.tr.end(id)
	if err != nil {
		return 0, nil, err
	}

	var blocks []byte
	id = t.tr.start(prefix+"decode", root, i)
	for _, ans := range answers {
		var bits []bool
		if recursive {
			if bits, err = t.pirKey.DecodeRecursive(ans, params.BlockSize); err != nil {
				return 0, nil, err
			}
		} else {
			bits = t.pirKey.Decode(ans)
		}
		blocks = append(blocks, pir.ColumnBytes(bits)[:params.BlockSize]...)
	}
	t.tr.end(id)

	for j, docID := range t.in.pairs[i] {
		ext := params.Exts[docID]
		if !bytes.Equal(blocks[:ext.Length], t.in.wantDocs[i][j]) {
			return 0, nil, fmt.Errorf("document %d: bytes decoded from the store chain differ from the stored ones", docID)
		}
		blocks = blocks[int(ext.Blocks)*params.BlockSize:]
	}
	return len(cols), stats, nil
}

func (t *traceRun) probePIR() error {
	keygen, err := timeMedian(5, ms, func() (err error) {
		t.pirKey, err = pir.GenerateKey(nil, t.w.spec.RetrievalKeyBits)
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("pir.keygen_ms", keygen, "ms", 5)

	stored := float64(t.mirror.NumBlocks() * t.mirror.BlockSize())
	for _, workload := range []string{fetchFlat, fetchRecursive} {
		prefix := spanPrefix(workload)
		var queries, modMuls, tableMuls int
		for i := 0; i < storeOps[workload]; i++ {
			n, stats, err := t.chainStore(i, workload)
			t.note(err)
			if err != nil {
				continue
			}
			queries += n
			for _, st := range stats {
				modMuls += st.ModMuls
				tableMuls += st.TableMuls
			}
		}
		if queries == 0 {
			return fmt.Errorf("%s: no store chain completed", workload)
		}
		total := func(name string) time.Duration { return sum(t.tr.named(prefix + name)) }
		perQuery := func(d time.Duration) float64 { return ms(d) / float64(queries) }
		scan := total("scan")
		t.m.set(prefix+"querygen_ms_per_query", perQuery(total("querygen")), "ms", queries)
		t.m.set(prefix+"scan_ms_per_query", perQuery(scan), "ms", queries)
		t.m.set(prefix+"modmuls_per_query", float64(modMuls)/float64(queries), "count", queries)
		if workload == fetchRecursive {
			t.m.set(prefix+"decode_ms_per_query", perQuery(total("decode")), "ms", queries)
			continue
		}
		t.m.set("pir.decode_us_per_query", perQuery(total("decode"))*1000, "us", queries)
		t.m.set("pir.tablemuls_per_query", float64(tableMuls)/float64(queries), "count", queries)
		t.m.set("pir.ns_per_modmul", float64(scan)/float64(modMuls), "ns", modMuls)
		// Every query reads the whole store; a batch shares one pass.
		t.m.set("pir.scan_mb_per_s", stored*float64(queries)/scan.Seconds()/1e6, "MB/s", queries)
	}

	// The kernel: one Montgomery multiplication at the fetch modulus.
	mont, err := pir.NewMont(t.pirKey.N)
	if err != nil {
		return err
	}
	operand := func() ([]big.Word, error) {
		x, err := rand.Int(rand.Reader, t.pirKey.N)
		if err != nil {
			return nil, err
		}
		return mont.ToMont(x)
	}
	a, err := operand()
	if err != nil {
		return err
	}
	b, err := operand()
	if err != nil {
		return err
	}
	const muls = 1 << 20
	t0 := time.Now()
	for i := 0; i < muls; i++ {
		mont.Mul(a, a, b)
	}
	t.m.set("pir.mont_mul_ns", float64(time.Since(t0))/muls, "ns", muls)
	return nil
}
