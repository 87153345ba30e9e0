package main

// probe_index.go: the live index's shape, which must repeat exactly from
// run to run, its ingest rate, and the plaintext ranking that is the
// denominator of the privacy price.

func (t *traceRun) probeIndex() error {
	e := t.w.engine
	t.m.set("index.segments", float64(e.NumSegments()), "count", 0)
	t.m.set("index.tombstones", float64(e.NextDocID()-e.NumDocs()), "count", 0)
	t.m.set("index.live_docs", float64(e.NumDocs()), "count", 0)
	added := t.w.spec.AddBatches * t.w.spec.AddBatch
	t.m.set("index.add_docs_per_s", float64(added)/t.w.addSeconds, "1/s", added)

	reps := len(t.in.queries)
	i := 0
	plain, err := timeMedian(reps, us, func() error {
		_, err := e.PlaintextSearch(t.in.queries[i], topK)
		i++
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("index.plain_topk_us", plain, "us", reps)
	return nil
}
