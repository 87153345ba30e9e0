package main

// probe_core.go: the core layer (Algorithms 3, 4 and 5) called in process —
// Client.Embellish, Engine.Process, Client.Decode — for the ops the loopback
// replay runs, each call a span.

import "time"

// chainSearch is one search session in process.
func (t *traceRun) chainSearch(i int) (time.Duration, error) {
	t0 := time.Now()
	root := t.tr.start("op."+searchSession+".local", -1, i)
	defer t.tr.end(root)

	id := t.tr.start("core.embellish", root, i)
	q, err := t.flat.Embellish(t.in.queries[i])
	t.tr.end(id)
	if err != nil {
		return 0, err
	}
	id = t.tr.start("core.process", root, i)
	resp, err := t.w.engine.Process(q)
	t.tr.end(id)
	if err != nil {
		return 0, err
	}
	id = t.tr.start("core.decode", root, i)
	got, err := t.flat.Decode(resp, topK)
	t.tr.end(id)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	s := searcher{in: t.in, got: got}
	return d, s.check(i)
}

// chainRank is what the server does for one replayed frame, in process.
func (t *traceRun) chainRank(i int) (time.Duration, error) {
	t0 := time.Now()
	root := t.tr.start("op."+rankServe+".local", -1, i)
	id := t.tr.start("core.rank", root, i)
	resp, err := t.w.engine.Process(t.rf.queries[i])
	t.tr.end(id)
	t.tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	t.postings = append(t.postings, float64(resp.Stats.PostingsScanned))
	t.candidates = append(t.candidates, float64(resp.Stats.Candidates))
	return d, nil
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// probeCore derives the core layer's metrics from the chains' spans.
func (t *traceRun) probeCore() error {
	ranks := t.tr.named("core.rank")
	var postingsTotal float64
	for _, p := range t.postings {
		postingsTotal += p
	}
	t.m.set("core.process_ms", median(msOf(ranks)), "ms", len(ranks))
	t.m.set("core.postings_per_op", median(t.postings), "count", len(t.postings))
	t.m.set("core.candidates_per_op", median(t.candidates), "count", len(t.candidates))
	t.m.set("core.ns_per_posting", float64(sum(ranks))/postingsTotal, "ns", len(t.postings))

	embellish, decode := t.tr.named("core.embellish"), t.tr.named("core.decode")
	t.m.set("core.embellish_us", median(msOf(embellish))*1000, "us", len(embellish))
	t.m.set("core.decode_ms", median(msOf(decode)), "ms", len(decode))
	session := sum(t.tr.named("op." + searchSession + ".local"))
	t.m.set("core.decode_share", float64(sum(decode))/float64(session), "ratio", len(decode))
	return nil
}
