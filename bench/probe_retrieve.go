package main

// probe_retrieve.go: the root package's fetch path called in process —
// Client.FetchDocuments, the mirror of FetchDocumentsRemote without the
// wire — for the fetch ops the loopback replay runs.

import "time"

// chainFetch returns the in-process chain of a fetch workload.
func (t *traceRun) chainFetch(workload string) chain {
	client := t.flat
	if workload == fetchRecursive {
		client = t.recursive
	}
	return func(i int) (time.Duration, error) {
		t0 := time.Now()
		root := t.tr.start("op."+workload+".local", -1, i)
		id := t.tr.start("retrieve.fetch", root, i)
		got, _, err := client.FetchDocuments(t.in.pairs[i])
		t.tr.end(id)
		t.tr.end(root)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		f := fetcher{in: t.in, got: got}
		return d, f.check(i)
	}
}

func (t *traceRun) probeRetrieve() error {
	flat, rec := t.replays[fetchFlat].local, t.replays[fetchRecursive].local
	t.m.set("retrieve.local_flat_ms", median(msOf(flat)), "ms", len(flat))
	t.m.set("retrieve.local_rec_ms", median(msOf(rec)), "ms", len(rec))

	// The client's share of a flat fetch: query generation and decoding, as
	// the store chains (probe_pir.go, run before this) timed them per op.
	clientSide := sum(t.tr.named("pir.querygen")) + sum(t.tr.named("pir.decode"))
	perOp := ms(clientSide) / float64(storeOps[fetchFlat])
	t.m.set("retrieve.client_share", perOp/median(msOf(flat)), "ratio", storeOps[fetchFlat])
	return nil
}
