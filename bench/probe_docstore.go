package main

// probe_docstore.go: the harness builds its own docstore.Store from the
// world's documents, by the same batches the engine stored them in, and
// checks that its block mapping equals the one the server hands out. The
// pir chains then scan this store, so their spans sit on the layer's public
// functions, not behind the serving glue.

import (
	"errors"
	"fmt"
	"reflect"

	"embellish/internal/docstore"
	"embellish/internal/wire"
)

func (t *traceRun) probeDocstore() error {
	spec := t.w.spec
	store, err := docstore.New(spec.BlockSize)
	if err != nil {
		return err
	}
	texts := func(lo, hi int) [][]byte {
		out := make([][]byte, 0, hi-lo)
		for _, d := range t.w.docs[lo:hi] {
			out = append(out, []byte(d.Text))
		}
		return out
	}
	if err := store.AddBatch(0, texts(0, spec.BaseDocs)); err != nil {
		return err
	}
	for b := 0; b < spec.AddBatches; b++ {
		lo := spec.BaseDocs + b*spec.AddBatch
		if err := store.AddBatch(lo, texts(lo, lo+spec.AddBatch)); err != nil {
			return err
		}
	}
	if err := store.DeleteBatch(t.w.deleted); err != nil {
		return err
	}
	t.mirror = store.Snapshot()

	conn, err := t.w.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := wire.WritePIRParamsRequest(conn); err != nil {
		return err
	}
	typ, body, err := wire.ReadMessage(conn)
	if err != nil {
		return err
	}
	if typ != wire.TypePIRParams {
		return fmt.Errorf("the server answered the block mapping request with message type %d: %s", typ, body)
	}
	served, err := wire.DecodePIRParams(body)
	if err != nil {
		return err
	}
	params := t.mirror.Params()
	if !reflect.DeepEqual(served, params) {
		return errors.New("the harness's document store differs from the served one: the pir chains would scan another database")
	}

	var userBytes, opBlocks float64
	for id, ext := range params.Exts {
		if !ext.Deleted {
			userBytes += float64(len(t.w.docs[id].Text))
		}
	}
	for _, id := range t.in.pairs[0] {
		opBlocks += float64(params.Exts[id].Blocks)
	}
	stored := float64(params.NumBlocks * params.BlockSize)
	t.m.set("docstore.blocks", float64(params.NumBlocks), "count", 0)
	t.m.set("docstore.stored_bytes", stored, "B", 0)
	t.m.set("docstore.bytes_per_user_byte", stored/userBytes, "ratio", 0)
	t.m.set("docstore.blocks_per_op", opBlocks, "count", 0)

	const reads = 200
	i := 0
	plain, err := timeMedian(reads, us, func() error {
		pair := t.in.pairs[i%len(t.in.pairs)]
		i++
		_, err := t.mirror.Document(pair[0])
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("docstore.plain_read_us", plain, "us", reads)
	return nil
}
