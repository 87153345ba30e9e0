package main

// probe_wire.go: the wire codec measured on real frames — the bytes the
// loopback replay's connections moved — by decoding them and encoding the
// result again, plus the round trip of the smallest frame there is.

import (
	"fmt"
	"io"

	"embellish"
	"embellish/internal/core"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// codecReps is how often a codec call is repeated for its median.
const codecReps = 20

// ofType returns the frames of one message type.
func ofType(frames []frame, typ byte) []frame {
	var out []frame
	for _, f := range frames {
		if f.typ == typ {
			out = append(out, f)
		}
	}
	return out
}

func meanSize(frames []frame) float64 {
	total := 0
	for _, f := range frames {
		total += f.size()
	}
	return float64(total) / float64(len(frames))
}

func (t *traceRun) probeWire() error {
	if err := t.wireSearch(); err != nil {
		return err
	}
	if err := t.wireFlat(); err != nil {
		return err
	}
	if err := t.wireRecursive(); err != nil {
		return err
	}

	conn, err := t.w.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	const trips = 200
	rtt, err := timeMedian(trips, us, func() error {
		_, err := embellish.ServerStats(conn)
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("wire.loopback_rtt_us", rtt, "us", trips)
	return nil
}

// wireSearch measures the query and response frames of a search op.
func (t *traceRun) wireSearch() error {
	rp := t.replays[searchSession]
	queries, responses := ofType(rp.sent, wire.TypeQuery), ofType(rp.received, wire.TypeResponse)
	if len(queries) != 1 || len(responses) != 1 {
		return fmt.Errorf("a search op moved %d query and %d response frames, want one of each", len(queries), len(responses))
	}
	t.m.set("wire.query_bytes", meanSize(queries), "B", 1)
	t.m.set("wire.response_bytes", meanSize(responses), "B", 1)

	v, err := timeMedian(codecReps, us, func() error {
		_, err := wire.DecodeQuery(queries[0].body)
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("wire.query_decode_us", v, "us", codecReps)

	var cands []wire.Candidate
	var st wire.ResponseStats
	v, err = timeMedian(codecReps, us, func() (err error) {
		cands, st, err = wire.DecodeResponse(responses[0].body)
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("wire.response_decode_us", v, "us", codecReps)

	resp := &core.Response{}
	for _, c := range cands {
		resp.Docs = append(resp.Docs, core.DocScore{Doc: c.Doc, Enc: c.Enc})
	}
	stats := core.Stats{Postings: st.Postings}
	stats.IO.Seeks, stats.IO.Bytes = st.Seeks, st.IOBytes
	v, err = timeMedian(codecReps, us, func() error { return wire.WriteResponse(io.Discard, resp, stats) })
	if err != nil {
		return err
	}
	t.m.set("wire.response_encode_us", v, "us", codecReps)
	return nil
}

// wireFlat measures the batch frames of a flat fetch op, per block query.
func (t *traceRun) wireFlat() error {
	rp := t.replays[fetchFlat]
	batches, answers := ofType(rp.sent, wire.TypePIRBatchQuery), ofType(rp.received, wire.TypePIRBatchResponse)
	if len(batches) == 0 || len(answers) != rp.runs {
		return fmt.Errorf("a flat fetch of %d blocks moved %d batch and %d answer frames", rp.runs, len(batches), len(answers))
	}
	perQuery := float64(rp.runs)
	t.m.set("wire.pir_query_bytes", meanSize(batches)*float64(len(batches))/perQuery, "B", rp.runs)
	t.m.set("wire.pir_answer_bytes", meanSize(answers), "B", len(answers))
	// Each batch frame is one pass over the store on the server.
	t.m.set("wire.pir_batches_per_op", float64(len(batches)), "count", 1)

	decoded := make([][]*pir.Query, len(batches))
	v, err := timeMedian(codecReps, ms, func() (err error) {
		for i, f := range batches {
			if decoded[i], err = wire.DecodePIRBatchQuery(f.body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.m.set("wire.pir_query_decode_ms", v/perQuery, "ms", codecReps)
	v, err = timeMedian(codecReps, ms, func() error {
		for _, qs := range decoded {
			if err := wire.WritePIRBatchQuery(io.Discard, qs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.m.set("wire.pir_query_encode_ms", v/perQuery, "ms", codecReps)
	v, err = timeMedian(codecReps, us, func() error {
		for _, f := range answers {
			if _, _, err := wire.DecodePIRBatchAnswer(f.body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.m.set("wire.pir_answer_decode_us", v/float64(len(answers)), "us", codecReps)
	return nil
}

// wireRecursive measures the frames of a recursive fetch op: a small query,
// an answer of megabytes.
func (t *traceRun) wireRecursive() error {
	rp := t.replays[fetchRecursive]
	batches, answers := ofType(rp.sent, wire.TypePIRRecursiveQuery), ofType(rp.received, wire.TypePIRBatchResponse)
	if len(batches) == 0 || len(answers) != rp.runs {
		return fmt.Errorf("a recursive fetch of %d blocks moved %d query and %d answer frames", rp.runs, len(batches), len(answers))
	}
	t.m.set("wire.rec_query_bytes", meanSize(batches)*float64(len(batches))/float64(rp.runs), "B", rp.runs)
	t.m.set("wire.rec_answer_bytes", meanSize(answers), "B", len(answers))
	const reps = 3 // an answer is megabytes of big integers
	v, err := timeMedian(reps, ms, func() error {
		_, _, err := wire.DecodePIRBatchAnswer(answers[0].body)
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("wire.rec_answer_decode_ms", v, "ms", reps)
	return nil
}
