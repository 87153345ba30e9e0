package main

// trace.go runs the traced run: the same world and inputs as the end-to-end
// run, a few ops of every kind replayed twice — over loopback, and in
// process as a chain of direct calls into each layer's public functions,
// every call wrapped in a span — and each layer's own probes. The layers'
// chains and probes live in probe_<layer>.go; this file sequences them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"embellish"
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/wire"
)

// traceOps is how many ops of each workload the traced run replays over
// loopback and in process; storeOps how many of each fetch it replays
// against the harness's own document store.
var (
	traceOps = map[string]int{searchSession: 8, rankServe: 128, fetchFlat: 4, fetchRecursive: 2}
	storeOps = map[string]int{fetchFlat: 2, fetchRecursive: 1}
)

// frame is one wire frame the loopback replay moved.
type frame struct {
	typ  byte
	body []byte
}

// size is the frame's length on the wire: length prefix, type byte, body.
func (f frame) size() int { return 4 + 1 + len(f.body) }

func parseFrames(raw []byte) ([]frame, error) {
	var out []frame
	for r := bytes.NewReader(raw); r.Len() > 0; {
		typ, body, err := wire.ReadMessage(r)
		if err != nil {
			return nil, err
		}
		out = append(out, frame{typ, body})
	}
	return out, nil
}

// opReplay is what the loopback replay of one workload left behind.
type opReplay struct {
	loop     []time.Duration // latency of each op over loopback
	local    []time.Duration // latency of the same ops in process
	sent     []frame         // the last op's frames, client to server
	received []frame         // and back
	runs     int             // block queries per fetch op
}

// traceRun is the state the chains and probes of one traced run share.
type traceRun struct {
	cfg runConfig
	w   *world
	in  *inputs
	rf  *rankFrames
	tr  *tracer
	m   metrics
	rec *record

	firstError error
	replays    map[string]*opReplay
	// What Engine.Process reported for each replayed rank frame.
	postings, candidates []float64

	flat, recursive *embellish.Client  // in-process clients of the two fetch protocols
	mirror          *docstore.Snapshot // the harness's own copy of the served store
	pirKey          *pir.ClientKey     // key of the store-level chains
}

// note counts one checked op.
func (t *traceRun) note(err error) {
	t.rec.Attempted++
	if err != nil {
		t.rec.Failed++
		if t.firstError == nil {
			t.firstError = err
		}
	}
}

// noteLoop counts the ops of one closed-loop window.
func (t *traceRun) noteLoop(r loopResult) {
	t.rec.Attempted += r.attempted
	t.rec.Failed += r.failed
	if t.firstError == nil {
		t.firstError = r.firstError
	}
}

// chain runs op i of a workload in process, as direct calls into the layers,
// each call a span, and returns what the op took.
type chain func(i int) (time.Duration, error)

// replay runs the traced run's ops of one workload on one connection, one
// after the other, each op twice: over loopback, then in process. The two
// runs of an op sit next to each other in time, so that the machine's own
// drift is common to both and their difference is the serving layer's. It
// keeps the last op's frames.
func (t *traceRun) replay(workload string, local chain) error {
	s, err := newSession(t.w, t.in, t.rf, workload)
	if err != nil {
		return err
	}
	defer s.conn().Close()
	n := traceOps[workload]
	// One untimed op first: it generates the session's fetch key and takes
	// the first-fetch cost the end-to-end run's warm-up takes.
	_, _, err = timedOp(s, n%s.inputs(), nil, workload)
	t.note(err)
	rp := &opReplay{}
	for i := 0; i < n; i++ {
		_, d, err := timedOp(s, i%s.inputs(), t.tr, "op."+workload+".loopback")
		t.note(err)
		rp.loop = append(rp.loop, d)
		d, err = local(i % s.inputs())
		t.note(err)
		rp.local = append(rp.local, d)
	}
	if f, ok := s.(*fetcher); ok {
		rp.runs = f.stats.Runs
	}
	if rp.sent, err = parseFrames(s.conn().sent.Bytes()); err != nil {
		return fmt.Errorf("%s: captured client frames: %w", workload, err)
	}
	if rp.received, err = parseFrames(s.conn().received.Bytes()); err != nil {
		return fmt.Errorf("%s: captured server frames: %w", workload, err)
	}
	t.replays[workload] = rp
	return nil
}

// runTraced fills rec with every per-layer metric. The workload of the run
// chooses one thing only: whose loop trace.overhead_ratio is measured on.
func runTraced(cfg runConfig, rec *record) (firstError, err error) {
	w, err := buildWorld(cfg.spec)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rec.World = w.shape()
	t := &traceRun{cfg: cfg, w: w, tr: newTracer(), m: rec.Metrics, rec: rec, replays: map[string]*opReplay{}}
	if t.in, err = makeInputs(w, cfg.seed); err != nil {
		return nil, err
	}
	if t.rf, err = makeRankFrames(w, t.in); err != nil {
		return nil, err
	}
	if t.flat, err = w.newClient(false); err != nil {
		return nil, err
	}
	if t.recursive, err = w.newClient(true); err != nil {
		return nil, err
	}
	// An untimed first fetch for the in-process clients too.
	for _, c := range []*embellish.Client{t.flat, t.recursive} {
		_, _, err := c.FetchDocuments(t.in.pairs[0])
		t.note(err)
	}

	steps := []func() error{
		t.probeDocstore, // builds the mirror store the pir chains scan
		func() error { return t.replay(searchSession, t.chainSearch) },
		func() error { return t.replay(rankServe, t.chainRank) },
		func() error { return t.replay(fetchFlat, t.chainFetch(fetchFlat)) },
		func() error { return t.replay(fetchRecursive, t.chainFetch(fetchRecursive)) },
		t.probeCore,
		t.probePIR,
		t.probeRetrieve, // reads the pir chains' spans
		t.probeBenaloh,
		t.probeIndex,
		t.probeWire,
		t.probeNet,
		t.probeOverhead,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return t.firstError, err
		}
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, t.tr.spans); err != nil {
			return t.firstError, err
		}
	}
	return t.firstError, nil
}

// probeOverhead measures what tracing costs the run's own workload: its
// closed loop once with tracing off and once with every op a span and its
// frames captured, back to back on the same sessions.
func (t *traceRun) probeOverhead() error {
	sess, err := newSessions(t.w, t.in, t.cfg.workload, 1)
	if err != nil {
		return err
	}
	defer closeSessions(sess)
	window := t.cfg.window / 5
	off := closedLoop(sess, t.cfg.warm, window, nil, nil, t.cfg.workload)
	on := closedLoop(sess, 0, window, t.tr, nil, "op."+t.cfg.workload+".traced")
	t.noteLoop(off)
	t.noteLoop(on)
	if len(off.latencies) == 0 || len(on.latencies) == 0 {
		return errors.New("the overhead windows completed no op")
	}
	t.m.set("trace.overhead_ratio", median(msOf(on.latencies))/median(msOf(off.latencies)), "ratio", len(on.latencies))
	return nil
}

// writeSpans dumps every span with its self time.
func writeSpans(path string, spans []span) error {
	type dumped struct {
		span
		Self time.Duration `json:"self_ns"`
	}
	self := selfTimes(spans)
	out := make([]dumped, len(spans))
	for i, s := range spans {
		out[i] = dumped{s, self[i]}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// timeMedian returns the median time of reps calls of f, in the unit conv
// gives.
func timeMedian(reps int, conv func(time.Duration) float64, f func() error) (float64, error) {
	vs := make([]float64, reps)
	for i := range vs {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		vs[i] = conv(time.Since(t0))
	}
	return median(vs), nil
}
