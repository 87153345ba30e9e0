package main

// drive.go is the end-to-end driver: it uses the system only from outside,
// through the root package's facade over a TCP loopback connection (plus
// wire.ReadMessage and wire.DecodeResponse to read rank-serve's response
// frames, which no client decrypts).

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"embellish"
	"embellish/internal/wire"
)

// The four workloads. Each is a closed loop of one client: a private session
// is sequential by nature (search, decode, then fetch), and on two cores of a
// shared host an open loop, or a second client, measures the scheduler.
const (
	searchSession  = "search-session"
	rankServe      = "rank-serve"
	fetchFlat      = "fetch-flat"
	fetchRecursive = "fetch-recursive"
)

var workloads = []string{searchSession, rankServe, fetchFlat, fetchRecursive}

// meterConn counts the bytes a session moves, client to server (up) and
// back (down). While capture is set it also keeps a copy of them, which the
// traced run parses back into frames.
type meterConn struct {
	net.Conn
	up, down atomic.Int64
	capture  bool
	sent     bytes.Buffer
	received bytes.Buffer
}

func (c *meterConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up.Add(int64(n))
	if c.capture {
		c.sent.Write(p[:n])
	}
	return n, err
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down.Add(int64(n))
	if c.capture {
		c.received.Write(p[:n])
	}
	return n, err
}

// startCapture drops what was captured before and captures from now on.
func (c *meterConn) startCapture() {
	c.sent.Reset()
	c.received.Reset()
	c.capture = true
}

// session is one client of a workload: do runs one op on input i and is
// what the loop times; check compares that op's output with the expected
// one and runs outside the timed region.
type session interface {
	do(i int) error
	check(i int) error
	inputs() int
	conn() *meterConn
}

type sessionBase struct{ mc *meterConn }

func (b sessionBase) conn() *meterConn { return b.mc }

// searcher runs the paper's session minus the fetch: embellish, rank on the
// server, decrypt every candidate, keep the top k.
type searcher struct {
	sessionBase
	in     *inputs
	client *embellish.Client
	got    []embellish.Result
}

func (s *searcher) inputs() int { return len(s.in.queries) }

func (s *searcher) do(i int) (err error) {
	s.got, err = s.client.SearchRemote(s.mc, s.in.queries[i], topK)
	return err
}

// check is Claim 1: the private ranking equals the plaintext ranking. When
// fewer than topK documents match, the private ranking fills up with
// candidates that matched decoys only and decrypt to zero; the plaintext
// ranking has no such tail.
func (s *searcher) check(i int) error {
	got := s.got
	for len(got) > 0 && got[len(got)-1].Score == 0 {
		got = got[:len(got)-1]
	}
	if !reflect.DeepEqual(got, s.in.wantRanks[i]) {
		return fmt.Errorf("query %q: private ranking %v differs from the plaintext ranking %v", s.in.queries[i], s.got, s.in.wantRanks[i])
	}
	return nil
}

// rankFrames are rank-serve's inputs: queries embellished once, as the wire
// frames SearchRemote would send, and for one frame in rankSample the
// candidate set the engine returns for it in process.
type rankFrames struct {
	queries []*embellish.Query
	frames  [][]byte
	wantIDs map[int][]int
}

const rankSample = 16

func makeRankFrames(w *world, in *inputs) (*rankFrames, error) {
	rf := &rankFrames{wantIDs: map[int][]int{}}
	for i, text := range in.queries {
		q, err := w.client.Embellish(text)
		if err != nil {
			return nil, fmt.Errorf("embellishing %q: %w", text, err)
		}
		frame, err := q.WireFrame()
		if err != nil {
			return nil, err
		}
		rf.queries = append(rf.queries, q)
		rf.frames = append(rf.frames, frame)
		if i%rankSample != 0 {
			continue
		}
		resp, err := w.engine.Process(q)
		if err != nil {
			return nil, err
		}
		all, err := w.client.Decode(resp, 0) // k = 0 keeps every candidate
		if err != nil {
			return nil, err
		}
		ids := make([]int, len(all))
		for j, r := range all {
			ids[j] = r.DocID
		}
		sort.Ints(ids)
		rf.wantIDs[i] = ids
	}
	return rf, nil
}

// replayer is the operator's view of the server: it replays embellished
// frames and reads the response frame without decrypting it.
type replayer struct {
	sessionBase
	rf   *rankFrames
	typ  byte
	body []byte
}

func (r *replayer) inputs() int { return len(r.rf.frames) }

func (r *replayer) do(i int) (err error) {
	if _, err = r.mc.Write(r.rf.frames[i]); err != nil {
		return err
	}
	r.typ, r.body, err = wire.ReadMessage(r.mc)
	return err
}

func (r *replayer) check(i int) error {
	if r.typ != wire.TypeResponse {
		return fmt.Errorf("frame %d: the server answered message type %d: %s", i, r.typ, r.body)
	}
	want, sampled := r.rf.wantIDs[i]
	if !sampled {
		return nil
	}
	cands, _, err := wire.DecodeResponse(r.body)
	if err != nil {
		return fmt.Errorf("frame %d: %w", i, err)
	}
	got := make([]int, len(cands))
	for j, c := range cands {
		got[j] = int(c.Doc)
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("frame %d: %d candidates over the wire, %d in process, or different ones", i, len(got), len(want))
	}
	return nil
}

// fetcher privately fetches a pair of documents, through the flat or the
// recursive protocol as its client was built.
type fetcher struct {
	sessionBase
	in     *inputs
	client *embellish.Client
	got    [][]byte
	stats  embellish.FetchStats
}

func (f *fetcher) inputs() int { return len(f.in.pairs) }

func (f *fetcher) do(i int) (err error) {
	f.got, f.stats, err = f.client.FetchDocumentsRemote(f.mc, f.in.pairs[i])
	return err
}

func (f *fetcher) check(i int) error {
	if len(f.got) != len(f.in.wantDocs[i]) {
		return fmt.Errorf("pair %v: fetched %d documents", f.in.pairs[i], len(f.got))
	}
	for j, want := range f.in.wantDocs[i] {
		if !bytes.Equal(f.got[j], want) {
			return fmt.Errorf("document %d: fetched bytes differ from the stored ones", f.in.pairs[i][j])
		}
	}
	return nil
}

// newSession dials the world's server and returns one session of workload.
func newSession(w *world, in *inputs, rf *rankFrames, workload string) (session, error) {
	c, err := w.dial()
	if err != nil {
		return nil, err
	}
	base := sessionBase{mc: &meterConn{Conn: c}}
	if workload == rankServe {
		return &replayer{sessionBase: base, rf: rf}, nil
	}
	client, err := w.newClient(workload == fetchRecursive)
	if err != nil {
		c.Close()
		return nil, err
	}
	if workload == searchSession {
		return &searcher{sessionBase: base, in: in, client: client}, nil
	}
	return &fetcher{sessionBase: base, in: in, client: client}, nil
}

// newSessions returns n sessions of one workload, client k starting at input
// k so that concurrent clients run different ops.
func newSessions(w *world, in *inputs, workload string, n int) ([]session, error) {
	var rf *rankFrames
	if workload == rankServe {
		var err error
		if rf, err = makeRankFrames(w, in); err != nil {
			return nil, err
		}
	}
	sess := make([]session, n)
	for k := range sess {
		var err error
		if sess[k], err = newSession(w, in, rf, workload); err != nil {
			closeSessions(sess[:k])
			return nil, err
		}
	}
	return sess, nil
}

func closeSessions(sess []session) {
	for _, s := range sess {
		s.conn().Close()
	}
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	latencies  []time.Duration // of the ops that succeeded
	starts     []time.Time     // when each of them started
	attempted  int
	failed     int
	opsPerS    float64 // median over the window's slices of the ops completed per second, all clients
	up, down   int64   // bytes moved inside the window
	firstError error
}

// timedOp runs one op and its check and returns when the op started and its
// latency. With a tracer it records the op as a span and captures its frames.
func timedOp(s session, i int, tr *tracer, name string) (time.Time, time.Duration, error) {
	if tr != nil {
		s.conn().startCapture()
	}
	id := tr.start(name, -1, i)
	t0 := time.Now()
	err := s.do(i)
	d := time.Since(t0)
	tr.end(id)
	if err == nil {
		err = s.check(i)
	}
	return t0, d, err
}

// rateSlices is how many equal slices a window's throughput is taken over.
// The median slice, not the whole window's count, is the throughput: a
// shared machine stalls for a second now and then, and a stall takes ops out
// of one or two slices, not out of the median.
const rateSlices = 10

// spreadOver adds one op that started at offset start into the window and
// took d to the slices it overlaps, in proportion to the overlap: an op as
// long as a slice is not all counted where it happens to end.
func spreadOver(slices []float64, window, start, d time.Duration) {
	width := window / time.Duration(len(slices))
	for i := range slices {
		lo, hi := max(start, time.Duration(i)*width), min(start+d, time.Duration(i+1)*width)
		if hi > lo {
			slices[i] += float64(hi-lo) / float64(d)
		}
	}
}

// minWarmOps is the fewest ops a client runs before its measured window:
// the first recursive fetch is about twice as slow as the steady state.
const minWarmOps = 2

// The reference kernel's share of a calibrated window: the first client
// times it between two ops whenever calEvery has passed since it last did,
// for calShare of that time.
const (
	calEvery = 200 * time.Millisecond
	calShare = 0.05
)

// closedLoop runs every session's ops back to back: first an untimed
// warm-up of at least warm and minWarmOps ops per client, then, started
// together, a measured window. An op in flight when the window ends
// finishes and counts. With a calibrator, the first client times the
// reference kernel between its ops, outside every op's latency.
func closedLoop(sess []session, warm, window time.Duration, tr *tracer, cal *calibrator, name string) loopResult {
	var (
		mu    sync.Mutex
		total loopResult
		ready sync.WaitGroup
		done  sync.WaitGroup
		rates [rateSlices]float64
	)
	fail := func(r *loopResult, err error) {
		r.failed++
		if r.firstError == nil {
			r.firstError = err
		}
	}
	ready.Add(len(sess))
	done.Add(len(sess))
	for k, s := range sess {
		go func() {
			defer done.Done()
			var r loopResult
			i := k % s.inputs()
			next := func() int { j := i; i = (i + len(sess)) % s.inputs(); return j }

			warmEnd := time.Now().Add(warm)
			for ops := 0; warm > 0 && (ops < minWarmOps || time.Now().Before(warmEnd)); ops++ {
				if _, _, err := timedOp(s, next(), nil, name); err != nil {
					r.attempted++
					fail(&r, err)
				}
			}
			ready.Done()
			ready.Wait()

			up0, down0 := s.conn().up.Load(), s.conn().down.Load()
			start := time.Now()
			end := start.Add(window)
			var rate [rateSlices]float64 // this client's ops per slice, an op spread evenly over its own duration
			// calibrate times the kernel for its share of the time since it
			// last did; the window opens and closes with a sample.
			calibrated := start.Add(-calEvery)
			calibrate := func() {
				if cal != nil && k == 0 {
					cal.spend(time.Duration(calShare * float64(time.Since(calibrated))))
					calibrated = time.Now()
				}
			}
			for time.Now().Before(end) {
				if time.Since(calibrated) >= calEvery {
					calibrate()
				}
				t0, d, err := timedOp(s, next(), tr, name)
				opStart := t0.Sub(start)
				r.attempted++
				if err != nil {
					fail(&r, err)
					var nerr net.Error
					if errors.As(err, &nerr) {
						break // the connection is gone: every further op would fail the same way
					}
					continue
				}
				r.latencies = append(r.latencies, d)
				r.starts = append(r.starts, t0)
				spreadOver(rate[:], window, opStart, d)
			}
			calibrate()
			r.up, r.down = s.conn().up.Load()-up0, s.conn().down.Load()-down0

			mu.Lock()
			defer mu.Unlock()
			total.latencies = append(total.latencies, r.latencies...)
			total.starts = append(total.starts, r.starts...)
			total.attempted += r.attempted
			total.failed += r.failed
			for i, ops := range rate {
				rates[i] += ops / (window.Seconds() / rateSlices)
			}
			total.up += r.up
			total.down += r.down
			if total.firstError == nil {
				total.firstError = r.firstError
			}
		}()
	}
	done.Wait()
	total.opsPerS = median(rates[:])
	return total
}
