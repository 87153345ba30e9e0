// Package cluster is the coordinator tier that lifts the engine's
// doc-mod-n parallelism from goroutines to processes: a Router serves
// the unchanged client wire protocol and scatter-gathers every request
// across partition worker processes, and a Replica tails a primary's
// write-ahead log over the wire to stay a warm failover target.
//
// The partitioning contract mirrors the in-process sharding proof from
// the ranking layer: per-partition encrypted score maps are disjoint,
// so the merged candidate set is a concatenation (re-sorted by global
// document id) and PIR answers over a column-partitioned block space
// combine by element-wise modular multiplication. Both merges are
// byte-exact — a client cannot distinguish the router from a single
// process holding the whole corpus.
//
// Identity across partitions is anchored by a shared template engine
// file: every worker (and every replica) loads the SAME engine file,
// which pins the bucket organization, the searchable dictionary and
// the quantization scale — the three things that must agree for one
// embellished query to be valid everywhere and for scores to merge
// byte-identically. Template documents (global id < Config.Base) exist
// on every partition; documents ingested afterwards (id >= Base) are
// owned by partition (id-Base) mod n and live there under the dense
// local id Base + (id-Base)/n.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"embellish/internal/serve"
	"embellish/internal/wire"
)

// Defaults for the per-partition request policy.
const (
	// DefaultDeadline bounds one partition attempt (dial + request +
	// response read).
	DefaultDeadline = 10 * time.Second
	// DefaultRetries is the attempts beyond the first for one partition
	// request; with a replica configured, odd attempts land on it.
	DefaultRetries = 3
	// DefaultBackoff is the sleep before the first retry, doubling per
	// subsequent attempt (capped at maxBackoff).
	DefaultBackoff = 25 * time.Millisecond
	maxBackoff     = 1 * time.Second
	// maxPooledPerEndpoint caps idle pooled connections per endpoint.
	maxPooledPerEndpoint = 8
)

// Partition names one shard's servers.
type Partition struct {
	// Endpoints lists the partition's addresses, primary first, read
	// replicas after — the failover order. Reads retry across the whole
	// list; writes (admin frames) go to the primary only, because a
	// replica applies updates solely through WAL shipping.
	Endpoints []string
}

// Config describes the cluster a Router fronts.
type Config struct {
	// Base is the template corpus size — the number of documents in the
	// shared engine file every partition loaded. Global ids below Base
	// exist on every partition under their own id; ids at or above it
	// are owned by partition (id-Base) mod len(Partitions).
	Base int
	// Partitions is the shard list; its order defines partition
	// numbering and must match the assignment used at ingest time.
	Partitions []Partition
	// Deadline bounds one partition attempt; 0 selects DefaultDeadline,
	// negative disables per-attempt deadlines.
	Deadline time.Duration
	// Retries is the attempts beyond the first per partition request; 0
	// selects DefaultRetries, negative disables retries.
	Retries int
	// Backoff is the initial retry sleep, doubled per attempt; 0
	// selects DefaultBackoff, negative disables backoff.
	Backoff time.Duration
	// IdleTimeout closes a client connection when no request arrives
	// within the window. 0 disables the deadline.
	IdleTimeout time.Duration
}

// Router serves the client wire protocol over a partitioned cluster.
// Construct with NewRouter; a zero Router is not usable.
type Router struct {
	base     int
	n        int
	parts    []Partition
	deadline time.Duration
	retries  int
	backoff  time.Duration

	// loop runs the handler table and holds the counters, the routing
	// rows included.
	loop          *serve.Server[*pirEpoch]
	partRetries   []atomic.Int64
	partFailovers []atomic.Int64

	mu       sync.Mutex
	pool     map[string][]net.Conn
	shutdown bool
}

// request is one frame in hand on a router connection. The connection's
// state is its PIR epoch (see pir.go).
type request = serve.Request[*pirEpoch]

// NewRouter validates the topology and builds a router.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Partitions) == 0 {
		return nil, errors.New("cluster: no partitions configured")
	}
	for p, part := range cfg.Partitions {
		if len(part.Endpoints) == 0 {
			return nil, fmt.Errorf("cluster: partition %d has no endpoints", p)
		}
	}
	if cfg.Base < 0 {
		return nil, errors.New("cluster: negative partition base")
	}
	r := &Router{
		base:          cfg.Base,
		n:             len(cfg.Partitions),
		parts:         cfg.Partitions,
		deadline:      cfg.Deadline,
		retries:       cfg.Retries,
		backoff:       cfg.Backoff,
		pool:          make(map[string][]net.Conn),
		partRetries:   make([]atomic.Int64, len(cfg.Partitions)),
		partFailovers: make([]atomic.Int64, len(cfg.Partitions)),
	}
	if r.deadline == 0 {
		r.deadline = DefaultDeadline
	}
	if r.retries == 0 {
		r.retries = DefaultRetries
	}
	if r.retries < 0 {
		r.retries = 0
	}
	if r.backoff == 0 {
		r.backoff = DefaultBackoff
	}
	if r.backoff < 0 {
		r.backoff = 0
	}
	// Every row is admitted: the router has no queue, but inflight spans
	// every routed request, so the drain covers it. TypeDecoyQuery rides
	// the query row with its type byte forwarded, so partitions account
	// the decoys. Types the table leaves out — the WAL pull, the lexicon
	// sync and the session audit — are served by workers only.
	r.loop = serve.New(serve.Config{Name: "cluster: router", IdleTimeout: cfg.IdleTimeout}, []serve.Handler[*pirEpoch]{
		wire.TypeQuery:         {Admitted: true, Exec: r.handleQuery},
		wire.TypeDecoyQuery:    {Admitted: true, Exec: r.handleQuery},
		wire.TypeBatchQuery:    {Admitted: true, Exec: r.handleBatch},
		wire.TypeAddDocs:       {Admitted: true, Exec: r.handleAdmin},
		wire.TypeDeleteDocs:    {Admitted: true, Exec: r.handleAdmin},
		wire.TypePIRParams:     {Admitted: true, Exec: r.handlePIRParams},
		wire.TypePIRBatchQuery: {Admitted: true, Exec: r.handlePIRBatch},
		wire.TypeStats:         {Name: "stats", EmptyBody: true, Admitted: true, Exec: r.handleStats},
		wire.TypeClusterMap:    {Name: "cluster map", EmptyBody: true, Admitted: true, Exec: r.handleClusterMap},
	})
	r.loop.Counters[wire.StatRouterPartitions].Store(int64(r.n))
	return r, nil
}

// Map returns the topology as the wire message the router serves for
// TypeClusterMap.
func (r *Router) Map() wire.ClusterMap {
	m := wire.ClusterMap{Base: r.base, Partitions: make([][]string, r.n)}
	for p, part := range r.parts {
		m.Partitions[p] = append([]string(nil), part.Endpoints...)
	}
	return m
}

// ownerOf returns the partition owning global document id g.
func (r *Router) ownerOf(g int) int {
	if g < r.base {
		return g % r.n
	}
	return (g - r.base) % r.n
}

// localID translates a global document id to its owner-local id.
// Template ids keep their value; later ids compact to the owner's
// dense sequence.
func (r *Router) localID(g int) int {
	if g < r.base {
		return g
	}
	return r.base + (g-r.base)/r.n
}

// globalID translates partition p's local document id back to the
// cluster-global id.
func (r *Router) globalID(p, l int) int {
	if l < r.base {
		return l
	}
	return r.base + (l-r.base)*r.n + p
}

// peerError is an application-level refusal a partition answered with
// a well-formed TypeError frame. It is relayed to the client verbatim
// and never retried — the partition is healthy, the request is not.
type peerError struct{ body []byte }

func (e *peerError) Error() string { return string(e.body) }

// getConn pops a pooled connection to addr or dials a fresh one.
func (r *Router) getConn(addr string) (net.Conn, error) {
	r.mu.Lock()
	if cs := r.pool[addr]; len(cs) > 0 {
		c := cs[len(cs)-1]
		r.pool[addr] = cs[:len(cs)-1]
		r.mu.Unlock()
		return c, nil
	}
	if r.shutdown {
		r.mu.Unlock()
		return nil, errors.New("cluster: router is shut down")
	}
	r.mu.Unlock()
	timeout := r.deadline
	if timeout <= 0 {
		timeout = DefaultDeadline
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// putConn returns a healthy connection to the pool.
func (r *Router) putConn(addr string, c net.Conn) {
	r.mu.Lock()
	if r.shutdown || len(r.pool[addr]) >= maxPooledPerEndpoint {
		r.mu.Unlock()
		c.Close()
		return
	}
	r.pool[addr] = append(r.pool[addr], c)
	r.mu.Unlock()
}

// withEndpoint runs fn against partition p with bounded retry,
// exponential backoff and endpoint failover: attempt a uses endpoint
// a mod len(endpoints), so retries rotate primary, replica, primary,
// ... — a dead worker costs one failed attempt before its replica
// answers. writeOnly restricts the rotation to the primary (updates
// must not be applied on a replica; it receives them via WAL
// shipping). fn runs at most once per attempt and must be idempotent
// from the partition's point of view — every routed read is.
func (r *Router) withEndpoint(p int, writeOnly bool, fn func(conn net.Conn) error) error {
	eps := r.parts[p].Endpoints
	if writeOnly {
		eps = eps[:1]
	}
	attempts := r.retries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.loop.Counters[wire.StatRouterRetries].Add(1)
			r.partRetries[p].Add(1)
			if r.backoff > 0 {
				sleep := r.backoff << uint(a-1)
				if sleep > maxBackoff {
					sleep = maxBackoff
				}
				time.Sleep(sleep)
			}
		}
		addr := eps[a%len(eps)]
		if a%len(eps) != 0 {
			r.loop.Counters[wire.StatRouterFailovers].Add(1)
			r.partFailovers[p].Add(1)
		}
		conn, err := r.getConn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		if r.deadline > 0 {
			_ = conn.SetDeadline(time.Now().Add(r.deadline))
		}
		err = fn(conn)
		if err == nil {
			_ = conn.SetDeadline(time.Time{})
			r.putConn(addr, conn)
			return nil
		}
		var pe *peerError
		if errors.As(err, &pe) {
			// The partition answered; the connection is still in frame
			// sync and reusable. Relay without retrying.
			_ = conn.SetDeadline(time.Time{})
			r.putConn(addr, conn)
			return err
		}
		conn.Close()
		lastErr = err
	}
	return fmt.Errorf("cluster: partition %d unavailable after %d attempts: %w", p, attempts, lastErr)
}

// scatter runs fn once per partition in ps concurrently (each under
// withEndpoint's retry/failover policy) and returns the first error.
// A nil ps scatters to every partition.
func (r *Router) scatter(ps []int, writeOnly bool, fn func(p int, conn net.Conn) error) error {
	if ps == nil {
		ps = make([]int, r.n)
		for p := range ps {
			ps[p] = p
		}
	}
	if len(ps) == 1 {
		p := ps[0]
		return r.withEndpoint(p, writeOnly, func(c net.Conn) error { return fn(p, c) })
	}
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			errs[i] = r.withEndpoint(p, writeOnly, func(c net.Conn) error { return fn(p, c) })
		}(i, p)
	}
	wg.Wait()
	// Prefer a peer refusal over a transport failure: it carries the
	// partition's own diagnosis and is what the client should see.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var pe *peerError
		if errors.As(err, &pe) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// Serve accepts client connections until the listener closes, each in
// its own goroutine; a clean shutdown returns nil.
func (r *Router) Serve(l net.Listener) error {
	return r.loop.Serve(l)
}

// ServeConn serves the protocol on one already-established transport,
// for in-process wiring and tests.
func (r *Router) ServeConn(conn net.Conn) error {
	return r.loop.ServeConn(context.Background(), conn, conn)
}

// Shutdown closes the listeners, waits for in-flight requests (up to
// ctx), then closes every client and pooled worker connection. Requests
// draining meanwhile reuse pooled connections but dial no new ones.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	r.shutdown = true
	r.mu.Unlock()
	err := r.loop.Shutdown(ctx)
	r.mu.Lock()
	for addr, cs := range r.pool {
		for _, c := range cs {
			c.Close()
		}
		delete(r.pool, addr)
	}
	r.mu.Unlock()
	return err
}
