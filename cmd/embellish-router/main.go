// Command embellish-router fronts a partitioned embellish cluster: it
// serves the UNCHANGED client wire protocol and scatter-gathers every
// request across partition worker processes (cmd/embellish-server),
// with per-partition deadlines, bounded retry and failover to read
// replicas when a worker dies mid-request. Clients talk to the router
// exactly as they would to a single server — same frames, same
// byte-identical rankings and fetched documents.
//
// Usage:
//
//	embellish-router -listen :7979 -base N
//	                 -partition addr[,replica...] [-partition ...]
//	                 [-deadline D] [-retries N] [-backoff D]
//	                 [-idle-timeout D] [-metrics ADDR] [-once]
//
// Each -partition flag names one shard: the primary address first,
// then any read replicas, comma-separated. The flag order defines the
// partition numbering and must be identical across router restarts —
// document ownership is (id-base) mod npartitions over that order.
// -base is the template corpus size: the number of documents in the
// shared engine file every worker loaded (see docs/ARCHITECTURE.md,
// "Cluster tier"). -metrics serves the router's counters over HTTP and,
// like embellish-server's, the runtime's profiles under /debug/pprof/,
// so bind it to loopback. See docs/OPERATIONS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"embellish/internal/cluster"
)

// partitionList collects repeated -partition flags.
type partitionList []cluster.Partition

func (p *partitionList) String() string {
	var parts []string
	for _, part := range *p {
		parts = append(parts, strings.Join(part.Endpoints, ","))
	}
	return strings.Join(parts, " ")
}

func (p *partitionList) Set(v string) error {
	var eps []string
	for _, e := range strings.Split(v, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		eps = append(eps, e)
	}
	if len(eps) == 0 {
		return fmt.Errorf("empty partition spec")
	}
	*p = append(*p, cluster.Partition{Endpoints: eps})
	return nil
}

func main() {
	var parts partitionList
	var (
		listen      = flag.String("listen", "127.0.0.1:7979", "TCP listen address")
		base        = flag.Int("base", 0, "template corpus size shared by every partition")
		deadline    = flag.Duration("deadline", cluster.DefaultDeadline, "per-partition attempt deadline (negative disables)")
		retries     = flag.Int("retries", cluster.DefaultRetries, "retry attempts per partition request (negative disables)")
		backoff     = flag.Duration("backoff", cluster.DefaultBackoff, "initial retry backoff, doubled per attempt (negative disables)")
		idle        = flag.Duration("idle-timeout", 5*time.Minute, "close client connections idle longer than this (0 never)")
		metricsAddr = flag.String("metrics", "", "HTTP listen address for /metrics and /debug/pprof/ (empty off)")
		once        = flag.Bool("once", false, "serve a single connection and exit (for scripting)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	)
	flag.Var(&parts, "partition", "one shard: primary[,replica...] (repeat per partition; order is the partition numbering)")
	flag.Parse()

	if len(parts) == 0 {
		fatal(fmt.Errorf("at least one -partition is required"))
	}
	r, err := cluster.NewRouter(cluster.Config{
		Base:        *base,
		Partitions:  parts,
		Deadline:    *deadline,
		Retries:     *retries,
		Backoff:     *backoff,
		IdleTimeout: *idle,
	})
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("routing %d partitions (base %d) on %s\n", len(parts), *base, l.Addr())
	for p, part := range parts {
		fmt.Printf("  partition %d: %s\n", p, strings.Join(part.Endpoints, " -> "))
	}

	if *once {
		conn, err := l.Accept()
		if err != nil {
			fatal(err)
		}
		if err := r.ServeConn(conn); err != nil {
			fatal(err)
		}
		conn.Close()
		return
	}

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write(r.MetricsText())
		})
		// The profiles embellish-server mounts: where a routed request's
		// time goes between scatter, partition waits and gather. Code paths
		// and durations, never a term, document or bucket id; bind the
		// listener to loopback all the same.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go http.Serve(ml, mux)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- r.Serve(l) }()
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case sig := <-sigs:
		fmt.Printf("received %v, draining (deadline %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		go func() {
			<-sigs
			cancel()
		}()
		if err := r.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "embellish-router: shutdown:", err)
		}
		cancel()
	}
	st := r.Stats()
	fmt.Printf("router: %d queries, %d updates, %d retrievals, %d errors; %d retries, %d failovers\n",
		st.Queries, st.Updates, st.Retrievals, st.Errors, st.Retries, st.Failovers)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "embellish-router:", err)
	os.Exit(1)
}
