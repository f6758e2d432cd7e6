// Command prost-serve loads an N-Triples dataset into PRoST and serves
// SPARQL queries over HTTP, exercising the concurrent execution path:
// plans are cached and shared read-only across requests, every query
// runs its tasks on at most GOMAXPROCS workers (cluster.Run), and an
// in-flight semaphore caps concurrently executing queries.
//
// Usage:
//
//	prost-serve -in dataset.nt -addr :8080
//	curl 'localhost:8080/sparql?query=SELECT+?s+WHERE+{...}'
//	curl 'localhost:8080/sparql?format=tsv' --data-binary @query.sparql
//	curl 'localhost:8080/explain?query=...'
//	curl 'localhost:8080/stats'
//
// Endpoints:
//
//	/sparql   execute a query (?query=… or POST body); JSON results by
//	          default, TSV with ?format=tsv; per-request ?planner=,
//	          ?strategy= and ?streaming= overrides. Streaming
//	          queries write results incrementally (chunked transfer
//	          with periodic flushes) and report first-row latency and
//	          peak intermediate memory in the response stats
//	/explain  physical plan with estimated vs actual cardinalities,
//	          estimation-error summary, Join Tree and stage trace
//	          (?analyze=0 plans without executing)
//	/stats    plan-cache hit rate, query counters, estimation-error
//	          aggregates and fault-recovery / degradation counters as
//	          JSON
//	/healthz  liveness probe
//	/readyz   readiness probe (503 while draining or breaker-open)
//
// The server degrades gracefully: requests over -max-inflight are shed
// with 503 + Retry-After instead of queueing, a circuit breaker trips
// /sparql to fast 503s when the execution-failure rate crosses its
// threshold (half the executions of the last 30 s, once there are five)
// and admits one probe at a time after a 5 s cooldown (a probe out for
// another 5 s is superseded by the next query), and SIGTERM
// drains in-flight queries (up to -drain-timeout) before exiting 0. A
// client slower than readHeaderTimeout or readTimeout loses its connection.
// The -fault-* flags inject a deterministic fault schedule into the
// simulated cluster to exercise recovery end to end.
//
// With -shard-addrs the server runs as a scale-out coordinator:
// planning, shuffle routing and stage pricing stay local, while scan
// and exchange kernels execute on prost-shard worker processes over
// TCP. Results and simulated times match single-process execution
// exactly; /stats gains a network block with per-shard traffic, RTT
// quantiles and the cost model's network-price calibration error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/cliflag"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
)

// options carries the parsed command line; the shared flag sets are
// the functions cliflag handed out for them.
type options struct {
	in, addr        string
	shardAddrs      string
	inflight        int
	maxRows         int
	queryTimeout    time.Duration
	extvpBudget     int64
	extvpBuildAfter int
	drainTimeout    time.Duration

	cluster cluster.Config
	// query is the per-request default (?planner=, ?strategy= and
	// ?streaming= override it); its fault plan becomes the cluster's.
	query core.QueryOptions
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input N-Triples file (required)")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.shardAddrs, "shard-addrs", "", "comma-separated prost-shard addresses; set, the server runs as a scale-out coordinator delegating scan and exchange kernels to the shards (addresses in shard order: the i-th address must be the shard started with -shard i)")
	flag.IntVar(&o.inflight, "max-inflight", serve.DefaultMaxInflight, "maximum concurrently executing queries; overflow is shed with 503 + Retry-After")
	flag.IntVar(&o.maxRows, "max-rows", 0, "cap result rows per response (0 = unlimited)")
	flag.DurationVar(&o.queryTimeout, "query-timeout", 0, "per-query execution deadline; past it the query stops and the request returns 504 (0 = none)")
	flag.Int64Var(&o.extvpBudget, "extvp-budget", 0, "byte budget for workload-driven ExtVP semi-join tables; the query that makes a join pair hot materializes its reductions, and later queries are rewritten onto them (0 = subsystem off)")
	flag.IntVar(&o.extvpBuildAfter, "extvp-build-after", 0, "feedback observations of a join pair before its reduction is built (0 = default)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 15*time.Second, "on SIGTERM, how long to wait for in-flight queries before exiting")
	clusterCfg := cliflag.Cluster(flag.CommandLine)
	query := cliflag.Query(flag.CommandLine)
	flag.Parse()

	o.cluster = clusterCfg()
	var err error
	if o.query, err = query(); err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prost-serve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	// The fault schedule is the cluster's — refused at start-up when
	// invalid, inherited by every query — not a per-query override.
	cfg, qopts := o.cluster, o.query
	cfg.Faults, qopts.Faults = qopts.Faults, nil
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loading %s…\n", o.in)
	store, err := core.LoadNTriples(f, core.Options{
		Cluster:         c,
		BuildInversePT:  qopts.Strategy == core.StrategyMixedIPT,
		ExtVPBudget:     o.extvpBudget,
		ExtVPBuildAfter: o.extvpBuildAfter,
	})
	if err != nil {
		return err
	}
	rep := store.LoadReport()
	fmt.Fprintf(os.Stderr, "loaded %d triples (%d VP tables, %d PT columns) in %v wall\n",
		rep.Triples, rep.VPTables, rep.PTColumns, rep.WallTime)
	if js, ok := store.Stats().JoinStatsSummary(); ok {
		fmt.Fprintf(os.Stderr, "join statistics: %d csets, %d/%d pair sketches (top-%d, %.1f%% volume coverage)\n",
			js.CSets, js.SketchPairs, js.CandidatePairs, js.TopK, 100*js.VolumeCoverage)
	}
	if o.extvpBudget > 0 {
		fmt.Fprintf(os.Stderr, "ExtVP enabled: %.2f MiB budget for workload-driven semi-join tables\n",
			float64(o.extvpBudget)/(1<<20))
	}
	if fp := c.Config().Faults; fp != nil {
		fmt.Fprintf(os.Stderr, "fault injection active: seed %d, fail %.2f, straggle %.2f, corrupt %.2f\n",
			fp.Seed, fp.FailRate, fp.StragglerRate, fp.CorruptRate)
	}

	// Coordinator mode: dial the shards after loading (they verify the
	// topology and statistics fingerprint during the handshake) and
	// route every query's kernels through them.
	if o.shardAddrs != "" {
		addrs := strings.Split(o.shardAddrs, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		coord, err := shard.Dial(store, addrs)
		if err != nil {
			return fmt.Errorf("dialing shards: %w", err)
		}
		defer coord.Close()
		qopts.Dist = coord
		fmt.Fprintf(os.Stderr, "coordinating %d shards: %s\n", len(addrs), strings.Join(addrs, ", "))
	}

	srv, err := serve.New(serve.Config{
		Store:        store,
		Options:      qopts,
		MaxInflight:  o.inflight,
		MaxRows:      o.maxRows,
		QueryTimeout: o.queryTimeout,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving on %s (strategy %s, planner %s, max in-flight %d)\n",
		o.addr, qopts.Strategy, qopts.Planner, o.inflight)

	// Graceful shutdown: SIGTERM/interrupt stops admitting queries,
	// drains in-flight ones for up to -drain-timeout, then exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := newHTTPServer(o.addr, srv)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintf(os.Stderr, "signal received, draining in-flight queries (up to %v)…\n", o.drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "prost-serve:", err)
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Fprintln(os.Stderr, "drained; bye")
		return nil
	}
}

// A client must send a request's headers within readHeaderTimeout and all
// of it within readTimeout. Neither bounds the handler (-query-timeout):
// once the body has been read, net/http clears the connection's read
// deadline before it watches for the client going away.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
)

// newHTTPServer returns the server prost-serve listens with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}
