// Package serve implements prost-serve's HTTP layer: a SPARQL query
// endpoint over a loaded PRoST store, built to exercise the concurrent
// execution path for real. Every request runs Store.QueryIDs directly —
// cached plans are shared read-only across in-flight requests, each
// execution schedules its plan DAG on its own bounded worker pool, and
// an in-flight semaphore caps how many queries execute at once.
//
// Endpoints:
//
//	GET|POST /sparql   — execute a query (?query=… or POST body),
//	                     JSON results by default, TSV with ?format=tsv;
//	                     ?streaming=1 routes it through the morsel
//	                     executor and the response body is flushed to
//	                     the client in row chunks as it is written;
//	                     every parameter is validated before anything
//	                     executes (400, or 413 for a POST body over
//	                     1 MiB)
//	GET      /explain  — physical plan, estimation errors, the
//	                     correction made / feedback provenance, Join
//	                     Tree and stage trace (?analyze=0 plans only)
//	GET      /stats    — plan-cache hit rate (incl. feedback hits),
//	                     the correction counter, query counters,
//	                     estimation-error aggregates and the resilience
//	                     block (fault recovery, breaker, shed), as JSON;
//	                     running as a shard coordinator adds a network
//	                     block (exchanges, bytes each way, per-shard
//	                     RTT p50/p99, calibration error)
//	GET      /healthz  — liveness probe (200 as long as the process
//	                     can serve HTTP at all)
//	GET      /readyz   — readiness probe: 503 while draining or while
//	                     the circuit breaker is open
//
// Config.QueryTimeout bounds each query's execution; a query past the
// deadline stops at the next operator boundary and the request
// returns 504 with partial trace info. A query that exhausts its task
// attempts under fault injection returns 500 with its attempt trace —
// the two are counted separately (queries.timeouts vs queries.failed).
//
// The server degrades instead of collapsing: queries over the
// in-flight bound are shed immediately with 503 + Retry-After rather
// than queued, and a sliding-window circuit breaker trips /sparql to
// fast 503s when the execution-failure rate crosses its threshold.
// Drain stops admitting queries while letting in-flight ones finish,
// for graceful SIGTERM shutdown.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// DefaultMaxInflight caps concurrently executing queries when
// Config.MaxInflight is zero.
const DefaultMaxInflight = 32

// Config assembles a Server.
type Config struct {
	// Store is the loaded PRoST database. Required.
	Store *core.Store
	// Options are the base query options every request starts from;
	// the strategy and planner can be overridden per request.
	Options core.QueryOptions
	// MaxInflight bounds concurrently executing queries; requests over
	// the bound wait their turn (0 = DefaultMaxInflight).
	MaxInflight int
	// MaxRows caps the rows returned per query (0 = unlimited).
	MaxRows int
	// QueryTimeout bounds each query's wall-clock execution; a query
	// past the deadline stops at the next plan-operator boundary and
	// the request returns 504 with partial trace info (how much of the
	// plan had executed). 0 means no timeout.
	QueryTimeout time.Duration
}

// Server is the prost-serve HTTP handler. It is safe for concurrent
// use by the standard library's server.
type Server struct {
	cfg Config
	mux *http.ServeMux
	sem chan struct{}
	brk *breaker

	// shed counts requests rejected without executing: in-flight
	// overflow, open breaker, draining.
	shed atomic.Uint64

	// drainMu guards the drain state and the in-flight request count.
	drainMu  sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // closed when inflight drops to 0 during drain

	mu         sync.Mutex
	queries    uint64
	errors     uint64
	timeouts   uint64
	failed     uint64
	simTotal   time.Duration
	wallTotal  time.Duration
	streamed   uint64
	downgraded uint64
	firstTotal time.Duration
	peakMax    int64
	estObs     uint64
	estSum     float64
	estMax     float64
	estMaxNode string
}

// New validates the configuration and returns a ready handler.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		sem: make(chan struct{}, cfg.MaxInflight),
		brk: newBreaker(),
	}
	s.mux.HandleFunc("/sparql", s.handleSPARQL)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness only: stays 200 while draining or tripped so the
		// process is not killed mid-drain; readiness is /readyz.
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// handleReadyz is the readiness probe: not ready while draining or
// while the breaker is open (load balancers should route elsewhere),
// ready otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if st := s.brk.stateName(); st == "open" {
		http.Error(w, "circuit breaker open", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// beginRequest admits a query into the in-flight count, or refuses it
// while draining.
func (s *Server) beginRequest() error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return unavailable{msg: "draining: server is shutting down", retryAfter: time.Second}
	}
	s.inflight++
	return nil
}

// endRequest retires a query and wakes a pending Drain when the last
// one finishes.
func (s *Server) endRequest() {
	s.drainMu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.drainMu.Unlock()
}

// Drain stops admitting new queries (they are shed with 503; /readyz
// reports not-ready) and blocks until every in-flight query has
// finished or ctx expires. Safe to call once during shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	var idle chan struct{}
	if s.inflight > 0 {
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		idle = s.idle
	}
	s.drainMu.Unlock()
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.drainMu.Lock()
		n := s.inflight
		s.drainMu.Unlock()
		return fmt.Errorf("drain: %d queries still in flight: %w", n, ctx.Err())
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// maxQueryBytes bounds a POSTed query text; a longer body is a 413.
const maxQueryBytes = 1 << 20

// request is one /sparql or /explain request, validated in full before
// anything executes.
type request struct {
	query *sparql.Query
	opts  core.QueryOptions
	tsv   bool // format=tsv (or Accept) rather than JSON
}

// queryParams parses the request's URL parameters — once; everything
// downstream takes the parsed values. A query string url.ParseQuery
// rejects is answered here (400 naming the error, counted as an errored
// query) and nil returned.
func (s *Server) queryParams(w http.ResponseWriter, r *http.Request) url.Values {
	params, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		s.mu.Lock()
		s.queries++
		s.errors++
		s.mu.Unlock()
		writeError(w, badRequest{fmt.Errorf("malformed query string: %w", err), http.StatusBadRequest})
		return nil
	}
	return params
}

// parseRequest resolves a request's query text (?query= or the POST
// body), per-request planner/strategy/streaming overrides on top of the
// configured base options, and result format. Every failure is the
// caller's: a badRequest carrying the status to answer with.
func (s *Server) parseRequest(r *http.Request, params url.Values) (req request, err error) {
	req.opts = s.cfg.Options
	bad := func(err error) (request, error) { return request{}, badRequest{err, http.StatusBadRequest} }

	text := params.Get("query")
	if text == "" && r.Method == http.MethodPost {
		b, rerr := io.ReadAll(io.LimitReader(r.Body, maxQueryBytes+1))
		if rerr != nil {
			return bad(rerr)
		}
		if len(b) > maxQueryBytes {
			return request{}, badRequest{fmt.Errorf("query text exceeds %d bytes", maxQueryBytes), http.StatusRequestEntityTooLarge}
		}
		text = string(b)
	}
	if text == "" {
		return bad(fmt.Errorf("missing query: pass ?query=… or POST the query text"))
	}

	if v := params.Get("planner"); v != "" {
		if req.opts.Planner, err = plan.ParseMode(v); err != nil {
			return bad(err)
		}
	}
	if v := params.Get("strategy"); v != "" {
		strat, err := core.ParseStrategy(v)
		if err != nil {
			return bad(err)
		}
		if strat == core.StrategyMixedIPT && s.cfg.Store.InversePropertyTable() == nil {
			return bad(fmt.Errorf("strategy %q requires a store loaded with the inverse property table (start prost-serve with -strategy mixed+ipt)", v))
		}
		req.opts.Strategy = strat
	}
	// ?streaming= is validated whenever the key is present: an empty or
	// malformed value is a 400, not a silent no-op the caller mistakes
	// for having taken effect.
	if params.Has("streaming") {
		v := params.Get("streaming")
		if req.opts.Streaming, err = strconv.ParseBool(v); err != nil {
			return bad(fmt.Errorf("invalid streaming=%q: want a boolean (1, 0, true, false)", v))
		}
	}
	format := params.Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/tab-separated-values") {
		format = "tsv"
	}
	switch format {
	case "tsv":
		req.tsv = true
	case "", "json":
	default:
		return bad(fmt.Errorf("unknown format %q (valid formats: json, tsv)", format))
	}

	if req.query, err = sparql.Parse(text); err != nil {
		return bad(err)
	}
	return req, nil
}

// runQuery validates and executes one request's query inside the
// in-flight bound, recording the server-level counters (failed
// requests — bad parameters, parse errors, execution errors — count
// as errors; deadline-exceeded queries additionally count as
// timeouts, permanently failed or otherwise broken executions as
// failed). Shed requests (open breaker, draining, in-flight overflow)
// are rejected before executing and counted only in shedRequests.
func (s *Server) runQuery(r *http.Request, params url.Values) (*core.Result, core.IDRows, request, error) {
	ok, probe := s.brk.allow()
	if !ok {
		s.shed.Add(1)
		return nil, core.IDRows{}, request{}, unavailable{
			msg:        "circuit breaker open: shedding load until the store recovers",
			retryAfter: breakerCooldown,
		}
	}
	// A probe that records has already freed its slot; any other way
	// out (shed, bad request, panic) frees it here.
	defer s.brk.abandon(probe)
	if err := s.beginRequest(); err != nil {
		s.shed.Add(1)
		return nil, core.IDRows{}, request{}, err
	}
	defer s.endRequest()

	res, rows, req, err := s.doQuery(r, params)

	var ua unavailable
	if errors.As(err, &ua) {
		// Shed at the in-flight bound: never executed, so neither a
		// query counter nor a breaker sample.
		s.shed.Add(1)
		return nil, core.IDRows{}, request{}, err
	}
	var br badRequest
	isBad := errors.As(err, &br)
	if !isBad {
		// Only execution outcomes are evidence about store health.
		s.brk.record(err != nil, probe)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	if err != nil {
		s.errors++
		if errors.Is(err, context.DeadlineExceeded) {
			s.timeouts++
		} else if !isBad {
			s.failed++
		}
		return nil, core.IDRows{}, request{}, err
	}
	s.simTotal += res.SimTime
	s.wallTotal += res.WallTime
	if res.Streamed {
		s.streamed++
		s.firstTotal += res.FirstRow
	}
	if res.StreamingDowngraded {
		s.downgraded++
	}
	if res.PeakMemBytes > s.peakMax {
		s.peakMax = res.PeakMemBytes
	}
	if ratio, at := res.Plan.MaxErrorRatio(); at != nil {
		s.estObs++
		s.estSum += ratio
		if ratio > s.estMax {
			s.estMax = ratio
			s.estMaxNode = at.Op.String()
			if at.Label != "" {
				s.estMaxNode += " " + at.Label
			}
		}
	}
	return res, rows, req, nil
}

// badRequest marks an error as the caller's fault (malformed query or
// parameters) and carries the 4xx status it renders as; everything else
// renders as a server error.
type badRequest struct {
	err    error
	status int
}

func (e badRequest) Error() string { return e.err.Error() }

// unavailable marks a request shed without executing (overflow, open
// breaker, draining); it renders as 503 with a Retry-After hint.
type unavailable struct {
	msg        string
	retryAfter time.Duration
}

func (e unavailable) Error() string { return e.msg }

// errStatus maps an error to its HTTP status: 400 for caller mistakes
// (413 for an oversized body), 503 for shed load, 504 for queries
// stopped at their deadline, 500 for other execution failures
// (including fault-exhausted tasks, whose *core.TaskFailedError body
// carries the attempt trace), so retry policies and monitoring can tell
// them apart.
func errStatus(err error) int {
	var br badRequest
	if errors.As(err, &br) {
		return br.status
	}
	var ua unavailable
	if errors.As(err, &ua) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// writeError renders an error response, attaching Retry-After to shed
// requests so well-behaved clients back off.
func writeError(w http.ResponseWriter, err error) {
	var ua unavailable
	if errors.As(err, &ua) {
		secs := int(ua.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	http.Error(w, err.Error(), errStatus(err))
}

// doQuery is runQuery without the bookkeeping. The query runs through
// Store.QueryIDs, so its rows come back as IDs copied out of the query's
// region, not decoded: the in-flight slot is free again before a byte
// of the body is written, and writeResult decodes each cell once, into
// the pooled encoder's storage. With a configured
// QueryTimeout the execution runs under a deadline; a timed-out query
// returns a *core.CancelError whose message carries the partial trace
// info (completed vs scheduled plan tasks) the 504 body reports.
func (s *Server) doQuery(r *http.Request, params url.Values) (*core.Result, core.IDRows, request, error) {
	req, err := s.parseRequest(r, params)
	if err != nil {
		return nil, core.IDRows{}, request{}, err
	}
	// Shed instead of queue: a request over the in-flight bound gets an
	// immediate 503 + Retry-After, keeping latency bounded under
	// overload instead of building an invisible queue.
	select {
	case s.sem <- struct{}{}:
	default:
		return nil, core.IDRows{}, request{}, unavailable{
			msg:        fmt.Sprintf("over capacity: %d queries already executing", cap(s.sem)),
			retryAfter: time.Second,
		}
	}
	defer func() { <-s.sem }()
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	res, rows, err := s.cfg.Store.QueryIDs(ctx, req.query, req.opts)
	return res, rows, req, err
}

// sparqlStats is the /sparql response's execution record. The
// streaming-only fields report the morsel executor's two extra
// metrics: when the first result row reached the driver, and the
// simulated intermediate-memory high-water mark.
type sparqlStats struct {
	Rows         int     `json:"rows"`
	Truncated    bool    `json:"truncated,omitempty"`
	SimMS        float64 `json:"simMs"`
	WallMS       float64 `json:"wallMs"`
	Streamed     bool    `json:"streamed,omitempty"`
	FirstRowMS   float64 `json:"firstRowMs,omitempty"`
	PeakMemBytes int64   `json:"peakMemBytes,omitempty"`
	// Ordered reports that the bindings are in the query's ORDER BY
	// order rather than the server's display sort.
	Ordered bool `json:"ordered,omitempty"`
	// StreamingDowngraded reports that ?streaming=1 was requested but
	// the query ran materialized anyway — the sharded coordinator path
	// executes only under the materialized scheduler.
	StreamingDowngraded bool `json:"streamingDowngraded,omitempty"`
}

// flushEveryRows is how many result rows a streamed /sparql response
// writes between http.Flusher flushes, in both formats.
const flushEveryRows = 256

// handleSPARQL answers a query with the W3C SPARQL results layout plus
// a stats block (JSON), or with tab-separated N-Triples terms (TSV).
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	params := s.queryParams(w, r)
	if params == nil {
		return
	}
	res, rows, req, err := s.runQuery(r, params)
	if err != nil {
		writeError(w, err)
		return
	}
	s.writeResult(w, res, rows, req.tsv)
}

// writeResult renders a result as the response body: the rows it shows
// — the first MaxRows when that is set — are decoded into the pooled
// encoder's rows, in display order (core.DisplayRows: ORDER BY results
// as the query ordered them, everything else sorted for stable output),
// then encoded by the append encoders of encode.go into one pooled
// buffer, which is written out whenever it passes writeChunkBytes. A streamed query's rows are also
// flushed to the client every flushEveryRows, so consumers see results
// while the body is still being written (the HTTP analogue of the
// executor's first-row latency).
func (s *Server) writeResult(w http.ResponseWriter, res *core.Result, rows core.IDRows, tsv bool) {
	enc := encoderPool.Get().(*respEncoder)
	defer enc.release()
	enc.rows.Decode(rows, res.Ordered, s.cfg.MaxRows)
	n := enc.rows.Len()
	truncated := n < rows.Len()

	enc.buf = enc.buf[:0]
	if tsv {
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
		enc.buf = appendTSVHead(enc.buf, res.Vars)
	} else {
		w.Header().Set("Content-Type", "application/json")
		enc.setVars(res.Vars)
		enc.buf = appendJSONHead(enc.buf, res.Vars)
	}
	flusher, _ := w.(http.Flusher)
	for i := range n {
		row := enc.rows.Row(i)
		if tsv {
			enc.buf = appendTSVRow(enc.buf, row)
		} else {
			enc.buf = enc.appendJSONRow(enc.buf, i == 0, row)
		}
		flush := res.Streamed && flusher != nil && (i+1)%flushEveryRows == 0
		if flush || len(enc.buf) >= writeChunkBytes {
			if _, err := w.Write(enc.buf); err != nil {
				return // the client is gone
			}
			enc.buf = enc.buf[:0]
			if flush {
				flusher.Flush()
			}
		}
	}
	if !tsv {
		st := sparqlStats{
			Rows:                rows.Len(),
			Truncated:           truncated,
			SimMS:               float64(res.SimTime) / float64(time.Millisecond),
			WallMS:              float64(res.WallTime) / float64(time.Millisecond),
			Streamed:            res.Streamed,
			PeakMemBytes:        res.PeakMemBytes,
			Ordered:             res.Ordered,
			StreamingDowngraded: res.StreamingDowngraded,
		}
		if res.Streamed {
			st.FirstRowMS = float64(res.FirstRow) / float64(time.Millisecond)
		}
		stats, _ := json.Marshal(st) // no field of sparqlStats can fail to encode
		enc.buf = append(enc.buf, "\n]},\"stats\":"...)
		enc.buf = append(enc.buf, stats...)
		enc.buf = append(enc.buf, "}\n"...)
	}
	_, _ = w.Write(enc.buf) // nothing left to do for a client that is gone
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	params := s.queryParams(w, r)
	if params == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	analyze := true
	if params.Has("analyze") {
		v := params.Get("analyze")
		on, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("invalid analyze=%q: want a boolean (1, 0, true, false)", v), http.StatusBadRequest)
			return
		}
		analyze = on
	}
	if !analyze {
		// Plan only: translate and build (through the plan cache is
		// pointless here — Plan is pure), no execution, so actuals
		// render as "?" and the error summary reports not-executed.
		req, err := s.parseRequest(r, params)
		if err != nil {
			writeError(w, err)
			return
		}
		pl, err := s.cfg.Store.Plan(req.query, req.opts)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprint(w, pl.String())
		fmt.Fprintln(w, pl.ErrorSummary())
		return
	}
	res, rows, _, err := s.runQuery(r, params)
	if err != nil {
		writeError(w, err)
		return
	}
	fmt.Fprint(w, res.Plan.String())
	fmt.Fprintln(w, res.Plan.ErrorSummary())
	if adaptive := res.ReplanSummary(); adaptive != "" {
		fmt.Fprint(w, adaptive)
	}
	if ws := res.Plan.RewriteSummary(); ws != "" {
		fmt.Fprint(w, ws)
	}
	if rs := res.Resilience.String(); rs != "" {
		fmt.Fprint(w, rs)
	}
	fmt.Fprintf(w, "\n%d rows; simulated cluster time %v (wall %v)\n", rows.Len(), res.SimTime, res.WallTime)
	if res.Streamed {
		fmt.Fprintf(w, "streamed: first row at %v; peak intermediate footprint %d B\n", res.FirstRow, res.PeakMemBytes)
	}
	fmt.Fprintln(w, "\nJoin Tree:")
	fmt.Fprint(w, res.Tree.String())
	fmt.Fprintln(w, "\nStage trace:")
	fmt.Fprint(w, res.Clock.Trace())
}

// statsResponse is the /stats JSON document.
type statsResponse struct {
	PlanCache struct {
		Hits             uint64  `json:"hits"`
		Misses           uint64  `json:"misses"`
		Evictions        uint64  `json:"evictions"`
		Entries          int     `json:"entries"`
		HitRate          float64 `json:"hitRate"`
		FeedbackHits     uint64  `json:"feedbackHits"`
		CorrectedEntries int     `json:"correctedEntries"`
	} `json:"planCache"`
	Queries struct {
		Total uint64 `json:"total"`
		// Errors counts every errored query; Timeouts the subset stopped
		// at their deadline (504), Failed the subset broken by execution
		// itself — e.g. a task that exhausted its fault-injection attempt
		// budget (500).
		Errors   uint64  `json:"errors"`
		Timeouts uint64  `json:"timeouts"`
		Failed   uint64  `json:"failed"`
		AvgSimMS float64 `json:"avgSimMs"`
		AvgWall  float64 `json:"avgWallMs"`
		// Streamed counts queries answered by the morsel-driven
		// streaming executor; AvgFirstRowMS averages their simulated
		// first-row latency, and MaxPeakMemBytes is the largest
		// intermediate-memory high-water mark seen on any query in
		// either execution mode.
		Streamed        uint64  `json:"streamed"`
		AvgFirstRowMS   float64 `json:"avgFirstRowMs"`
		MaxPeakMemBytes int64   `json:"maxPeakMemBytes"`
		// StreamingDowngraded counts queries that requested streaming
		// but ran on the materialized scheduler (sharded coordinator
		// mode) — a downgrade the response also reports per-query in its
		// stats block.
		StreamingDowngraded uint64 `json:"streamingDowngraded"`
	} `json:"queries"`
	// Resilience is the store's recovery record totalled across queries
	// (its JSON tags are the object's leading keys) plus the server's
	// own degradation state.
	Resilience struct {
		cluster.Recovery
		BreakerState string `json:"breakerState"`
		ShedRequests uint64 `json:"shedRequests"`
	} `json:"resilience"`
	// Adaptive counts cache entries corrected from an execution's
	// observed cardinalities.
	Adaptive struct {
		Corrections uint64 `json:"corrections"`
	} `json:"adaptive"`
	Estimation struct {
		Observed  uint64  `json:"observed"`
		AvgRatio  float64 `json:"avgMaxRatio"`
		WorstCase float64 `json:"worstRatio"`
		WorstNode string  `json:"worstNode,omitempty"`
		// Estimate provenance across all built plans: how many scan/join
		// estimates came from characteristic sets, pair sketches, the
		// independence fallback, a materialized ExtVP reduction's exact
		// count, or an observed cardinality seeded by an earlier query.
		CSetNodes     uint64 `json:"csetNodes"`
		SketchNodes   uint64 `json:"sketchNodes"`
		IndepNodes    uint64 `json:"indepNodes"`
		ExtVPNodes    uint64 `json:"extvpNodes"`
		ObservedNodes uint64 `json:"observedNodes"`
	} `json:"estimation"`
	// Workload reports the workload model driving ExtVP semi-join
	// materialization: mined pair/scan observations, the live reduction
	// set against its byte budget, and how often executions scanned a
	// reduction instead of a full VP table.
	Workload struct {
		Enabled       bool   `json:"enabled"`
		PairsTracked  int    `json:"pairsTracked"`
		Observations  int    `json:"observations"`
		TablesBuilt   uint64 `json:"tablesBuilt"`
		TablesEvicted uint64 `json:"tablesEvicted"`
		TablesLive    int    `json:"tablesLive"`
		TableBytes    int64  `json:"tableBytes"`
		BudgetBytes   int64  `json:"budgetBytes"`
		HitCount      uint64 `json:"hitCount"`
		Epoch         uint64 `json:"epoch"`
	} `json:"workload"`
	// Network reports distributed-execution traffic when the server runs
	// as a shard coordinator (Options.Dist set): wire exchange counts,
	// bytes each way, per-shard round-trip quantiles and how far the
	// cost model's network prices sit from measured payloads. Omitted in
	// single-process mode.
	Network *networkBlock `json:"network,omitempty"`
	// JoinStats summarizes the loader's join-graph statistics: size,
	// memory footprint, and how much of the candidate pair volume the
	// kept top-K sketches cover — the number that explains why a pair
	// fell back to independence.
	JoinStats struct {
		Collected      bool    `json:"collected"`
		CSets          int     `json:"csets"`
		SketchPairs    int     `json:"sketchPairs"`
		CandidatePairs int     `json:"candidatePairs"`
		TopK           int     `json:"topK"`
		VolumeCoverage float64 `json:"volumeCoverage"`
		MemoryBytes    int64   `json:"memoryBytes"`
	} `json:"joinStats"`
}

// networkBlock is /stats' distributed-execution section.
type networkBlock struct {
	Exchanges     int64           `json:"exchanges"`
	BytesSent     int64           `json:"bytesSent"`
	BytesReceived int64           `json:"bytesReceived"`
	Shards        []shardRTTBlock `json:"shards"`
	// CalibrationError is the mean |log2(measured/priced)| over priced
	// shuffle exchanges: 0 = the cost model prices network movement
	// exactly, 1 = off by 2x on average.
	CalibrationError    float64 `json:"calibrationError"`
	CalibratedExchanges int64   `json:"calibratedExchanges"`
}

// shardRTTBlock is one shard's round-trip latency summary in /stats.
type shardRTTBlock struct {
	Addr  string  `json:"addr"`
	Calls int64   `json:"calls"`
	P50MS float64 `json:"rttP50Ms"`
	P99MS float64 `json:"rttP99Ms"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var doc statsResponse
	m := s.cfg.Store.PlanCacheMetrics()
	doc.PlanCache.Hits = m.Hits
	doc.PlanCache.Misses = m.Misses
	doc.PlanCache.Evictions = m.Evictions
	doc.PlanCache.Entries = m.Entries
	doc.PlanCache.HitRate = m.HitRate()
	doc.PlanCache.FeedbackHits = m.FeedbackHits
	doc.PlanCache.CorrectedEntries = m.CorrectedEntries

	doc.Adaptive.Corrections = s.cfg.Store.AdaptiveMetrics().Corrections

	em := s.cfg.Store.EstSourceMetrics()
	doc.Estimation.CSetNodes = em.CSet
	doc.Estimation.SketchNodes = em.Sketch
	doc.Estimation.IndepNodes = em.Indep
	doc.Estimation.ExtVPNodes = em.ExtVP
	doc.Estimation.ObservedNodes = em.Observed

	wm := s.cfg.Store.WorkloadMetrics()
	doc.Workload.Enabled = s.cfg.Store.Workload() != nil
	doc.Workload.PairsTracked = wm.PairsTracked
	doc.Workload.Observations = wm.Observations
	doc.Workload.TablesBuilt = wm.TablesBuilt
	doc.Workload.TablesEvicted = wm.TablesEvicted
	doc.Workload.TablesLive = wm.TablesLive
	doc.Workload.TableBytes = wm.TableBytes
	doc.Workload.BudgetBytes = wm.BudgetBytes
	doc.Workload.HitCount = wm.HitCount
	doc.Workload.Epoch = wm.Epoch

	doc.Resilience.Recovery = s.cfg.Store.ResilienceMetrics()
	doc.Resilience.BreakerState = s.brk.stateName()
	doc.Resilience.ShedRequests = s.shed.Load()

	if nr, ok := s.cfg.Options.Dist.(core.NetworkReporter); ok {
		ns := nr.NetworkStats()
		nb := &networkBlock{
			Exchanges:           ns.Exchanges,
			BytesSent:           ns.BytesSent,
			BytesReceived:       ns.BytesReceived,
			CalibrationError:    ns.CalibrationError,
			CalibratedExchanges: ns.CalibratedExchanges,
		}
		for _, rtt := range ns.ShardRTT {
			nb.Shards = append(nb.Shards, shardRTTBlock{
				Addr:  rtt.Addr,
				Calls: rtt.Calls,
				P50MS: float64(rtt.P50) / float64(time.Millisecond),
				P99MS: float64(rtt.P99) / float64(time.Millisecond),
			})
		}
		doc.Network = nb
	}

	if js, ok := s.cfg.Store.Stats().JoinStatsSummary(); ok {
		doc.JoinStats.Collected = true
		doc.JoinStats.CSets = js.CSets
		doc.JoinStats.SketchPairs = js.SketchPairs
		doc.JoinStats.CandidatePairs = js.CandidatePairs
		doc.JoinStats.TopK = js.TopK
		doc.JoinStats.VolumeCoverage = js.VolumeCoverage
		doc.JoinStats.MemoryBytes = js.MemoryBytes
	}

	s.mu.Lock()
	doc.Queries.Total = s.queries
	doc.Queries.Errors = s.errors
	doc.Queries.Timeouts = s.timeouts
	doc.Queries.Failed = s.failed
	if ok := s.queries - s.errors; ok > 0 {
		doc.Queries.AvgSimMS = float64(s.simTotal) / float64(ok) / float64(time.Millisecond)
		doc.Queries.AvgWall = float64(s.wallTotal) / float64(ok) / float64(time.Millisecond)
	}
	doc.Queries.Streamed = s.streamed
	doc.Queries.StreamingDowngraded = s.downgraded
	if s.streamed > 0 {
		doc.Queries.AvgFirstRowMS = float64(s.firstTotal) / float64(s.streamed) / float64(time.Millisecond)
	}
	doc.Queries.MaxPeakMemBytes = s.peakMax
	doc.Estimation.Observed = s.estObs
	if s.estObs > 0 {
		doc.Estimation.AvgRatio = s.estSum / float64(s.estObs)
	}
	doc.Estimation.WorstCase = s.estMax
	doc.Estimation.WorstNode = s.estMaxNode
	s.mu.Unlock()

	writeJSON(w, doc)
}

// writeJSON renders v with an application/json content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
