package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/shard"
)

// testServer loads a small graph and wraps it in a Server.
func testServer(t *testing.T) *Server {
	t.Helper()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	g := rdf.NewGraph(0)
	add := func(s, p string, o rdf.Term) { g.AddSPO(iri(s), iri(p), o) }
	add("user0", "likes", iri("prodA"))
	add("user1", "likes", iri("prodA"))
	add("user1", "likes", iri("prodB"))
	add("user2", "likes", iri("prodB"))
	add("prodA", "hasGenre", iri("g1"))
	add("prodB", "hasGenre", iri("g2"))
	add("user0", "name", rdf.NewLiteral("alice"))

	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	store, err := core.Load(g, core.Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	srv, err := New(Config{Store: store, MaxInflight: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

const serveQuery = `SELECT ?u ?g WHERE {
	?u <http://example.org/likes> ?p .
	?p <http://example.org/hasGenre> ?g .
}`

func get(t *testing.T, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func TestSPARQLEndpointJSON(t *testing.T) {
	srv := testServer(t)
	w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var doc struct {
		Head    struct{ Vars []string }
		Results struct {
			Bindings []map[string]struct{ Type, Value string }
		}
		Stats struct {
			Rows  int
			SimMS float64 `json:"simMs"`
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body)
	}
	if len(doc.Head.Vars) != 2 || doc.Head.Vars[0] != "u" || doc.Head.Vars[1] != "g" {
		t.Errorf("vars = %v, want [u g]", doc.Head.Vars)
	}
	if doc.Stats.Rows != 4 || len(doc.Results.Bindings) != 4 {
		t.Errorf("rows = %d bindings = %d, want 4", doc.Stats.Rows, len(doc.Results.Bindings))
	}
	if doc.Stats.SimMS <= 0 {
		t.Errorf("simMs = %g, want > 0", doc.Stats.SimMS)
	}
	b := doc.Results.Bindings[0]["u"]
	if b.Type != "uri" || !strings.HasPrefix(b.Value, "http://example.org/user") {
		t.Errorf("binding u = %+v", b)
	}
}

func TestSPARQLEndpointTSVAndPost(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/sparql?format=tsv", strings.NewReader(serveQuery))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if lines[0] != "u\tg" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 5 {
		t.Errorf("got %d lines, want header + 4 rows:\n%s", len(lines), w.Body)
	}
}

func TestSPARQLEndpointErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		path string
		want string
	}{
		{"/sparql", "missing query"},
		{"/sparql?query=" + url.QueryEscape("SELECT nonsense"), ""},
		{"/sparql?query=" + url.QueryEscape(serveQuery) + "&planner=bogus", "valid modes: cost, cost-leftdeep, heuristic, naive"},
		{"/sparql?query=" + url.QueryEscape(serveQuery) + "&strategy=bogus", "valid strategies"},
		// The test store is loaded without the inverse PT, so the
		// otherwise-valid strategy must be rejected up front.
		{"/sparql?query=" + url.QueryEscape(serveQuery) + "&strategy=" + url.QueryEscape("mixed+ipt"), "inverse property table"},
		{"/sparql?query=" + url.QueryEscape(serveQuery) + "&format=bogus", "valid formats"},
	}
	for _, tt := range cases {
		w := get(t, srv, tt.path)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tt.path, w.Code)
		}
		if tt.want != "" && !strings.Contains(w.Body.String(), tt.want) {
			t.Errorf("%s: body %q does not mention %q", tt.path, w.Body, tt.want)
		}
	}
}

// TestBadRequestsExecuteNothing: a request is validated in full before
// anything runs. An unknown format, a query string url.ParseQuery
// rejects and an oversized POST body are each answered 4xx, counted as
// errored queries, and leave no trace of an execution: no plan-cache
// lookup, no success counted, no breaker sample.
func TestBadRequestsExecuteNothing(t *testing.T) {
	srv := testServer(t)
	escaped := url.QueryEscape(serveQuery)
	do := func(method, target string, body io.Reader) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, target, body))
		return w
	}
	cases := []struct {
		name   string
		w      *httptest.ResponseRecorder
		status int
		want   string
	}{
		{"unknown format", do(http.MethodGet, "/sparql?format=xml&query="+escaped, nil), http.StatusBadRequest, "valid formats"},
		{"bad escape in the query string", do(http.MethodGet, "/sparql?query=SELECT%zz", nil), http.StatusBadRequest, "invalid URL escape"},
		{"semicolon separator", do(http.MethodGet, "/sparql?format=tsv;query="+escaped, nil), http.StatusBadRequest, "semicolon"},
		{"body over the limit", do(http.MethodPost, "/sparql", strings.NewReader(serveQuery+strings.Repeat(" ", maxQueryBytes))), http.StatusRequestEntityTooLarge, "exceeds"},
		{"explain with a bad escape", do(http.MethodGet, "/explain?query=%", nil), http.StatusBadRequest, "invalid URL escape"},
	}
	for _, tc := range cases {
		if tc.w.Code != tc.status || !strings.Contains(tc.w.Body.String(), tc.want) {
			t.Errorf("%s: %d %q, want %d mentioning %q", tc.name, tc.w.Code, tc.w.Body, tc.status, tc.want)
		}
	}
	// A body of exactly the limit is still read whole (and then fails to
	// parse as SPARQL, which is a 400, not a 413).
	if w := do(http.MethodPost, "/sparql", strings.NewReader(strings.Repeat("x", maxQueryBytes))); w.Code != http.StatusBadRequest {
		t.Errorf("body of exactly maxQueryBytes: status %d, want 400", w.Code)
	}

	var doc struct {
		PlanCache struct{ Hits, Misses uint64 }
		Queries   struct{ Total, Errors, Failed uint64 }
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Queries.Total != 6 || doc.Queries.Errors != 6 || doc.Queries.Failed != 0 {
		t.Errorf("queries = %+v, want 6 requests, all errors, none failed", doc.Queries)
	}
	if doc.PlanCache.Hits+doc.PlanCache.Misses != 0 {
		t.Errorf("plan cache saw %+v lookups from requests that must not execute", doc.PlanCache)
	}
	if srv.brk.total != 0 {
		t.Errorf("breaker holds %d samples; caller mistakes are not evidence about the store", srv.brk.total)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := testServer(t)
	w := get(t, srv, "/explain?query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	body := w.Body.String()
	for _, want := range []string{"Physical plan", "actual=", "estimation error", "Join Tree", "Stage trace"} {
		if !strings.Contains(body, want) {
			t.Errorf("explain output missing %q:\n%s", want, body)
		}
	}

	// analyze=0 plans without executing: actuals unknown.
	w = get(t, srv, "/explain?analyze=0&query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("analyze=0 status = %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "not executed") {
		t.Errorf("analyze=0 output should report an unexecuted plan:\n%s", w.Body)
	}
	if strings.Contains(w.Body.String(), "Stage trace") {
		t.Errorf("analyze=0 must not execute:\n%s", w.Body)
	}

	// An extended query's unexecuted plan is the plan execution runs —
	// every operator of it, none with an actual.
	extended := strings.Replace(serveQuery, "}", "OPTIONAL { ?u <http://example.org/follows> ?f . } }", 1) + " ORDER BY ?u LIMIT 5"
	body = get(t, srv, "/explain?analyze=0&query="+url.QueryEscape(extended)).Body.String()
	for _, want := range []string{"TopK", "LeftJoin", "not executed"} {
		if !strings.Contains(body, want) {
			t.Errorf("analyze=0 on an OPTIONAL/ORDER BY/LIMIT query: output missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(strings.ReplaceAll(body, "actual=?", ""), "actual=") {
		t.Errorf("analyze=0 output carries an actual:\n%s", body)
	}
	executed := get(t, srv, "/explain?query="+url.QueryEscape(extended)).Body.String()
	for _, op := range []string{"TopK", "LeftJoin", "Join ", "Scan "} {
		if got, want := strings.Count(body, op), strings.Count(executed[:strings.Index(executed, "estimation error")], op); got != want {
			t.Errorf("analyze=0 plan has %d %q operators, the executed plan %d:\n%s\n%s", got, op, want, body, executed)
		}
	}
}

func TestStatsEndpointTracksCacheAndErrors(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 5; i++ {
		if w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery)); w.Code != http.StatusOK {
			t.Fatalf("query %d failed: %s", i, w.Body)
		}
	}
	get(t, srv, "/sparql?query=broken") // one parse error

	w := get(t, srv, "/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats status = %d", w.Code)
	}
	var doc struct {
		PlanCache struct {
			Hits    uint64
			Misses  uint64
			HitRate float64
		}
		Queries struct {
			Total  uint64
			Errors uint64
		}
		Estimation struct {
			Observed    uint64
			AvgRatio    float64 `json:"avgMaxRatio"`
			WorstCase   float64 `json:"worstRatio"`
			SketchNodes uint64  `json:"sketchNodes"`
			IndepNodes  uint64  `json:"indepNodes"`
		}
		JoinStats struct {
			Collected      bool
			CSets          int
			SketchPairs    int
			CandidatePairs int
			TopK           int
			VolumeCoverage float64
			MemoryBytes    int64
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, w.Body)
	}
	if doc.Queries.Total != 6 || doc.Queries.Errors != 1 {
		t.Errorf("queries = %+v, want total 6 / errors 1", doc.Queries)
	}
	if doc.PlanCache.Hits < 4 {
		t.Errorf("cache hits = %d, want >= 4 after 5 identical queries", doc.PlanCache.Hits)
	}
	if doc.PlanCache.HitRate <= 0.5 {
		t.Errorf("hit rate = %g, want > 0.5", doc.PlanCache.HitRate)
	}
	if doc.Estimation.Observed != 5 || doc.Estimation.WorstCase < 1 {
		t.Errorf("estimation = %+v, want 5 observations with ratio >= 1", doc.Estimation)
	}
	// The join-graph statistics block: collected by default, with the
	// likes⋈hasGenre pair (the served query's join) among the sketches
	// and provenance counters showing the estimator consumed it.
	if !doc.JoinStats.Collected || doc.JoinStats.CSets == 0 || doc.JoinStats.SketchPairs == 0 {
		t.Errorf("joinStats = %+v, want collected with csets and sketches", doc.JoinStats)
	}
	if doc.JoinStats.VolumeCoverage <= 0 || doc.JoinStats.MemoryBytes <= 0 || doc.JoinStats.TopK == 0 {
		t.Errorf("joinStats coverage/footprint missing: %+v", doc.JoinStats)
	}
	if doc.Estimation.SketchNodes == 0 {
		t.Errorf("estimation provenance shows no sketch-priced nodes: %+v", doc.Estimation)
	}
}

// TestQueryTimeoutReturns504 pins the per-query deadline: a server
// with an already-unmeetable timeout must stop the query at a plan
// operator boundary and answer 504 with partial trace info, and the
// timed-out request must not poison the plan cache for later runs.
func TestQueryTimeoutReturns504(t *testing.T) {
	srv := testServer(t)
	srv.cfg.QueryTimeout = time.Nanosecond
	w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "plan tasks") {
		t.Errorf("504 body lacks partial trace info: %s", w.Body)
	}

	// Clearing the timeout must leave the server fully functional: the
	// cancelled run wrote nothing poisonous back.
	srv.cfg.QueryTimeout = 0
	w = get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("query after timeout: status %d (body %s)", w.Code, w.Body)
	}

	w = get(t, srv, "/stats")
	var doc struct {
		Queries struct {
			Errors   uint64
			Timeouts uint64
		}
		Adaptive struct {
			Corrections uint64 `json:"corrections"`
		}
		PlanCache struct {
			FeedbackHits     uint64 `json:"feedbackHits"`
			CorrectedEntries int    `json:"correctedEntries"`
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, w.Body)
	}
	if doc.Queries.Timeouts != 1 || doc.Queries.Errors != 1 {
		t.Errorf("stats = %+v, want 1 timeout counted as 1 error", doc.Queries)
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	if w := get(t, srv, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", w.Code, w.Body)
	}
}

// TestConcurrentRequests drives the handler from many goroutines — the
// end-to-end race check over the server, cache, scheduler and engine.
func TestConcurrentRequests(t *testing.T) {
	srv := testServer(t)
	want := get(t, srv, "/sparql?format=tsv&query="+url.QueryEscape(serveQuery)).Body.String()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for gi := 0; gi < 16; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				w := get(t, srv, "/sparql?format=tsv&query="+url.QueryEscape(serveQuery))
				// Load over the in-flight bound is shed with 503 +
				// Retry-After rather than queued; honour it like a
				// well-behaved client and try again.
				for w.Code == http.StatusServiceUnavailable {
					if w.Header().Get("Retry-After") == "" {
						errs <- fmt.Errorf("shed response missing Retry-After: %s", w.Body)
						return
					}
					time.Sleep(time.Millisecond)
					w = get(t, srv, "/sparql?format=tsv&query="+url.QueryEscape(serveQuery))
				}
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", w.Code, w.Body)
					return
				}
				if w.Body.String() != want {
					errs <- fmt.Errorf("concurrent response differs:\n%s\nvs\n%s", w.Body, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// waitInflight polls until the server's in-flight count reaches n.
func waitInflight(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		srv.drainMu.Lock()
		cur := srv.inflight
		srv.drainMu.Unlock()
		if cur == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight count never reached %d", n)
}

// TestDrainCompletesInflightQuery pins graceful shutdown: Drain stops
// admitting queries immediately (503, /readyz not ready, /healthz
// still alive) but blocks until the in-flight query finishes — and
// that query still succeeds.
func TestDrainCompletesInflightQuery(t *testing.T) {
	srv := testServer(t)
	want := get(t, srv, "/sparql?format=tsv&query="+url.QueryEscape(serveQuery)).Body.String()

	// Hold a query in flight by stalling its POST body mid-read.
	pr, pw := io.Pipe()
	req := httptest.NewRequest(http.MethodPost, "/sparql?format=tsv", pr)
	held := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(held, req)
		close(done)
	}()
	waitInflight(t, srv, 1)

	// A drain against an already-expired context must report the stuck
	// query instead of returning success.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(expired); err == nil {
		t.Error("Drain with expired context reported success with a query in flight")
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	time.Sleep(5 * time.Millisecond)

	if w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery)); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Errorf("query during drain = %d %q, want 503 draining", w.Code, w.Body)
	}
	if w := get(t, srv, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", w.Code)
	}
	if w := get(t, srv, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness only)", w.Code)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) before the in-flight query finished", err)
	default:
	}

	// Release the held query: it completes normally despite the drain,
	// and only then does Drain return.
	if _, err := pw.Write([]byte(serveQuery)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
	if held.Code != http.StatusOK || held.Body.String() != want {
		t.Errorf("in-flight query during drain: %d %q, want 200 with normal rows", held.Code, held.Body)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain after last query finished: %v", err)
	}
}

// TestFaultShedOverflowReturns503 pins load shedding at the in-flight
// bound: with the only execution slot taken, a query is rejected
// immediately with 503 + Retry-After, counted as shed rather than as a
// failed query.
func TestFaultShedOverflowReturns503(t *testing.T) {
	base := testServer(t)
	srv, err := New(Config{Store: base.cfg.Store, MaxInflight: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.sem <- struct{}{} // occupy the only execution slot
	w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "over capacity") {
		t.Fatalf("overflow = %d %q, want 503 over capacity", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	var doc struct {
		Queries    struct{ Total, Errors uint64 }
		Resilience struct {
			ShedRequests uint64 `json:"shedRequests"`
		}
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad stats JSON: %v", err)
	}
	if doc.Resilience.ShedRequests != 1 || doc.Queries.Total != 0 || doc.Queries.Errors != 0 {
		t.Errorf("shed request miscounted: shed=%d queries=%+v, want shed=1 and no query counters",
			doc.Resilience.ShedRequests, doc.Queries)
	}

	<-srv.sem // free the slot: back to normal service
	if w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery)); w.Code != http.StatusOK {
		t.Errorf("query after slot freed = %d (%s), want 200", w.Code, w.Body)
	}
}

// TestFaultBreakerTripsAndRecovers drives the breaker through its full
// cycle on a fake clock: a dead shard produces 500s naming it (counted
// as queries.failed, not timeouts), the failure rate trips the breaker
// to fast 503s and flips /readyz, and after the cooldown a successful
// half-open probe closes it again.
func TestFaultBreakerTripsAndRecovers(t *testing.T) {
	srv := testServer(t)
	clock := time.Unix(1000, 0)
	srv.brk.now = func() time.Time { return clock }

	// The only shard is dead: each query aborts with a
	// *core.TaskFailedError.
	srv.cfg.Options.Dist = deadShardCoordinator(t, srv.cfg.Store)
	for i := 0; i < breakerMinSamples; i++ {
		w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery))
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("query %d on a dead shard = %d (%s), want 500", i, w.Code, w.Body)
		}
		if !strings.Contains(w.Body.String(), "failed permanently") || !strings.Contains(w.Body.String(), "shard 0") {
			t.Fatalf("500 body does not name the dead shard: %s", w.Body)
		}
	}

	w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "circuit breaker") {
		t.Fatalf("post-trip query = %d %q, want breaker 503", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("breaker 503 missing Retry-After")
	}
	if w := get(t, srv, "/readyz"); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "circuit breaker") {
		t.Errorf("readyz with open breaker = %d %q, want 503", w.Code, w.Body)
	}

	var doc struct {
		Queries struct {
			Total, Errors, Timeouts, Failed uint64
		}
		Resilience struct {
			BreakerState string `json:"breakerState"`
			ShedRequests uint64 `json:"shedRequests"`
		}
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad stats JSON: %v", err)
	}
	if doc.Queries.Failed != uint64(breakerMinSamples) || doc.Queries.Timeouts != 0 {
		t.Errorf("queries = %+v, want %d failed / 0 timeouts", doc.Queries, breakerMinSamples)
	}
	if doc.Resilience.BreakerState != "open" || doc.Resilience.ShedRequests == 0 {
		t.Errorf("resilience = %+v, want open breaker with shed requests", doc.Resilience)
	}

	// Cooldown elapses and the store heals: the half-open probe succeeds
	// and closes the breaker.
	clock = clock.Add(breakerCooldown + time.Second)
	srv.cfg.Options.Dist = nil
	if w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery)); w.Code != http.StatusOK {
		t.Fatalf("probe after cooldown = %d (%s), want 200", w.Code, w.Body)
	}
	if st := srv.brk.stateName(); st != "closed" {
		t.Errorf("breaker state after successful probe = %q, want closed", st)
	}
	if w := get(t, srv, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz after recovery = %d, want 200", w.Code)
	}
}

// TestFaultBreakerHalfOpenAdmitsOneProbe: past its cooldown a tripped
// breaker lets exactly one probe execute against the still-failing
// store; the queries that arrive while the probe is out are shed with
// 503 + Retry-After. A probe that ends without an execution outcome — a
// bad request, a shed at the in-flight bound, a drain — frees the probe
// slot, so the breaker is never stuck half-open.
func TestFaultBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	srv := testServer(t)
	clock := time.Unix(1000, 0)
	srv.brk.now = func() time.Time { return clock }
	dead := deadShardCoordinator(t, srv.cfg.Store)
	srv.cfg.Options.Dist = dead
	query := "/sparql?query=" + url.QueryEscape(serveQuery)
	tripAndCool := func() {
		t.Helper()
		for i := 0; i < breakerMinSamples; i++ {
			if w := get(t, srv, query); w.Code != http.StatusInternalServerError && w.Code != http.StatusServiceUnavailable {
				t.Fatalf("tripping query = %d (%s)", w.Code, w.Body)
			}
		}
		if st := srv.brk.stateName(); st != "open" {
			t.Fatalf("breaker %q after failing queries, want open", st)
		}
		clock = clock.Add(breakerCooldown + time.Second)
	}
	failed := func() uint64 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.failed
	}
	tripAndCool()

	// The probe: admitted, then held in flight by stalling its POST body.
	pr, pw := io.Pipe()
	held := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(held, httptest.NewRequest(http.MethodPost, "/sparql", pr))
		close(done)
	}()
	waitInflight(t, srv, 1)

	const k = 8
	before := failed()
	codes := make([]int, k)
	retry := make([]string, k)
	var wg sync.WaitGroup
	for i := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := get(t, srv, query)
			codes[i], retry[i] = w.Code, w.Header().Get("Retry-After")
		}()
	}
	wg.Wait()
	for i := range k {
		if codes[i] != http.StatusServiceUnavailable || retry[i] == "" {
			t.Errorf("query %d while the probe is out = %d (Retry-After %q), want 503 with Retry-After", i, codes[i], retry[i])
		}
	}
	if n := failed() - before; n != 0 {
		t.Errorf("%d queries executed beside the probe, want 0", n)
	}
	if _, err := pw.Write([]byte(serveQuery)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
	if held.Code != http.StatusInternalServerError {
		t.Errorf("probe = %d (%s), want 500 from the failing store", held.Code, held.Body)
	}
	if n := failed() - before; n != 1 {
		t.Errorf("%d queries executed after the cooldown, want exactly the probe", n)
	}
	if st := srv.brk.stateName(); st != "open" {
		t.Errorf("breaker %q after a failed probe, want open", st)
	}

	// A stalled probe holds the slot for at most a cooldown: past that
	// the next query supersedes it and executes.
	clock = clock.Add(breakerCooldown + time.Second)
	pr, pw = io.Pipe()
	held = httptest.NewRecorder()
	done = make(chan struct{})
	go func() {
		srv.ServeHTTP(held, httptest.NewRequest(http.MethodPost, "/sparql", pr))
		close(done)
	}()
	waitInflight(t, srv, 1)
	if w := get(t, srv, query); w.Code != http.StatusServiceUnavailable {
		t.Errorf("query beside a fresh probe = %d (%s), want 503", w.Code, w.Body)
	}
	clock = clock.Add(breakerCooldown)
	before = failed()
	if w := get(t, srv, query); w.Code != http.StatusInternalServerError {
		t.Errorf("query a cooldown after a stalled probe = %d (%s), want it to execute (500)", w.Code, w.Body)
	}
	if n := failed() - before; n != 1 {
		t.Errorf("%d queries executed superseding the stalled probe, want 1", n)
	}
	if st := srv.brk.stateName(); st != "open" {
		t.Errorf("breaker %q after the superseding probe failed, want open", st)
	}
	pw.CloseWithError(io.ErrUnexpectedEOF)
	<-done

	// A probe shed at the in-flight bound frees the slot.
	clock = clock.Add(breakerCooldown + time.Second)
	for range cap(srv.sem) {
		srv.sem <- struct{}{}
	}
	if w := get(t, srv, query); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "over capacity") {
		t.Errorf("probe at the in-flight bound = %d %q, want 503 over capacity", w.Code, w.Body)
	}
	for range cap(srv.sem) {
		<-srv.sem
	}
	if w := get(t, srv, query); w.Code != http.StatusInternalServerError {
		t.Errorf("probe after an over-capacity probe = %d (%s), want it to execute (500)", w.Code, w.Body)
	}

	// A bad-request probe frees the slot: the store heals, the next
	// probe executes and closes the breaker.
	clock = clock.Add(breakerCooldown + time.Second)
	if w := get(t, srv, "/sparql?query=SELECT+nonsense"); w.Code != http.StatusBadRequest {
		t.Errorf("bad-request probe = %d (%s), want 400", w.Code, w.Body)
	}
	srv.cfg.Options.Dist = nil
	if w := get(t, srv, query); w.Code != http.StatusOK {
		t.Errorf("probe after a bad-request probe = %d (%s), want 200", w.Code, w.Body)
	}
	if st := srv.brk.stateName(); st != "closed" {
		t.Errorf("breaker %q after a successful probe, want closed", st)
	}

	// A probe caught by a drain frees the slot too.
	srv.cfg.Options.Dist = dead
	tripAndCool()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := get(t, srv, query); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Errorf("probe during drain = %d %q, want 503 draining", w.Code, w.Body)
	}
	if srv.brk.stateName() != "half-open" || srv.brk.probing {
		t.Errorf("after a drained probe: state %q, probe out %v; want half-open with the slot free", srv.brk.stateName(), srv.brk.probing)
	}
}

// TestFaultStatsAndExplainShowRecovery pins the observability surface
// of recoverable faults: /explain renders per-node attempt counts, the
// resilience summary and the priced recovery stage, and /stats
// aggregates the recovery counters while the breaker stays closed
// (retried-to-success queries are not failures).
func TestFaultStatsAndExplainShowRecovery(t *testing.T) {
	srv := testServer(t)
	srv.cfg.Options.Faults = &cluster.FaultPlan{Seed: 3, FailRate: 1}
	w := get(t, srv, "/explain?query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("explain under recoverable faults = %d (%s)", w.Code, w.Body)
	}
	body := w.Body.String()
	for _, want := range []string{"resilience: attempts=", "attempts=3", "fault recovery"} {
		if !strings.Contains(body, want) {
			t.Errorf("explain output missing %q:\n%s", want, body)
		}
	}

	var doc struct {
		Queries    struct{ Errors uint64 }
		Resilience struct {
			Attempts     uint64 `json:"attempts"`
			Retries      uint64 `json:"retries"`
			BreakerState string `json:"breakerState"`
		}
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad stats JSON: %v", err)
	}
	if doc.Resilience.Attempts == 0 || doc.Resilience.Retries == 0 {
		t.Errorf("resilience counters empty after recovered faults: %+v", doc.Resilience)
	}
	if doc.Queries.Errors != 0 || doc.Resilience.BreakerState != "closed" {
		t.Errorf("recovered faults should not look like failures: %+v %+v", doc.Queries, doc.Resilience)
	}
}

// TestSPARQLStreamingEndpoint exercises the ?streaming= override end
// to end: the streamed response carries the first-row and peak-memory
// stats, renders byte-identical bindings to the materialized response,
// /explain reports the streaming record, and /stats aggregates the
// streamed-query counters.
func TestSPARQLStreamingEndpoint(t *testing.T) {
	srv := testServer(t)
	base := "/sparql?query=" + url.QueryEscape(serveQuery)

	mat := get(t, srv, base)
	str := get(t, srv, base+"&streaming=1")
	if str.Code != http.StatusOK {
		t.Fatalf("streaming status = %d, body %s", str.Code, str.Body)
	}
	type doc struct {
		Results struct {
			Bindings []map[string]struct{ Type, Value string }
		}
		Stats struct {
			Rows         int
			Streamed     bool
			FirstRowMS   float64 `json:"firstRowMs"`
			PeakMemBytes int64   `json:"peakMemBytes"`
		}
	}
	var md, sd doc
	if err := json.Unmarshal(mat.Body.Bytes(), &md); err != nil {
		t.Fatalf("bad materialized JSON: %v", err)
	}
	if err := json.Unmarshal(str.Body.Bytes(), &sd); err != nil {
		t.Fatalf("bad streaming JSON: %v", err)
	}
	if !sd.Stats.Streamed {
		t.Fatal("streaming=1 response not marked streamed")
	}
	if md.Stats.Streamed {
		t.Fatal("default response claims to have streamed")
	}
	if sd.Stats.FirstRowMS <= 0 || sd.Stats.PeakMemBytes <= 0 {
		t.Errorf("streaming stats firstRowMs=%g peakMemBytes=%d, want both > 0",
			sd.Stats.FirstRowMS, sd.Stats.PeakMemBytes)
	}
	if fmt.Sprint(md.Results.Bindings) != fmt.Sprint(sd.Results.Bindings) {
		t.Errorf("streaming bindings differ from materialized:\n%v\nvs\n%v",
			sd.Results.Bindings, md.Results.Bindings)
	}

	matTSV := get(t, srv, base+"&format=tsv")
	strTSV := get(t, srv, base+"&format=tsv&streaming=1")
	if strTSV.Body.String() != matTSV.Body.String() {
		t.Errorf("streaming TSV differs from materialized:\n%q\nvs\n%q", strTSV.Body, matTSV.Body)
	}

	if w := get(t, srv, base+"&streaming=maybe"); w.Code != http.StatusBadRequest {
		t.Errorf("streaming=maybe status = %d, want 400", w.Code)
	}

	exp := get(t, srv, "/explain?streaming=1&query="+url.QueryEscape(serveQuery))
	if !strings.Contains(exp.Body.String(), "streamed: first row at") {
		t.Errorf("/explain missing streaming record:\n%s", exp.Body)
	}

	var stats struct {
		Queries struct {
			Streamed        uint64
			AvgFirstRowMS   float64 `json:"avgFirstRowMs"`
			MaxPeakMemBytes int64   `json:"maxPeakMemBytes"`
		}
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	if stats.Queries.Streamed < 2 {
		t.Errorf("stats streamed = %d, want >= 2", stats.Queries.Streamed)
	}
	if stats.Queries.AvgFirstRowMS <= 0 || stats.Queries.MaxPeakMemBytes <= 0 {
		t.Errorf("stats avgFirstRowMs=%g maxPeakMemBytes=%d, want both > 0",
			stats.Queries.AvgFirstRowMS, stats.Queries.MaxPeakMemBytes)
	}
}

// TestMalformedParamsReturn400 pins the validation contract: a
// boolean parameter is parsed whenever the key is present, so an
// empty or malformed ?streaming= or ?analyze= returns 400
// with a parse error rather than silently falling back to defaults.
func TestMalformedParamsReturn400(t *testing.T) {
	srv := testServer(t)
	q := url.QueryEscape(serveQuery)
	cases := []struct {
		path string
		want string
	}{
		{"/sparql?query=" + q + "&streaming=", "invalid streaming"},
		{"/sparql?query=" + q + "&streaming=yes-please", "invalid streaming"},
		{"/explain?query=" + q + "&analyze=", "invalid analyze"},
		{"/explain?query=" + q + "&analyze=maybe", "invalid analyze"},
		{"/explain?query=" + q + "&streaming=", "invalid streaming"},
	}
	for _, tt := range cases {
		w := get(t, srv, tt.path)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %q)", tt.path, w.Code, w.Body)
		}
		if !strings.Contains(w.Body.String(), tt.want) {
			t.Errorf("%s: body %q does not mention %q", tt.path, w.Body, tt.want)
		}
	}
	// Well-formed values keep working.
	for _, path := range []string{
		"/sparql?query=" + q + "&streaming=1",
		"/sparql?query=" + q + "&streaming=false",
		"/explain?query=" + q + "&analyze=0",
		"/explain?query=" + q + "&analyze=true",
	} {
		if w := get(t, srv, path); w.Code != http.StatusOK {
			t.Errorf("%s: status = %d, want 200 (body %q)", path, w.Code, w.Body)
		}
	}
}

// TestStatsWorkloadBlock exercises /stats against a store with the
// ExtVP subsystem enabled: after a repeated join query the workload
// block reports mined pairs, built reductions, and served hits. The
// graph needs dangling edges on both sides of the hot pair or the
// semi-joins keep every row and nothing materializes.
func TestStatsWorkloadBlock(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	g := rdf.NewGraph(0)
	add := func(s, p string, o rdf.Term) { g.AddSPO(iri(s), iri(p), o) }
	add("user0", "likes", iri("prodA"))
	add("user1", "likes", iri("prodA"))
	add("user1", "likes", iri("prodB"))
	add("user2", "likes", iri("prodB"))
	add("user3", "likes", iri("prodC")) // prodC has no genre
	add("prodA", "hasGenre", iri("g1"))
	add("prodB", "hasGenre", iri("g2"))
	add("prodD", "hasGenre", iri("g3")) // nobody likes prodD

	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	store, err := core.Load(g, core.Options{Cluster: c, ExtVPBudget: 1 << 20, ExtVPBuildAfter: 1})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	srv, err := New(Config{Store: store, MaxInflight: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	path := "/sparql?query=" + url.QueryEscape(serveQuery)
	if w := get(t, srv, path); w.Code != http.StatusOK {
		t.Fatalf("cold query: %d %s", w.Code, w.Body)
	}
	if w := get(t, srv, path); w.Code != http.StatusOK {
		t.Fatalf("warm query: %d %s", w.Code, w.Body)
	}

	var doc struct {
		Workload struct {
			Enabled      bool
			PairsTracked int
			TablesBuilt  uint64
			TablesLive   int
			TableBytes   int64
			BudgetBytes  int64
			HitCount     uint64
		}
		Estimation struct {
			ExtVPNodes uint64 `json:"extvpNodes"`
		}
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	wl := doc.Workload
	if !wl.Enabled {
		t.Fatal("workload block reports disabled on an ExtVP-enabled store")
	}
	if wl.PairsTracked < 1 || wl.TablesBuilt < 1 || wl.TablesLive < 1 {
		t.Errorf("workload block %+v, want mined pairs and live tables", wl)
	}
	if wl.HitCount < 1 {
		t.Errorf("warm query served no reduction (hitCount = %d)", wl.HitCount)
	}
	if wl.TableBytes <= 0 || wl.TableBytes > wl.BudgetBytes {
		t.Errorf("tableBytes = %d outside (0, budget %d]", wl.TableBytes, wl.BudgetBytes)
	}
	if doc.Estimation.ExtVPNodes < 1 {
		t.Errorf("estimation block recorded no extvp-sourced scan")
	}

	// The warm /explain renders the rewrite record.
	exp := get(t, srv, "/explain?query="+url.QueryEscape(serveQuery))
	if !strings.Contains(exp.Body.String(), "workload rewrites:") {
		t.Errorf("/explain missing workload rewrite block:\n%s", exp.Body)
	}
}

// TestSPARQLExtendedSurface drives the extended query forms through
// the HTTP layer: OPTIONAL rows omit unbound variables from JSON
// bindings (and render them as empty TSV cells), ORDER BY responses
// are flagged ordered and presented in query order, and GROUP BY/COUNT
// bindings carry xsd:integer literals.
func TestSPARQLExtendedSurface(t *testing.T) {
	srv := testServer(t)

	optional := `SELECT ?u ?p ?n WHERE {
		?u <http://example.org/likes> ?p .
		OPTIONAL { ?u <http://example.org/name> ?n . }
	}`
	w := get(t, srv, "/sparql?query="+url.QueryEscape(optional))
	if w.Code != http.StatusOK {
		t.Fatalf("OPTIONAL status = %d, body %s", w.Code, w.Body)
	}
	var od struct {
		Results struct {
			Bindings []map[string]struct{ Type, Value string }
		}
		Stats struct{ Rows int }
	}
	if err := json.Unmarshal(w.Body.Bytes(), &od); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body)
	}
	if od.Stats.Rows != 4 {
		t.Fatalf("OPTIONAL rows = %d, want 4 (every likes row survives)", od.Stats.Rows)
	}
	named, bare := 0, 0
	for _, b := range od.Results.Bindings {
		if n, ok := b["n"]; ok {
			named++
			if n.Value != "alice" {
				t.Errorf("bound name = %q, want alice", n.Value)
			}
		} else {
			bare++
		}
	}
	if named != 1 || bare != 3 {
		t.Errorf("bindings with name = %d / without = %d, want 1 / 3", named, bare)
	}
	// TSV renders the unbound cell as empty, keeping the column count.
	w = get(t, srv, "/sparql?format=tsv&query="+url.QueryEscape(optional))
	for i, line := range strings.Split(strings.TrimRight(w.Body.String(), "\n"), "\n") {
		if got := strings.Count(line, "\t"); got != 2 {
			t.Errorf("TSV line %d has %d tabs, want 2: %q", i, got, line)
		}
	}

	ordered := `SELECT ?u ?p WHERE {
		?u <http://example.org/likes> ?p .
	} ORDER BY DESC(?u) ?p LIMIT 3`
	w = get(t, srv, "/sparql?query="+url.QueryEscape(ordered))
	if w.Code != http.StatusOK {
		t.Fatalf("ORDER BY status = %d, body %s", w.Code, w.Body)
	}
	var sd struct {
		Results struct {
			Bindings []map[string]struct{ Type, Value string }
		}
		Stats struct {
			Rows    int
			Ordered bool
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sd); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body)
	}
	if !sd.Stats.Ordered || sd.Stats.Rows != 3 {
		t.Fatalf("ORDER BY stats = %+v, want ordered with 3 rows", sd.Stats)
	}
	for i := 1; i < len(sd.Results.Bindings); i++ {
		if sd.Results.Bindings[i-1]["u"].Value < sd.Results.Bindings[i]["u"].Value {
			t.Errorf("bindings not in DESC(?u) order: %v", sd.Results.Bindings)
		}
	}

	grouped := `SELECT ?p (COUNT(?u) AS ?n) WHERE {
		?u <http://example.org/likes> ?p .
	} GROUP BY ?p ORDER BY ?p`
	w = get(t, srv, "/sparql?query="+url.QueryEscape(grouped))
	if w.Code != http.StatusOK {
		t.Fatalf("GROUP BY status = %d, body %s", w.Code, w.Body)
	}
	var gd struct {
		Results struct {
			Bindings []map[string]struct{ Type, Value, Datatype string }
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &gd); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body)
	}
	if len(gd.Results.Bindings) != 2 {
		t.Fatalf("GROUP BY bindings = %d, want 2 products", len(gd.Results.Bindings))
	}
	for _, b := range gd.Results.Bindings {
		n := b["n"]
		if n.Type != "literal" || n.Value != "2" || !strings.HasSuffix(n.Datatype, "integer") {
			t.Errorf("count binding = %+v, want xsd:integer literal 2", n)
		}
	}
}

// shardCoordinator starts n shard servers over store on loopback
// listeners, all stopped when the test ends, and dials a coordinator to
// them; it returns the coordinator and the shards' addresses.
func shardCoordinator(t testing.TB, store *core.Store, n int) (*shard.Coordinator, []string) {
	coord, _, addrs := shardTopology(t, store, n)
	return coord, addrs
}

// deadShardCoordinator returns a coordinator whose one shard server has
// closed: every query routed through it fails with the dead-shard abort,
// a *core.TaskFailedError wrapping the *wire.ShardError.
func deadShardCoordinator(t testing.TB, store *core.Store) *shard.Coordinator {
	coord, shards, _ := shardTopology(t, store, 1)
	shards[0].Close()
	return coord
}

// shardTopology is shardCoordinator, returning the shard servers too.
func shardTopology(t testing.TB, store *core.Store, n int) (*shard.Coordinator, []*shard.Server, []string) {
	t.Helper()
	var shards []*shard.Server
	var addrs []string
	for i := 0; i < n; i++ {
		sh, err := shard.NewServer(store, i, n)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		go sh.Serve(ln)
		t.Cleanup(func() { sh.Close() })
		shards = append(shards, sh)
		addrs = append(addrs, ln.Addr().String())
	}
	coord, err := shard.Dial(store, addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, shards, addrs
}

// TestStreamingDowngradeSurfaced pins the sharded-coordinator
// interaction: ?streaming=1 against a coordinator runs materialized,
// and the downgrade is explicit — in the response's stats block and in
// the /stats streamingDowngraded counter — never silent.
func TestStreamingDowngradeSurfaced(t *testing.T) {
	store := testServer(t).cfg.Store
	coord, _ := shardCoordinator(t, store, 2)
	srv, err := New(Config{Store: store, Options: core.QueryOptions{Dist: coord}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	w := get(t, srv, "/sparql?streaming=1&query="+url.QueryEscape(serveQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var doc struct {
		Stats struct {
			Streamed            bool
			StreamingDowngraded bool
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body)
	}
	if doc.Stats.Streamed {
		t.Error("coordinator query claims to have streamed")
	}
	if !doc.Stats.StreamingDowngraded {
		t.Error("streaming downgrade not surfaced in response stats")
	}

	var stats struct {
		Queries struct {
			StreamingDowngraded uint64 `json:"streamingDowngraded"`
		}
	}
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	if stats.Queries.StreamingDowngraded != 1 {
		t.Errorf("/stats streamingDowngraded = %d, want 1", stats.Queries.StreamingDowngraded)
	}
}

// TestStatsNetworkBlock runs the server as a 2-shard coordinator and
// checks that /stats reports the network block (and that a plain
// single-process server omits it).
func TestStatsNetworkBlock(t *testing.T) {
	plain := testServer(t)
	if strings.Contains(get(t, plain, "/stats").Body.String(), `"network"`) {
		t.Fatal("single-process /stats reports a network block")
	}

	store := testServer(t).cfg.Store
	coord, addrs := shardCoordinator(t, store, 2)
	srv, err := New(Config{Store: store, Options: core.QueryOptions{Dist: coord}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if w := get(t, srv, "/sparql?query="+url.QueryEscape(serveQuery)); w.Code != http.StatusOK {
		t.Fatalf("distributed query status = %d, body %s", w.Code, w.Body)
	}

	var doc struct {
		Network *struct {
			Exchanges     int64
			BytesSent     int64
			BytesReceived int64
			Shards        []struct {
				Addr  string
				Calls int64
			}
		}
	}
	w := get(t, srv, "/stats")
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad /stats JSON: %v\n%s", err, w.Body)
	}
	n := doc.Network
	if n == nil {
		t.Fatalf("coordinator /stats has no network block:\n%s", w.Body)
	}
	if n.Exchanges < 1 || n.BytesSent <= 0 || n.BytesReceived <= 0 {
		t.Errorf("network block %+v, want nonzero traffic", n)
	}
	if len(n.Shards) != 2 {
		t.Fatalf("network block reports %d shards, want 2", len(n.Shards))
	}
	for i, sh := range n.Shards {
		if sh.Addr != addrs[i] || sh.Calls < 1 {
			t.Errorf("shard %d = %+v, want addr %s with calls", i, sh, addrs[i])
		}
	}
}

// The renderings below are what /sparql wrote before the append
// encoders of encode.go: a map[string]binding marshaled per row by
// encoding/json, and Term.String cells joined with tabs. They stay as
// the reference the encoders must match byte for byte.

// binding is one variable's value in the SPARQL-JSON results format.
type binding struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

// termBinding maps an RDF term to its JSON binding.
func termBinding(t rdf.Term) binding {
	switch {
	case t.IsIRI():
		return binding{Type: "uri", Value: t.Value}
	case t.IsBlank():
		return binding{Type: "bnode", Value: t.Value}
	default:
		return binding{Type: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
}

// referenceJSON renders a /sparql JSON body the old way.
func referenceJSON(vars []string, rows [][]rdf.Term, st sparqlStats) string {
	var sb strings.Builder
	head, _ := json.Marshal(vars)
	fmt.Fprintf(&sb, "{\"head\":{\"vars\":%s},\"results\":{\"bindings\":[", head)
	for i, row := range rows {
		b := make(map[string]binding, len(row))
		for j, t := range row {
			if j < len(vars) && !unbound(t) {
				b[vars[j]] = termBinding(t)
			}
		}
		buf, _ := json.Marshal(b)
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
		sb.Write(buf)
	}
	stats, _ := json.Marshal(st)
	fmt.Fprintf(&sb, "\n]},\"stats\":%s}\n", stats)
	return sb.String()
}

// referenceTSV renders a /sparql TSV body the old way.
func referenceTSV(vars []string, rows [][]rdf.Term) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, strings.Join(vars, "\t"))
	for _, row := range rows {
		cells := make([]string, len(row))
		for j, t := range row {
			if unbound(t) {
				continue // empty TSV cell
			}
			cells[j] = referenceTermString(t)
		}
		fmt.Fprintln(&sb, strings.Join(cells, "\t"))
	}
	return sb.String()
}

// referenceTermString is rdf.Term.String as it was before it shared an
// appender with the TSV encoder.
func referenceTermString(t rdf.Term) string {
	switch t.Kind {
	case rdf.KindIRI:
		return "<" + t.Value + ">"
	case rdf.KindBlank:
		return "_:" + t.Value
	case rdf.KindLiteral:
		var sb strings.Builder
		sb.WriteByte('"')
		for _, r := range t.Value {
			switch r {
			case '"':
				sb.WriteString(`\"`)
			case '\\':
				sb.WriteString(`\\`)
			case '\n':
				sb.WriteString(`\n`)
			case '\r':
				sb.WriteString(`\r`)
			case '\t':
				sb.WriteString(`\t`)
			default:
				sb.WriteRune(r)
			}
		}
		sb.WriteByte('"')
		if t.Lang != "" {
			sb.WriteByte('@')
			sb.WriteString(t.Lang)
		} else if t.Datatype != "" {
			sb.WriteString("^^<")
			sb.WriteString(t.Datatype)
			sb.WriteByte('>')
		}
		return sb.String()
	default:
		return fmt.Sprintf("!invalid-term(%d)", t.Kind)
	}
}

// TestStatsResilienceObjectBytes pins what operators' dashboards parse:
// the /stats "resilience" object's key names and order (the store's
// recovery record, then breakerState and shedRequests last; the priced
// recovery time is not exported there) and the text EXPLAIN prints for
// the same record.
func TestStatsResilienceObjectBytes(t *testing.T) {
	rec := cluster.Recovery{
		Attempts: 11, Retries: 2, Stragglers: 3, SpeculativeLaunched: 4, SpeculativeWins: 5,
		ChecksumFailures: 6, LineageRecomputes: 7, RecoveryTime: 1234567 * time.Nanosecond,
	}
	for _, tc := range []struct {
		name     string
		rec      cluster.Recovery
		breaker  string
		shed     uint64
		wantJSON string
		wantText string
	}{
		{"zero", cluster.Recovery{}, "closed", 0,
			`{"attempts":0,"retries":0,"stragglers":0,"speculativeLaunched":0,"speculativeWins":0,"checksumFailures":0,"lineageRecomputes":0,"breakerState":"closed","shedRequests":0}`,
			""},
		{"every field", rec, "open", 9,
			`{"attempts":11,"retries":2,"stragglers":3,"speculativeLaunched":4,"speculativeWins":5,"checksumFailures":6,"lineageRecomputes":7,"breakerState":"open","shedRequests":9}`,
			"resilience: attempts=11 retries=2 stragglers=3 speculative=5/4 checksum-failures=6 lineage-recomputes=7 recovery=1.235ms\n"},
	} {
		var doc statsResponse
		doc.Resilience.Recovery = tc.rec
		doc.Resilience.BreakerState = tc.breaker
		doc.Resilience.ShedRequests = tc.shed
		got, err := json.Marshal(doc.Resilience)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.wantJSON {
			t.Errorf("%s: resilience object\n got %s\nwant %s", tc.name, got, tc.wantJSON)
		}
		if got := cluster.Recovery(tc.rec).String(); got != tc.wantText {
			t.Errorf("%s: String() = %q, want %q", tc.name, got, tc.wantText)
		}
	}

	// The served document carries exactly that object.
	var body bytes.Buffer
	if err := json.Compact(&body, get(t, testServer(t), "/stats").Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := `"resilience":{"attempts":0,"retries":0,"stragglers":0,"speculativeLaunched":0,"speculativeWins":0,"checksumFailures":0,"lineageRecomputes":0,"breakerState":"closed","shedRequests":0}`
	if !strings.Contains(body.String(), want) {
		t.Errorf("/stats lacks %s:\n%s", want, body.String())
	}
}
