package core

// Tests for the workload-driven ExtVP subsystem: byte-identity of
// rewritten executions across every planner/strategy/executor
// combination, budget enforcement end to end, cross-query estimate
// seeding, and race-detector coverage of queries running concurrently
// with reduction builds on other queries' goroutines (the
// TestConcurrent* name is load-bearing: CI's race gate runs
// -run Concurrent).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// extvpGraph builds a graph where semi-join reductions actually shrink
// tables: likes edges point at products without genres (pC, pD),
// hasGenre covers products nobody likes (pE, pF), and the follows
// graph has sources and sinks outside its own subject/object overlap —
// so every hot pair's reduction drops rows and gets materialized.
func extvpGraph() *rdf.Graph {
	iri := func(s string) rdf.Term { return rdf.NewIRI(testNS + s) }
	g := rdf.NewGraph(0)
	add := func(s, p string, o string) { g.AddSPO(iri(s), iri(p), iri(o)) }

	add("u0", "likes", "pA")
	add("u1", "likes", "pA")
	add("u1", "likes", "pB")
	add("u2", "likes", "pB")
	add("u3", "likes", "pC")
	add("u4", "likes", "pD")

	add("pA", "hasGenre", "g1")
	add("pB", "hasGenre", "g1")
	add("pB", "hasGenre", "g2")
	add("pE", "hasGenre", "g2")
	add("pF", "hasGenre", "g3")

	add("u0", "follows", "u1")
	add("u1", "follows", "u2")
	add("u3", "follows", "u0")
	add("u5", "follows", "u9")

	add("u0", "purchased", "pB")
	add("u5", "purchased", "pF")
	return g
}

// extvpQueries is the workload the tests repeat: chains, a star, a
// self-join and a constant-bound pattern over extvpGraph.
var extvpQueries = []string{
	`SELECT ?u ?g WHERE {
		?u <http://example.org/likes> ?p .
		?p <http://example.org/hasGenre> ?g .
	}`,
	`SELECT ?u WHERE {
		?u <http://example.org/likes> ?p .
		?p <http://example.org/hasGenre> <http://example.org/g1> .
	}`,
	`SELECT ?u ?v ?g WHERE {
		?u <http://example.org/likes> ?p .
		?u <http://example.org/follows> ?v .
		?p <http://example.org/hasGenre> ?g .
	}`,
	`SELECT ?a ?c WHERE {
		?a <http://example.org/follows> ?b .
		?b <http://example.org/follows> ?c .
	}`,
	`SELECT ?u ?p WHERE {
		?u <http://example.org/purchased> ?p .
		?u <http://example.org/likes> ?q .
		?p <http://example.org/hasGenre> ?g .
	}`,
}

// extvpStore loads extvpGraph with the workload subsystem enabled.
func extvpStore(t testing.TB, budget int64) *Store {
	t.Helper()
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	s, err := Load(extvpGraph(), Options{Cluster: c, BuildInversePT: true, ExtVPBudget: budget, ExtVPBuildAfter: 1})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

// plainExtvpStore loads extvpGraph without the workload subsystem —
// the identity baseline.
func plainExtvpStore(t testing.TB) *Store {
	t.Helper()
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	s, err := Load(extvpGraph(), Options{Cluster: c, BuildInversePT: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

// planUsesExtVP reports whether any scan of an executed plan carries
// an ExtVP rewrite.
func planUsesExtVP(p *plan.Plan) bool {
	for _, n := range p.Scans() {
		if n.ExtVP != nil {
			return true
		}
	}
	return false
}

// TestExtVPByteIdenticalAcrossModes is the correctness property test:
// for every query, across all planners, strategies and both executors,
// rows must be byte-identical between the plain store and the
// ExtVP-enabled store — cold (each query's mining builds the tables
// it earns) and warm (reductions installed and rewrites firing).
func TestExtVPByteIdenticalAcrossModes(t *testing.T) {
	plain := plainExtvpStore(t)
	s := extvpStore(t, 1<<20)

	strategies := []Strategy{StrategyMixed, StrategyVPOnly, StrategyMixedIPT}
	planners := []plan.Mode{plan.ModeNaive, plan.ModeCost, plan.ModeCostLeftDeep, plan.ModeHeuristic}

	check := func(phase string) {
		for qi, src := range extvpQueries {
			q := sparql.MustParse(src)
			for _, strat := range strategies {
				for _, mode := range planners {
					for _, streaming := range []bool{false, true} {
						opts := QueryOptions{Strategy: strat, Planner: mode, Streaming: streaming}
						want, err := plain.Query(q, opts)
						if err != nil {
							t.Fatalf("%s q%d/%s/%v plain: %v", phase, qi, strat, mode, err)
						}
						got, err := s.Query(q, opts)
						if err != nil {
							t.Fatalf("%s q%d/%s/%v extvp: %v", phase, qi, strat, mode, err)
						}
						eqStrings(t, renderRows(got), renderRows(want),
							fmt.Sprintf("%s q%d/%s/%v/streaming=%v", phase, qi, strat, mode, streaming))
					}
				}
			}
		}
	}

	check("cold") // mines pairs; the queries that earn them build reductions
	met := s.WorkloadMetrics()
	if met.TablesBuilt == 0 {
		t.Fatalf("no reductions built after the cold pass (metrics %+v)", met)
	}
	check("warm") // rewrites fire against the materialized reductions

	if got := s.EstSourceMetrics().ExtVP; got == 0 {
		t.Errorf("no scan was ever priced from a reduction (est-source counters %+v)", s.EstSourceMetrics())
	}
	if got := s.WorkloadMetrics().HitCount; got == 0 {
		t.Errorf("no reduction was ever served to an execution")
	}
}

// TestExtVPRewriteRecorded checks the EXPLAIN surface: a warm plan
// shows the applied rewrite on its scan node and in RewriteSummary.
func TestExtVPRewriteRecorded(t *testing.T) {
	s := extvpStore(t, 1<<20)
	q := sparql.MustParse(extvpQueries[0])
	if _, err := s.Query(q, QueryOptions{Strategy: StrategyVPOnly}); err != nil {
		t.Fatalf("cold query: %v", err)
	}
	res, err := s.Query(q, QueryOptions{Strategy: StrategyVPOnly})
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if !planUsesExtVP(res.Plan) {
		t.Fatalf("warm plan carries no ExtVP rewrite:\n%s", res.Plan)
	}
	sum := res.Plan.RewriteSummary()
	if sum == "" {
		t.Fatalf("RewriteSummary empty on a rewritten plan")
	}
	applied := false
	for _, r := range res.Plan.Rewrites {
		if r.Applied {
			applied = true
			if r.TableRows >= r.SourceRows {
				t.Errorf("applied rewrite does not shrink: %d of %d rows", r.TableRows, r.SourceRows)
			}
			if r.NewTime >= r.OldTime {
				t.Errorf("applied rewrite not priced cheaper: %v -> %v", r.OldTime, r.NewTime)
			}
		}
	}
	if !applied {
		t.Fatalf("no applied rewrite recorded:\n%s", sum)
	}
}

// TestExtVPBudgetHonored loads a twin store whose budget is one byte
// short of the unconstrained footprint: eviction must fire, live bytes
// must respect the budget, and results must stay correct.
func TestExtVPBudgetHonored(t *testing.T) {
	// Measure the unconstrained footprint first.
	big := extvpStore(t, 1<<30)
	for _, src := range extvpQueries {
		if _, err := big.Query(sparql.MustParse(src), QueryOptions{Strategy: StrategyVPOnly}); err != nil {
			t.Fatalf("measure query: %v", err)
		}
	}
	full := big.WorkloadMetrics()
	if full.TablesBuilt < 2 {
		t.Fatalf("measurement store built %d tables, need >= 2 for an eviction test", full.TablesBuilt)
	}

	s := extvpStore(t, full.TableBytes-1)
	plain := plainExtvpStore(t)
	for _, src := range extvpQueries {
		q := sparql.MustParse(src)
		want, err := plain.Query(q, QueryOptions{Strategy: StrategyVPOnly})
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		got, err := s.Query(q, QueryOptions{Strategy: StrategyVPOnly})
		if err != nil {
			t.Fatalf("budgeted: %v", err)
		}
		eqStrings(t, renderRows(got), renderRows(want), "budgeted cold "+src[:30])
	}
	met := s.WorkloadMetrics()
	if met.TableBytes > met.BudgetBytes {
		t.Errorf("live table bytes %d exceed budget %d", met.TableBytes, met.BudgetBytes)
	}
	if met.TablesEvicted == 0 {
		t.Errorf("budget one byte under the full footprint evicted nothing (metrics %+v)", met)
	}
	// Warm pass stays correct with a partial table set.
	for _, src := range extvpQueries {
		q := sparql.MustParse(src)
		want, _ := plain.Query(q, QueryOptions{Strategy: StrategyVPOnly})
		got, err := s.Query(q, QueryOptions{Strategy: StrategyVPOnly})
		if err != nil {
			t.Fatalf("budgeted warm: %v", err)
		}
		eqStrings(t, renderRows(got), renderRows(want), "budgeted warm "+src[:30])
	}
}

// TestExtVPFilesMatchLiveTables: the file system holds exactly the live
// reductions. Under a budget one byte short of the full footprint,
// evicted and rejected reductions must lose their files with their
// tables.
func TestExtVPFilesMatchLiveTables(t *testing.T) {
	big := extvpStore(t, 1<<30)
	for _, src := range extvpQueries {
		if _, err := big.Query(sparql.MustParse(src), QueryOptions{Strategy: StrategyVPOnly}); err != nil {
			t.Fatalf("measure query: %v", err)
		}
	}
	s := extvpStore(t, big.WorkloadMetrics().TableBytes-1)
	check := func(when string) {
		t.Helper()
		got := s.FS().LogicalBytes(s.opts.PathPrefix + "/extvp/")
		if live := s.WorkloadMetrics().TableBytes; got != live {
			t.Errorf("%s: %d bytes of reduction files on HDFS, %d bytes of live reductions", when, got, live)
		}
	}
	for i, src := range extvpQueries {
		if _, err := s.Query(sparql.MustParse(src), QueryOptions{Strategy: StrategyVPOnly}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		check(fmt.Sprintf("after query %d", i))
	}
	if s.WorkloadMetrics().TablesEvicted == 0 {
		t.Fatalf("the budgeted pass evicted nothing: the test exercises no drop")
	}
}

// TestExtVPObservedSeeding pins the cross-query feedback path: after
// one query executes a (predicate, constant) scan, a different query
// sharing the subpattern prices that leaf exactly, tagged est-source
// obs.
func TestExtVPObservedSeeding(t *testing.T) {
	s := extvpStore(t, 1<<20)
	first := sparql.MustParse(`SELECT ?u WHERE {
		?u <http://example.org/likes> <http://example.org/pB> .
	}`)
	res, err := s.Query(first, QueryOptions{Strategy: StrategyVPOnly})
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("likes-pB returned %d rows, want 2 (u1, u2)", len(res.Rows))
	}
	// A different query sharing the (likes, pB) subpattern.
	second := sparql.MustParse(`SELECT ?u ?v WHERE {
		?u <http://example.org/likes> <http://example.org/pB> .
		?u <http://example.org/follows> ?v .
	}`)
	pl, err := s.Plan(second, QueryOptions{Strategy: StrategyVPOnly})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	seeded := false
	for _, l := range pl.Leaves {
		if l.EstSource == plan.EstObserved {
			seeded = true
			if l.Est != 2 {
				t.Errorf("seeded estimate = %g, want the observed 2", l.Est)
			}
		}
	}
	if !seeded {
		t.Fatalf("no leaf seeded from the observed cardinality; leaves: %+v", pl.Leaves)
	}
	if got := s.EstSourceMetrics().Observed; got == 0 {
		t.Errorf("est-source counters recorded no observed-seeded node")
	}
}

// TestConcurrentExtVPQueriesDuringBuilds races 16 query goroutines
// (both executors, all strategies) whose mining builds reductions on
// their own goroutines; every result must match the plain store, and
// the file system must hold exactly the live reductions. Run under
// -race in CI's concurrent gate.
func TestConcurrentExtVPQueriesDuringBuilds(t *testing.T) {
	s := extvpStore(t, 1<<20)
	plain := plainExtvpStore(t)

	want := make(map[string][]string, len(extvpQueries))
	for _, src := range extvpQueries {
		res, err := plain.Query(sparql.MustParse(src), QueryOptions{})
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		want[src] = renderRows(res)
	}

	const workers = 16
	const rounds = 8
	strategies := []Strategy{StrategyMixed, StrategyVPOnly, StrategyMixedIPT}
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				src := extvpQueries[(w+r)%len(extvpQueries)]
				opts := QueryOptions{
					Strategy:  strategies[(w+r)%len(strategies)],
					Streaming: (w+r)%2 == 0,
				}
				res, err := s.Query(sparql.MustParse(src), opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %w", w, r, err)
					return
				}
				got := renderRows(res)
				exp := want[src]
				if len(got) != len(exp) {
					errs <- fmt.Errorf("worker %d round %d: %d rows, want %d", w, r, len(got), len(exp))
					return
				}
				for i := range got {
					if got[i] != exp[i] {
						errs <- fmt.Errorf("worker %d round %d row %d: %q != %q", w, r, i, got[i], exp[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The file system holds exactly the live reductions.
	if got, live := s.FS().LogicalBytes(s.opts.PathPrefix+"/extvp/"), s.WorkloadMetrics().TableBytes; got != live {
		t.Errorf("%d bytes of reduction files on HDFS, %d bytes of live reductions", got, live)
	}
}

// TestPlanCacheFeedbackWriteBackNoEvictionLoop is the FIFO regression
// test: with the cache at capacity and the working set exactly filling
// it, the corrected-plan write-back (same key, replaced in place) must
// not consume a new FIFO slot — an append there makes the stale slot
// pop a live entry and every subsequent run misses, corrects and
// rewrites forever.
func TestPlanCacheFeedbackWriteBackNoEvictionLoop(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	s, err := Load(correlatedGraph(), Options{Cluster: c, DisableJoinStats: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	s.planCache = newPlanCache(1)
	q := sparql.MustParse(adaptiveQuery)

	const runs = 5
	for i := 0; i < runs; i++ {
		res, err := s.Query(q, QueryOptions{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 && len(res.Replans) == 0 {
			t.Fatalf("first run did not correct its entry")
		}
		if i > 0 {
			if !res.CacheFeedback {
				t.Errorf("run %d missed the corrected entry (eviction loop)", i)
			}
			if len(res.Replans) != 0 {
				t.Errorf("run %d corrected again despite the corrected entry", i)
			}
		}
	}
	m := s.PlanCacheMetrics()
	if m.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (write-back must replace in place)", m.Evictions)
	}
	if m.Misses != 1 {
		t.Errorf("misses = %d, want 1 (only the first run plans)", m.Misses)
	}
	if m.FeedbackHits != runs-1 {
		t.Errorf("feedback hits = %d, want %d", m.FeedbackHits, runs-1)
	}
}

// TestPlanCacheReplaceInPlaceAtCapacity pins the put() contract
// directly: re-inserting an existing key at capacity neither evicts
// nor grows the FIFO order.
func TestPlanCacheReplaceInPlaceAtCapacity(t *testing.T) {
	c := newPlanCache(2)
	c.put("k1", &cachedPlan{})
	c.put("k2", &cachedPlan{})
	for i := 0; i < 10; i++ {
		c.put("k1", &cachedPlan{corrected: true})
	}
	m := c.metrics()
	if m.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", m.Evictions)
	}
	if m.Entries != 2 {
		t.Errorf("entries = %d, want 2", m.Entries)
	}
	if _, ok := c.get("k2"); !ok {
		t.Errorf("k2 evicted by an in-place replacement of k1")
	}
	if len(c.order) != 2 {
		t.Errorf("FIFO order grew to %d slots for 2 keys", len(c.order))
	}
}
