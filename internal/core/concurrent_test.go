package core

// Tests for the concurrent execution path introduced with the DAG
// scheduler: plan-cache behaviour (hits, invalidation, option
// isolation) and race-detector coverage of Store.Query under parallel
// callers. The TestConcurrent* names are load-bearing: CI runs
// `go test -race ./internal/core -run Concurrent` as a fast gate.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/watdiv"
)

const cacheTestQuery = `SELECT ?a ?g WHERE {
	?a <http://example.org/likes> ?p .
	?p <http://example.org/hasGenre> ?g .
}`

func TestPlanCacheHitOnRepeatedQuery(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(cacheTestQuery)
	base := s.PlanCacheMetrics()
	for i := 0; i < 5; i++ {
		if _, err := s.Query(q, QueryOptions{}); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	m := s.PlanCacheMetrics()
	if got := m.Misses - base.Misses; got != 1 {
		t.Errorf("misses = %d, want 1 (only the first run plans)", got)
	}
	if got := m.Hits - base.Hits; got != 4 {
		t.Errorf("hits = %d, want 4", got)
	}
	if m.Entries == 0 {
		t.Errorf("cache has no entries after a cached run")
	}
}

func TestPlanCacheMissAfterStatsReload(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(cacheTestQuery)
	want := runQuery(t, s, cacheTestQuery, StrategyMixed)
	base := s.PlanCacheMetrics()

	// Reload the statistics from a perturbed view of the data: the
	// fingerprint changes, so the cached plan must not be reused.
	st := stats.Collect(s.triples[:len(s.triples)-1])
	oldFP := s.statsFingerprint()
	s.swapStats(st)
	if s.statsFingerprint() == oldFP {
		t.Fatalf("stats fingerprint unchanged after reload")
	}
	res, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatalf("Query after reload: %v", err)
	}
	m := s.PlanCacheMetrics()
	if got := m.Misses - base.Misses; got != 1 {
		t.Errorf("misses after stats reload = %d, want 1 (old plan invalidated)", got)
	}
	if got := m.Hits - base.Hits; got != 0 {
		t.Errorf("hits after stats reload = %d, want 0", got)
	}
	// The data itself is unchanged, so results must match.
	eqStrings(t, renderRows(res), want, "post-reload result")
}

func TestPlanCacheNoCrossTalkBetweenOptions(t *testing.T) {
	s := testStore(t, true)
	q := sparql.MustParse(cacheTestQuery)
	variants := []QueryOptions{
		{},
		{Strategy: StrategyVPOnly},
		{Strategy: StrategyMixedIPT},
		{Planner: plan.ModeHeuristic},
		{Planner: plan.ModeNaive},
		{Planner: plan.ModeCostLeftDeep},
		{BroadcastThreshold: -1},
		{BroadcastThreshold: 1},
	}
	base := s.PlanCacheMetrics()
	for i, opts := range variants {
		if _, err := s.Query(q, opts); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	m := s.PlanCacheMetrics()
	if got := m.Misses - base.Misses; got != uint64(len(variants)) {
		t.Errorf("misses = %d, want %d (each option variant plans separately)", got, len(variants))
	}
	if got := m.Hits - base.Hits; got != 0 {
		t.Errorf("hits = %d, want 0 across distinct option variants", got)
	}
	// Re-running every variant hits its own entry.
	for i, opts := range variants {
		if _, err := s.Query(q, opts); err != nil {
			t.Fatalf("variant %d rerun: %v", i, err)
		}
	}
	m2 := s.PlanCacheMetrics()
	if got := m2.Hits - m.Hits; got != uint64(len(variants)) {
		t.Errorf("rerun hits = %d, want %d", got, len(variants))
	}
}

// TestPlanCacheBypass: a fresh store has an empty plan cache at
// generation 0, and NoPlanCache queries neither read nor write it.
func TestPlanCacheBypass(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(cacheTestQuery)
	base := s.PlanCacheMetrics()
	if base != (CacheMetrics{}) {
		t.Errorf("fresh store's plan cache: %+v, want empty at generation 0", base)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Query(q, QueryOptions{NoPlanCache: true}); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	m := s.PlanCacheMetrics()
	if m.Hits != base.Hits || m.Misses != base.Misses || m.Entries != base.Entries {
		t.Errorf("NoPlanCache queries touched the cache: %+v -> %+v", base, m)
	}
}

func TestPlanCacheHitRateOnRepeatedWorkload(t *testing.T) {
	// Acceptance check: >90% hit rate on a repeated-query workload with
	// byte-identical results to uncached planning.
	s := testStore(t, false)
	q := sparql.MustParse(cacheTestQuery)
	uncached, err := s.Query(q, QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatalf("uncached: %v", err)
	}
	want := renderRows(uncached)
	base := s.PlanCacheMetrics()
	const runs = 50
	for i := 0; i < runs; i++ {
		res, err := s.Query(q, QueryOptions{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		eqStrings(t, renderRows(res), want, fmt.Sprintf("cached run %d", i))
	}
	m := s.PlanCacheMetrics()
	hits := m.Hits - base.Hits
	misses := m.Misses - base.Misses
	rate := float64(hits) / float64(hits+misses)
	if rate < 0.9 {
		t.Errorf("hit rate = %.2f (%d hits / %d misses), want > 0.9", rate, hits, misses)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	s, err := Load(testGraph(), Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	s.planCache = newPlanCache(2)
	preds := []string{"likes", "follows", "age", "hasGenre"}
	for _, p := range preds {
		src := fmt.Sprintf(`SELECT ?s WHERE { ?s <http://example.org/%s> ?o . }`, p)
		if _, err := s.Query(sparql.MustParse(src), QueryOptions{}); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	m := s.PlanCacheMetrics()
	if m.Entries > 2 {
		t.Errorf("cache grew to %d entries, bound is 2", m.Entries)
	}
	if m.Evictions == 0 {
		t.Errorf("no evictions recorded after exceeding the bound")
	}
}

// TestConcurrentQueriesMatchSequential hammers Store.Query from 16
// goroutines (the -race gate) and checks every concurrent result is
// byte-identical to the sequential baseline, with deterministic
// simulated times.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 100, Seed: 7})
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	s, err := Load(g, Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	queries := watdiv.BasicQuerySet()[:8]

	render := func(res *Result) string {
		var sb strings.Builder
		for _, row := range res.SortedRows() {
			for i, term := range row {
				if i > 0 {
					sb.WriteByte('\t')
				}
				sb.WriteString(term.String())
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	want := make([]string, len(queries))
	wantSim := make([]int64, len(queries))
	for i, q := range queries {
		// Warm to the feedback-cache steady state: an execution may
		// correct its cache entry, so the stable SimTime is the cached
		// one every later run reproduces.
		var prev int64 = -1
		for r := 0; r < 6; r++ {
			res, err := s.Query(q.Parsed, QueryOptions{})
			if err != nil {
				t.Fatalf("%s sequential: %v", q.Name, err)
			}
			want[i] = render(res)
			wantSim[i] = int64(res.SimTime)
			if wantSim[i] == prev {
				break
			}
			prev = wantSim[i]
		}
	}

	const goroutines = 16
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (gi + r) % len(queries)
				res, err := s.Query(queries[qi].Parsed, QueryOptions{})
				if err != nil {
					errs <- fmt.Errorf("%s: %w", queries[qi].Name, err)
					return
				}
				if got := render(res); got != want[qi] {
					errs <- fmt.Errorf("%s: concurrent rows differ from sequential", queries[qi].Name)
					return
				}
				if int64(res.SimTime) != wantSim[qi] {
					errs <- fmt.Errorf("%s: concurrent SimTime %v != sequential %v (nondeterministic critical path)",
						queries[qi].Name, res.SimTime, wantSim[qi])
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentPlannerModesShareCacheSafely mixes planner modes and
// strategies across goroutines so cached entries for different keys are
// created and hit while other executions are in flight.
func TestConcurrentPlannerModesShareCacheSafely(t *testing.T) {
	s := testStore(t, true)
	q := sparql.MustParse(cacheTestQuery)
	want := runQuery(t, s, cacheTestQuery, StrategyMixed)
	variants := []QueryOptions{
		{},
		{Strategy: StrategyVPOnly},
		{Strategy: StrategyMixedIPT},
		{Planner: plan.ModeHeuristic},
		{Planner: plan.ModeCostLeftDeep},
		{Planner: plan.ModeNaive},
		{NoPlanCache: true},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for gi := 0; gi < 16; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				opts := variants[(gi+r)%len(variants)]
				res, err := s.Query(q, opts)
				if err != nil {
					errs <- err
					return
				}
				got := renderRows(res)
				if len(got) != len(want) {
					errs <- fmt.Errorf("variant %+v: %d rows, want %d", opts, len(got), len(want))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						errs <- fmt.Errorf("variant %+v: row %d = %q, want %q", opts, i, got[i], want[i])
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGoroutinesSettleAfterWarmQueries: a query ends every goroutine it
// starts. After 1,000 warm queries on each executor, with helpers
// fanning every stage and scan out, the goroutine count returns to what
// it was before them. (A helper that starts after its run's last claim
// ends after the query returned, so the count is given a moment.)
func TestGoroutinesSettleAfterWarmQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := testStore(t, true)
	q := sparql.MustParse(cacheTestQuery)
	for _, streaming := range []bool{false, true} {
		query := func() {
			if _, err := s.Query(q, QueryOptions{Streaming: streaming}); err != nil {
				t.Fatal(err)
			}
		}
		start := runtime.NumGoroutine()
		query()
		before := goroutinesAtMost(start)
		for range 1000 {
			query()
		}
		if after := goroutinesAtMost(before); after > before {
			t.Errorf("streaming %v: %d goroutines after 1,000 warm queries, %d before", streaming, after, before)
		}
	}
}

// goroutinesAtMost waits up to ten seconds for at most n goroutines to
// be left, and returns how many are.
func goroutinesAtMost(n int) int {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if got := runtime.NumGoroutine(); got <= n || time.Now().After(deadline) {
			return got
		}
	}
}
