package core

// Tests for correction between executions: a badly mis-estimated
// execution re-plans its cache entry from the cardinalities it
// observed, the feedback plan cache serves the corrected entry,
// per-query cancellation never writes back, and the corrected path is
// deterministic under concurrent callers (the TestConcurrent* names are
// load-bearing: CI's fast gate runs -run 'Concurrent|Adaptive').

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stats"
)

// correlatedGraph builds a graph whose join cardinalities break the
// independence assumption: predicates a and b share one hot object
// carried by 80% of their triples plus a distinct-value tail, so the
// planner's |A||B|/max(d) estimate misses the a⋈b join by >10x — the
// shape correction exists for. Predicate c hangs a second join off b's
// subjects, giving the corrected plan a join order to change, and d is
// an unrelated predicate for cache-isolation tests.
func correlatedGraph() *rdf.Graph {
	iri := func(s string) rdf.Term { return rdf.NewIRI(testNS + s) }
	g := rdf.NewGraph(0)
	add := func(s, p string, o rdf.Term) { g.AddSPO(iri(s), iri(p), o) }
	for i := 0; i < 100; i++ {
		if i < 80 {
			add(fmt.Sprintf("ua%d", i), "a", iri("hot"))
			add(fmt.Sprintf("ub%d", i), "b", iri("hot"))
		} else {
			add(fmt.Sprintf("ua%d", i), "a", iri(fmt.Sprintf("atail%d", i)))
			add(fmt.Sprintf("ub%d", i), "b", iri(fmt.Sprintf("btail%d", i)))
		}
		add(fmt.Sprintf("ub%d", i), "c", iri(fmt.Sprintf("w%d", i%7)))
		add(fmt.Sprintf("ua%d", i), "d", iri(fmt.Sprintf("x%d", i%3)))
	}
	return g
}

const adaptiveQuery = `SELECT ?x ?y ?w WHERE {
	?x <http://example.org/a> ?o .
	?y <http://example.org/b> ?o .
	?y <http://example.org/c> ?w .
}`

func adaptiveStore(t *testing.T) *Store {
	t.Helper()
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	// Join-graph statistics are disabled on purpose: the pair sketch for
	// a⋈b would price the correlated join exactly and nothing would ever
	// be corrected. These tests pin the correction itself, which
	// production stores only exercise for the shapes sketches cannot
	// express.
	s, err := Load(correlatedGraph(), Options{Cluster: c, DisableJoinStats: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

// TestAdaptiveReplanFiresAndKeepsResults checks the correction: the
// first execution runs the static plan to completion — same rows, same
// SimTime — and, because the correlated join missed its estimate beyond
// the bound, re-plans its cache entry from what it counted; the second
// execution reports the feedback provenance and runs the corrected plan,
// priced from those observations, to the same rows.
func TestAdaptiveReplanFiresAndKeepsResults(t *testing.T) {
	s := adaptiveStore(t)
	q := sparql.MustParse(adaptiveQuery)

	static, err := s.Query(q, QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	if len(static.Replans) != 0 {
		t.Errorf("an uncached execution corrected something: %+v", static.Replans)
	}
	first, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if first.SimTime != static.SimTime || first.Plan.String() != static.Plan.String() {
		t.Errorf("first execution did not run the static plan: %v vs %v\n%s\n%s", first.SimTime, static.SimTime, first.Plan, static.Plan)
	}
	if len(first.Replans) != 1 {
		t.Fatalf("correlated join (est misses actual >10x) made %d corrections, want 1", len(first.Replans))
	}
	ev := first.Replans[0]
	if ev.Ratio <= CorrectionBound || ev.Trigger == "" || ev.Observed == 0 {
		t.Errorf("correction event incomplete or under the bound: %+v", ev)
	}
	eqStrings(t, renderRows(first), renderRows(static), "first vs static rows")

	m := s.PlanCacheMetrics()
	if m.CorrectedEntries == 0 {
		t.Fatalf("a fully executed, mis-estimated run did not correct its entry (metrics %+v)", m)
	}
	second, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if !second.CacheFeedback {
		t.Errorf("second execution did not come from the feedback cache")
	}
	if got := s.PlanCacheMetrics().FeedbackHits; got == 0 {
		t.Errorf("feedback hit not counted (metrics %+v)", s.PlanCacheMetrics())
	}
	eqStrings(t, renderRows(second), renderRows(static), "feedback-cache rows")
	if sum := second.ReplanSummary(); !strings.Contains(sum, "feedback cache") {
		t.Errorf("ReplanSummary does not report feedback provenance:\n%s", sum)
	}
	if !strings.Contains(second.Plan.String(), "est-source="+plan.EstObserved) {
		t.Errorf("corrected plan prices nothing from an observation:\n%s", second.Plan)
	}
	// Every join the first execution counted is priced at its count, so
	// the corrected plan's worst error must be far below the bound.
	if ratio, at := second.Plan.MaxErrorRatio(); at != nil && ratio > CorrectionBound {
		t.Errorf("feedback plan still reports %.1fx estimation error at %s", ratio, at.Label)
	}
	if second.SimTime > first.SimTime {
		t.Errorf("corrected plan (%v) slower than the static plan (%v)", second.SimTime, first.SimTime)
	}
	if am := s.AdaptiveMetrics(); am.Corrections != 1 {
		t.Errorf("store correction counter %+v, want 1", am)
	}
}

// TestAdaptiveDisabledForPaperModes keeps the heuristic and naive
// planners exactly static: they reproduce the paper's measurements and
// their cache entries are never corrected, whatever the estimation
// error.
func TestAdaptiveDisabledForPaperModes(t *testing.T) {
	s := adaptiveStore(t)
	q := sparql.MustParse(adaptiveQuery)
	for _, mode := range []plan.Mode{plan.ModeHeuristic, plan.ModeNaive} {
		for run := 0; run < 2; run++ {
			res, err := s.Query(q, QueryOptions{Planner: mode})
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if len(res.Replans) != 0 || res.CacheFeedback {
				t.Errorf("%v planner run %d corrected its plan; the paper modes must stay static", mode, run)
			}
		}
	}
	if m := s.PlanCacheMetrics(); m.CorrectedEntries != 0 {
		t.Errorf("paper-mode executions corrected %d entries", m.CorrectedEntries)
	}
}

// TestAdaptiveFaultRecomputeKeepsRows is the regression test for a bug
// of mid-query re-planning: under corrupted exchanges on the correlated
// store, lineage recompute reached a Bound leaf of a re-planned round
// whose relation had already been handed on, and the query failed with
// "bound leaf … lost its relation during lineage recompute". Every plan
// now runs to completion, so recompute only ever re-executes operators
// of the one plan: the faulted run must return the fault-free rows.
func TestAdaptiveFaultRecomputeKeepsRows(t *testing.T) {
	s := adaptiveStore(t)
	q := sparql.MustParse(adaptiveQuery)
	clean, err := s.Query(q, QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	res, err := s.Query(q, QueryOptions{NoPlanCache: true, Faults: &cluster.FaultPlan{Seed: 2, CorruptRate: 0.5}})
	if err != nil {
		t.Fatalf("faulted: %v", err)
	}
	if res.Resilience.ChecksumFailures == 0 {
		t.Errorf("the fault plan corrupted no exchange; the test no longer reaches lineage recompute")
	}
	eqStrings(t, renderRows(res), renderRows(clean), "faulted vs clean rows")
}

// TestTimedOutQueryLeavesCacheUntouched is the poisoning regression: a
// query cancelled mid-flight must not write a corrected plan back, and
// the entry the static planning inserted must keep serving correct
// results afterwards.
func TestTimedOutQueryLeavesCacheUntouched(t *testing.T) {
	s := adaptiveStore(t)
	q := sparql.MustParse(adaptiveQuery)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := s.QueryContext(ctx, q, QueryOptions{})
	if err == nil {
		t.Fatalf("expired deadline did not fail the query")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CancelError", err)
	}
	if !strings.Contains(err.Error(), "plan tasks") {
		t.Errorf("cancel error lacks partial trace info: %v", err)
	}
	if m := s.PlanCacheMetrics(); m.CorrectedEntries != 0 {
		t.Fatalf("timed-out query poisoned the cache with %d corrected entries", m.CorrectedEntries)
	}

	static, err := s.Query(q, QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	res, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
	eqStrings(t, renderRows(res), renderRows(static), "post-timeout result")
}

// TestFeedbackEntryInvalidatedByGenerationBump pins the generation
// counter: reloading statistics — even bit-identical ones, where the
// fingerprint key cannot change — strands corrected entries, because
// they were re-planned from observations of the old data.
func TestFeedbackEntryInvalidatedByGenerationBump(t *testing.T) {
	s := adaptiveStore(t)
	q := sparql.MustParse(adaptiveQuery)
	if _, err := s.Query(q, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if m := s.PlanCacheMetrics(); m.CorrectedEntries == 0 {
		t.Fatalf("no corrected entry to invalidate (metrics %+v)", m)
	}
	base := s.PlanCacheMetrics()

	s.swapStats(stats.Collect(s.triples)) // same data, same fingerprint, new generation
	res, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheFeedback {
		t.Errorf("stale-generation corrected entry served after stats reload")
	}
	m := s.PlanCacheMetrics()
	if m.Generation != base.Generation+1 {
		t.Errorf("generation = %d, want %d", m.Generation, base.Generation+1)
	}
	if got := m.Misses - base.Misses; got == 0 {
		t.Errorf("post-reload lookup did not miss (metrics %+v)", m)
	}
}

// TestStaleGenerationFreesFIFOSlot pins the cache's eviction
// bookkeeping: dropping a generation-stale entry must free its FIFO
// slot, so re-inserting the same key afterwards holds exactly one slot
// and eviction never removes the live entry early.
func TestStaleGenerationFreesFIFOSlot(t *testing.T) {
	c := newPlanCache(2)
	c.put("a", &cachedPlan{})
	c.bumpGeneration()
	if _, ok := c.get("a"); ok {
		t.Fatalf("stale-generation entry served")
	}
	c.put("a", &cachedPlan{corrected: true}) // re-insert after the lazy drop
	c.put("b", &cachedPlan{})                // fills the cache; nothing may evict yet
	if e, ok := c.get("a"); !ok || !e.corrected {
		t.Fatalf("re-inserted entry lost (ok=%v): stale FIFO slot evicted the live entry", ok)
	}
	if m := c.metrics(); m.Entries != 2 || m.Evictions != 0 {
		t.Fatalf("metrics %+v, want 2 entries and no evictions", m)
	}
}

// TestConcurrentStatsReloadWithSketches reloads the join-graph
// statistics (different sketch top-K → different fingerprint AND a
// generation bump) while 16 goroutines keep querying — the -race gate
// for swapStats under load. The store's statistics are swapped for a
// collection with one pair sketch right after loading, so
// the a⋈b correlation stays uncovered and executions write corrected
// feedback entries; the reload must strand them, and no
// post-reload execution may serve a plan priced against the old
// sketches: a post-reload query's estimates must match a fresh plan
// built from the new collection.
func TestConcurrentStatsReloadWithSketches(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	s, err := Load(correlatedGraph(), Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	s.swapStats(stats.CollectJoinStats(s.triples, stats.Config{CSets: true, SketchTopK: 1}))
	q := sparql.MustParse(adaptiveQuery)
	static, err := s.Query(q, QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	want := renderRows(static)

	// Warm to a corrected feedback entry (the top-1 sketch bound leaves
	// the correlated pair uncovered, so the estimate still misses).
	if _, err := s.Query(q, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if m := s.PlanCacheMetrics(); m.CorrectedEntries == 0 {
		t.Fatalf("no corrected entry before the reload (metrics %+v); the sketch bound no longer leaves the correlated join uncovered", m)
	}
	baseGen := s.PlanCacheMetrics().Generation

	const goroutines = 16
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	start := make(chan struct{})
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				res, err := s.Query(q, QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				got := renderRows(res)
				if len(got) != len(want) {
					errs <- fmt.Errorf("goroutine %d round %d: %d rows, want %d", gi, r, len(got), len(want))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						errs <- fmt.Errorf("goroutine %d round %d: row %d = %q, want %q", gi, r, i, got[i], want[i])
						return
					}
				}
			}
		}(gi)
	}
	close(start)
	// Two reloads with different sketch bounds while queries are in
	// flight: fingerprints differ each time, generations advance.
	s.swapStats(stats.CollectJoinStats(s.triples, stats.Config{CSets: true, SketchTopK: 2}))
	s.swapStats(stats.CollectJoinStats(s.triples, stats.Config{CSets: true, SketchTopK: 3}))
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.PlanCacheMetrics()
	if m.Generation != baseGen+2 {
		t.Errorf("generation = %d, want %d after two reloads", m.Generation, baseGen+2)
	}

	// No plan priced against the old sketches may be served: a fresh
	// post-reload execution's estimates must match a from-scratch plan
	// built over the current collection.
	res, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Plan(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantEst := res.Plan.Root.Est, fresh.Root.Est; got != wantEst {
		// The served plan may be a corrected entry written back AFTER
		// the reload — that is current-generation feedback, not
		// staleness — so only a non-feedback plan must match.
		if !res.CacheFeedback {
			t.Errorf("post-reload plan root est %g != fresh plan est %g (stale sketch pricing served)", got, wantEst)
		}
	}
	eqStrings(t, renderRows(res), want, "post-reload result")
}

// TestConcurrentAdaptiveReplanSharedCache hammers the corrected path
// from 16 goroutines against one shared store and plan cache (the
// -race gate): every result must be byte-identical to the sequential
// baseline, and once the feedback cache reaches steady state the
// simulated times must be deterministic too — a plan's SimTime depends
// only on the plan and the data, never on pool interleaving.
func TestConcurrentAdaptiveReplanSharedCache(t *testing.T) {
	s := adaptiveStore(t)
	queries := []string{
		adaptiveQuery,
		`SELECT ?x ?o WHERE { ?x <http://example.org/a> ?o . ?y <http://example.org/b> ?o . }`,
		`SELECT ?y ?w WHERE { ?y <http://example.org/c> ?w . ?y <http://example.org/b> ?o . }`,
		`SELECT ?x WHERE { ?x <http://example.org/d> ?v . ?x <http://example.org/a> ?o . }`,
	}
	parsed := make([]*sparql.Query, len(queries))
	want := make([][]string, len(queries))
	wantSim := make([]time.Duration, len(queries))
	for i, src := range queries {
		parsed[i] = sparql.MustParse(src)
		// Sequential steady state: corrected plans may be corrected once
		// more before the cache stabilizes.
		var prev time.Duration = -1
		for r := 0; r < 6; r++ {
			res, err := s.Query(parsed[i], QueryOptions{})
			if err != nil {
				t.Fatalf("query %d warmup: %v", i, err)
			}
			want[i] = renderRows(res)
			wantSim[i] = res.SimTime
			if res.SimTime == prev {
				break
			}
			prev = res.SimTime
		}
	}

	const goroutines = 16
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (gi + r) % len(parsed)
				res, err := s.Query(parsed[qi], QueryOptions{})
				if err != nil {
					errs <- fmt.Errorf("query %d: %w", qi, err)
					return
				}
				got := renderRows(res)
				if len(got) != len(want[qi]) {
					errs <- fmt.Errorf("query %d: %d rows, want %d", qi, len(got), len(want[qi]))
					return
				}
				for i := range got {
					if got[i] != want[qi][i] {
						errs <- fmt.Errorf("query %d row %d: %q != %q", qi, i, got[i], want[qi][i])
						return
					}
				}
				if res.SimTime != wantSim[qi] {
					errs <- fmt.Errorf("query %d: concurrent SimTime %v != steady-state %v", qi, res.SimTime, wantSim[qi])
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
