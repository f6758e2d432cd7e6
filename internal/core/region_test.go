package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// TestCancelledQueriesLeaveRegionsAlone cancels queries at every point
// of their execution — before the first operator, mid-scan, mid-join,
// inside the streaming pipelines — on both executors and at chunk sizes
// that fan scans out over several workers, while other goroutines run
// the same queries to completion. A cancelled query must return an
// error wrapping context.Canceled, and every completed one the reference
// rows. A worker that outlived its QueryContext would write into slabs
// the pool had already handed to another query: the race detector's
// finding, or another query's wrong rows.
func TestCancelledQueriesLeaveRegionsAlone(t *testing.T) {
	s := watdivStreamStore(t)
	queries := watdiv.BasicQuerySet()
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := s.Query(q.Parsed, QueryOptions{NoPlanCache: true})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want[i] = renderSorted(res)
	}
	const goroutines, rounds = 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				qi := rng.Intn(len(queries))
				opts := QueryOptions{Streaming: rng.Intn(2) == 0, chunkSize: []int{0, 16, 64}[rng.Intn(3)]}
				ctx, cancel := context.WithCancel(context.Background())
				if r%2 == 0 {
					time.AfterFunc(time.Duration(rng.Intn(200))*time.Microsecond, cancel)
				}
				res, err := s.QueryContext(ctx, queries[qi].Parsed, opts)
				cancel()
				switch {
				case err != nil && !errors.Is(err, context.Canceled):
					errs <- fmt.Errorf("%s: %w", queries[qi].Name, err)
				case err == nil && renderSorted(res) != want[qi]:
					errs <- fmt.Errorf("%s (streaming %v, chunk %d): rows differ from the reference", queries[qi].Name, opts.Streaming, opts.chunkSize)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReleasedRegionsPoisoned runs the suites that end queries every way
// they can end — completed on every planner, strategy and executor,
// extended, cancelled mid-flight, timed out before they start, finished
// while a scan helper has yet to start — with
// engine.PoisonReleased on, so that anything read from a query's region
// after it was released decodes as no term at all instead of passing by
// luck.
func TestReleasedRegionsPoisoned(t *testing.T) {
	defer engine.PoisonReleased(engine.PoisonReleased(true))
	t.Run("ByteIdentityMatrix", TestStreamingByteIdenticalOnWatDiv)
	t.Run("ExtendedMatrix", TestExtendedByteIdenticalOnWatDiv)
	t.Run("Cancelled", TestCancelledQueriesLeaveRegionsAlone)
	t.Run("LateHelper", TestStreamingLateHelper)
	t.Run("TimedOut", TestTimedOutQueryLeavesCacheUntouched)
}

// TestWarmQueryAllocsIndependentOfIntermediateRows is the region's
// allocation pin: once warm, a query allocates the same whether its
// intermediates hold a hundred rows or twenty thousand, on both
// executors — every scan output, shuffle, hash table, probe output,
// projection, sort permutation, dedup set, batch and sink copy is carved
// from the query's region. The queries join n subjects (a property-table
// star) to ten objects, through a shuffle (broadcasts off) and through a
// broadcast, and return ten rows whatever n is — DISTINCT over the ten
// objects' partners, or the first ten in ORDER BY order — so what
// decodeRows allocates is fixed too. A third query groups the n subjects'
// n distinct ?v values and keeps the first ten groups by count, so its
// aggregate table holds n groups and its result ten rows: the group
// table, its index and its sorted rows are region memory too. The
// streaming runs cut the scans into 512-row batches, so their batch count
// grows with n as well; the one thing that may grow is the virtual
// scheduler's record of the morsels it priced, 16 B a morsel.
func TestWarmQueryAllocsIndependentOfIntermediateRows(t *testing.T) {
	stores := map[int]*Store{}
	for _, n := range []int{100, 20000} {
		g := rdf.NewGraph(0)
		iri := func(f string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%s%s%d", testNS, f, i)) }
		for i := 0; i < n; i++ {
			g.AddSPO(iri("s", i), rdf.NewIRI(testNS+"p"), iri("o", i%10))
			g.AddSPO(iri("s", i), rdf.NewIRI(testNS+"r"), iri("v", i))
		}
		for i := 0; i < 10; i++ {
			g.AddSPO(iri("o", i), rdf.NewIRI(testNS+"q"), iri("x", i))
		}
		c := cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: 2})
		s, err := Load(g, Options{Cluster: c, BuildInversePT: true})
		if err != nil {
			t.Fatal(err)
		}
		stores[n] = s
	}
	where := " WHERE { ?s <" + testNS + "p> ?o . ?s <" + testNS + "r> ?v . ?o <" + testNS + "q> ?x }"
	grouped := "SELECT ?v (COUNT(?s) AS ?c) WHERE { ?s <" + testNS + "p> ?o . ?s <" + testNS + "r> ?v } GROUP BY ?v ORDER BY DESC(?c) ?v LIMIT 10"
	for _, text := range []string{"SELECT DISTINCT ?x" + where, "SELECT ?s ?x" + where + " ORDER BY ?x ?s LIMIT 10", grouped} {
		q := sparql.MustParse(text)
		for _, c := range []struct {
			name string
			opts QueryOptions
		}{
			{"materialized, shuffle", QueryOptions{BroadcastThreshold: -1}},
			{"materialized, broadcast", QueryOptions{}},
			{"streaming, shuffle", QueryOptions{BroadcastThreshold: -1, Streaming: true, chunkSize: 512}},
			{"streaming, broadcast", QueryOptions{Streaming: true, chunkSize: 512}},
		} {
			allocs := func(n int) (mallocs, bytes float64) {
				run := func() {
					res, err := stores[n].Query(q, c.opts)
					if err != nil || len(res.Rows) != 10 {
						t.Fatalf("%s, %d subjects: %d rows (err %v)", c.name, n, len(res.Rows), err)
					}
				}
				// The collector is off while it counts, and one processor
				// runs the query: a collection empties the slab pools, and a
				// goroutine that moved to another processor finds the slab
				// it put back in the old one's private slot — the pool's
				// refills are not the query's cost. On one processor a stage
				// also runs one task at a time: concurrent tasks carve in a
				// different order from run to run, so a query's slabs would
				// vary by one now and then.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				run()
				const runs = 20
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < runs; i++ {
					run()
				}
				runtime.ReadMemStats(&m1)
				return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
			}
			smallN, smallB := allocs(100)
			largeN, largeB := allocs(20000)
			t.Logf("%s, %s: %.1f allocations, %.0f B per query at 100 subjects; %.1f, %.0f B at 20,000", text[:17], c.name, smallN, smallB, largeN, largeB)
			if largeN > smallN+0.5 || largeB > smallB+1024 {
				t.Errorf("%s, %s: a warm query's allocations follow its intermediate rows: %.1f (%.0f B) at 100 subjects, %.1f (%.0f B) at 20,000", text[:17], c.name, smallN, smallB, largeN, largeB)
			}
		}
	}
}
