package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/testenv"
	"repro/internal/watdiv"
)

// streamStoreOnce shares one WatDiv store across the streaming tests
// (loading dominates their runtime; queries are read-only).
var (
	streamStoreOnce sync.Once
	streamStore     *Store
	streamGraph     *rdf.Graph // the generated triples, for reference evaluation
)

func watdivStreamStore(t testing.TB) *Store {
	streamStoreOnce.Do(func() {
		g := watdiv.MustGenerate(watdiv.Config{Scale: 120, Seed: 11})
		c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
		s, err := Load(g, Options{Cluster: c, BuildInversePT: true})
		if err != nil {
			panic(err)
		}
		streamStore = s
		streamGraph = g
	})
	if streamStore == nil {
		t.Fatal("WatDiv store failed to load")
	}
	return streamStore
}

func renderSorted(res *Result) string {
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

var streamStrategies = []Strategy{StrategyMixed, StrategyVPOnly, StrategyMixedIPT}
var streamPlanners = []plan.Mode{plan.ModeNaive, plan.ModeCost, plan.ModeCostLeftDeep, plan.ModeHeuristic}

// TestStreamingByteIdenticalOnWatDiv is the streaming-correctness
// property test: for every WatDiv query, across all four planner modes
// and all three storage strategies, the morsel-driven streaming
// executor must return byte-identical sorted rows to the materialized
// scheduler.
func TestStreamingByteIdenticalOnWatDiv(t *testing.T) {
	s := watdivStreamStore(t)
	for _, q := range watdiv.BasicQuerySet() {
		for _, strat := range streamStrategies {
			for _, mode := range streamPlanners {
				base := QueryOptions{Strategy: strat, Planner: mode, NoPlanCache: true}
				mat, err := s.Query(q.Parsed, base)
				if err != nil {
					t.Fatalf("%s/%s/%v materialized: %v", q.Name, strat, mode, err)
				}
				opts := base
				opts.Streaming = true
				str, err := s.Query(q.Parsed, opts)
				if err != nil {
					t.Fatalf("%s/%s/%v streaming: %v", q.Name, strat, mode, err)
				}
				if !str.Streamed {
					t.Fatalf("%s/%s/%v: streaming query fell back to the materialized path", q.Name, strat, mode)
				}
				if got, want := renderSorted(str), renderSorted(mat); got != want {
					t.Errorf("%s/%s/%v: streaming rows differ from materialized\nplan:\n%s", q.Name, strat, mode, str.Plan)
				}
			}
		}
	}
}

// TestStreamingByteIdenticalUnderFaults re-runs the identity property
// under a seeded rates-only fault plan: injected morsel retries,
// stragglers, speculation and corrupted deliveries may reshape the
// virtual timeline, but never the rows.
func TestStreamingByteIdenticalUnderFaults(t *testing.T) {
	s := watdivStreamStore(t)
	fp := &cluster.FaultPlan{
		Seed:          42,
		FailRate:      0.15,
		StragglerRate: 0.1,
		CorruptRate:   0.1,
	}
	for _, q := range watdiv.BasicQuerySet() {
		base := QueryOptions{Strategy: StrategyMixed, NoPlanCache: true}
		mat, err := s.Query(q.Parsed, base)
		if err != nil {
			t.Fatalf("%s materialized: %v", q.Name, err)
		}
		opts := base
		opts.Streaming = true
		opts.Faults = fp
		str, err := s.Query(q.Parsed, opts)
		if err != nil {
			t.Fatalf("%s streaming+faults: %v", q.Name, err)
		}
		if !str.Streamed {
			t.Fatalf("%s: fell back to materialized", q.Name)
		}
		if str.Resilience.Attempts == 0 {
			t.Errorf("%s: active fault plan recorded no morsel attempts", q.Name)
		}
		if got, want := renderSorted(str), renderSorted(mat); got != want {
			t.Errorf("%s: rows differ under fault injection", q.Name)
		}
		clean := base
		clean.Streaming = true
		cleanRes, err := s.Query(q.Parsed, clean)
		if err != nil {
			t.Fatalf("%s streaming clean: %v", q.Name, err)
		}
		if str.SimTime < cleanRes.SimTime {
			t.Errorf("%s: faulted SimTime %v below clean %v", q.Name, str.SimTime, cleanRes.SimTime)
		}
		if overhead := str.SimTime - cleanRes.SimTime; overhead > str.Resilience.RecoveryTime {
			t.Errorf("%s: SimTime overhead %v exceeds priced recovery %v", q.Name, overhead, str.Resilience.RecoveryTime)
		}
	}
}

// TestStreamingSimTimeWithinBudget is the perf acceptance gate: on
// every WatDiv query (Mixed strategy, cost planner), streaming SimTime
// must not regress more than 5% over the materialized executor.
func TestStreamingSimTimeWithinBudget(t *testing.T) {
	s := watdivStreamStore(t)
	for _, q := range watdiv.BasicQuerySet() {
		base := QueryOptions{Strategy: StrategyMixed, NoPlanCache: true}
		mat, err := s.Query(q.Parsed, base)
		if err != nil {
			t.Fatalf("%s materialized: %v", q.Name, err)
		}
		opts := base
		opts.Streaming = true
		str, err := s.Query(q.Parsed, opts)
		if err != nil {
			t.Fatalf("%s streaming: %v", q.Name, err)
		}
		if limit := mat.SimTime + mat.SimTime/20; str.SimTime > limit {
			t.Errorf("%s: streaming SimTime %v exceeds 105%% of materialized %v",
				q.Name, str.SimTime, mat.SimTime)
		}
	}
}

// TestStreamingFirstRowBeatsSimTime checks the latency half of the
// tentpole: on every multi-join query that returns rows, the first
// result morsel lands at the driver strictly before the query
// completes.
func TestStreamingFirstRowBeatsSimTime(t *testing.T) {
	s := watdivStreamStore(t)
	checked := 0
	for _, q := range watdiv.BasicQuerySet() {
		res, err := s.Query(q.Parsed, QueryOptions{Strategy: StrategyMixed, Streaming: true, NoPlanCache: true})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !res.Streamed || len(res.Rows) == 0 {
			continue
		}
		if res.FirstRow <= 0 {
			t.Errorf("%s: streamed query with %d rows has no FirstRow", q.Name, len(res.Rows))
			continue
		}
		if res.FirstRow >= res.SimTime {
			t.Errorf("%s: FirstRow %v not earlier than SimTime %v", q.Name, res.FirstRow, res.SimTime)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no streamed query with rows was checked")
	}
}

// TestStreamingPeakMemoryDrop checks the memory half of the tentpole:
// on the C-family queries (Mixed strategy) the streaming executor's
// peak intermediate footprint is at least 4x below the materialized
// scheduler's. The comparison runs at the default cluster shape
// (9 workers) — the broadcast-replica share of the materialized peak
// scales with min(workers, partitions), so the narrow 4-worker store
// the other tests share would understate the production gap.
func TestStreamingPeakMemoryDrop(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 120, Seed: 11})
	c := cluster.MustNew(cluster.Config{Workers: 9})
	s, err := Load(g, Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, q := range watdiv.BasicQuerySet() {
		if q.Group != "C" {
			continue
		}
		base := QueryOptions{Strategy: StrategyMixed, NoPlanCache: true}
		mat, err := s.Query(q.Parsed, base)
		if err != nil {
			t.Fatalf("%s materialized: %v", q.Name, err)
		}
		opts := base
		opts.Streaming = true
		str, err := s.Query(q.Parsed, opts)
		if err != nil {
			t.Fatalf("%s streaming: %v", q.Name, err)
		}
		if !str.Streamed {
			t.Fatalf("%s: fell back to materialized", q.Name)
		}
		if mat.PeakMemBytes <= 0 || str.PeakMemBytes <= 0 {
			t.Fatalf("%s: peak bytes not tracked (mat=%d stream=%d)", q.Name, mat.PeakMemBytes, str.PeakMemBytes)
		}
		if ratio := float64(mat.PeakMemBytes) / float64(str.PeakMemBytes); ratio < 4 {
			t.Errorf("%s: peak memory ratio %.2fx (mat %d B / stream %d B), want >= 4x",
				q.Name, ratio, mat.PeakMemBytes, str.PeakMemBytes)
		}
	}
}

// TestStreamingTakesLimit locks in the removal of the old silent
// LIMIT/OFFSET fallback: a LIMIT query now runs on the streaming
// executor (as a bounded top-K sink), returns exactly the limited row
// count, and matches the materialized path byte for byte.
func TestStreamingTakesLimit(t *testing.T) {
	s := testStore(t, false)
	src := `SELECT ?u ?v WHERE {
		?u <http://example.org/follows> ?v .
		?v <http://example.org/likes> ?p .
	} LIMIT 2`
	res, err := s.Query(sparql.MustParse(src), QueryOptions{Streaming: true})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Streamed {
		t.Error("LIMIT query fell back to the materialized path")
	}
	if len(res.Rows) != 2 {
		t.Errorf("LIMIT 2 returned %d rows", len(res.Rows))
	}
	mat, err := s.Query(sparql.MustParse(src), QueryOptions{})
	if err != nil {
		t.Fatalf("materialized Query: %v", err)
	}
	if got, want := renderSorted(res), renderSorted(mat); got != want {
		t.Errorf("streamed LIMIT rows differ from materialized:\ngot:\n%swant:\n%s", got, want)
	}
}

// allWatDivQueries is the full 26-query surface: the 20 basic queries
// plus E1..E6.
func allWatDivQueries() []watdiv.Query {
	return append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...)
}

// renderComparable renders a result for comparison across executors:
// positionally when the query fixes the order or the window (ORDER BY,
// LIMIT, OFFSET), as a sorted multiset otherwise.
func renderComparable(q *sparql.Query, res *Result) string {
	if q.Limit >= 0 || q.Offset > 0 || len(q.Order) > 0 {
		return renderInOrder(res)
	}
	return renderSorted(res)
}

// TestStreamingChunkSizeInvariance: the chunk size changes batch
// and morsel granularity, never results. Sinks keep the rows they are
// handed instead of copies, so a step that handed on a row it later
// overwrote (or a header slice compacted under a reader) would show at
// the small sizes, where every row is its own batch. Every scan runs on
// min(GOMAXPROCS, partitions) workers whatever the chunk size, so under
// -cpu 1,2,4 the race detector sees the small batches shared between
// workers too.
func TestStreamingChunkSizeInvariance(t *testing.T) {
	s := watdivStreamStore(t)
	for _, q := range allWatDivQueries() {
		base := QueryOptions{Strategy: StrategyMixed, NoPlanCache: true}
		mat, err := s.Query(q.Parsed, base)
		if err != nil {
			t.Fatalf("%s materialized: %v", q.Name, err)
		}
		want := renderComparable(q.Parsed, mat)
		for _, chunk := range []int{1, 7, 64, 2048, 1 << 16} {
			opts := base
			opts.Streaming, opts.chunkSize = true, chunk
			res, err := s.Query(q.Parsed, opts)
			if err != nil {
				t.Fatalf("%s chunk %d: %v", q.Name, chunk, err)
			}
			if !res.Streamed {
				t.Fatalf("%s chunk %d: fell back", q.Name, chunk)
			}
			if got := renderComparable(q.Parsed, res); got != want {
				t.Errorf("%s chunk %d: rows differ from materialized", q.Name, chunk)
			}
		}
	}
}

// TestStreamingSameAtAnyParallelism: how many workers a scan fans out
// over is real-time scheduling, never a result. Every WatDiv query at
// GOMAXPROCS 2, 4 and 8 must return what it returns at 1 — in order
// under ORDER BY or LIMIT, as a multiset otherwise — at a chunk size
// that cuts partitions into many batches and at the default, and the
// virtual clock must not see the worker count: SimTime, FirstRow,
// PeakMemBytes and every stamped observation are bit-identical.
func TestStreamingSameAtAnyParallelism(t *testing.T) {
	s := watdivStreamStore(t)
	for _, q := range allWatDivQueries() {
		for _, chunk := range []int{7, 0} {
			run := func(par int) *Result {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				res, err := s.Query(q.Parsed, QueryOptions{Strategy: StrategyMixed, Streaming: true, chunkSize: chunk, NoPlanCache: true})
				if err != nil {
					t.Fatalf("%s chunk %d GOMAXPROCS %d: %v", q.Name, chunk, par, err)
				}
				return res
			}
			one := run(1)
			want, wantPlan := renderComparable(q.Parsed, one), one.Plan.String()
			for _, par := range []int{2, 4, 8} {
				res := run(par)
				if got := renderComparable(q.Parsed, res); got != want {
					t.Errorf("%s chunk %d: rows at GOMAXPROCS %d differ from GOMAXPROCS 1", q.Name, chunk, par)
				}
				if res.SimTime != one.SimTime || res.FirstRow != one.FirstRow || res.PeakMemBytes != one.PeakMemBytes {
					t.Errorf("%s chunk %d GOMAXPROCS %d: SimTime %v, FirstRow %v, PeakMemBytes %d; GOMAXPROCS 1: %v, %v, %d",
						q.Name, chunk, par, res.SimTime, res.FirstRow, res.PeakMemBytes, one.SimTime, one.FirstRow, one.PeakMemBytes)
				}
				if got := res.Plan.String(); got != wantPlan {
					t.Errorf("%s chunk %d GOMAXPROCS %d: observations differ\n%s\nGOMAXPROCS 1:\n%s", q.Name, chunk, par, got, wantPlan)
				}
			}
		}
	}
}

// TestStreamingGroupByAtAnyParallelism: a fanned-out aggregate keeps a
// group table per worker and merges them at finalize, so the groups
// must come out as the materialized executor's at any worker count — one
// group and 20,000, COUNT(*) beside COUNT(?v) over an OPTIONAL that
// leaves every other ?v unbound, and the groups' raw-ID order.
func TestStreamingGroupByAtAnyParallelism(t *testing.T) {
	const n = 20000
	g := rdf.NewGraph(0)
	iri := func(f string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%s%s%d", testNS, f, i)) }
	for i := 0; i < n; i++ {
		g.AddSPO(iri("s", i), rdf.NewIRI(testNS+"p"), iri("o", 0))
		if i%2 == 0 {
			g.AddSPO(iri("s", i), rdf.NewIRI(testNS+"r"), iri("v", i/2))
		}
	}
	s, err := Load(g, Options{Cluster: cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	where := " WHERE { ?s <" + testNS + "p> ?o OPTIONAL { ?s <" + testNS + "r> ?v } }"
	for _, c := range []struct {
		text   string
		groups int
	}{
		{"SELECT ?o (COUNT(*) AS ?all) (COUNT(?v) AS ?bound)" + where + " GROUP BY ?o", 1},
		{"SELECT ?s (COUNT(?v) AS ?bound) (COUNT(*) AS ?all)" + where + " GROUP BY ?s", n},
		{"SELECT ?v (COUNT(*) AS ?all)" + where + " GROUP BY ?v", n/2 + 1},
	} {
		q := sparql.MustParse(c.text)
		mat, err := s.Query(q, QueryOptions{NoPlanCache: true})
		if err != nil {
			t.Fatalf("%s materialized: %v", c.text, err)
		}
		if len(mat.Rows) != c.groups {
			t.Fatalf("%s: %d groups materialized, want %d", c.text, len(mat.Rows), c.groups)
		}
		want := renderInOrder(mat)
		for par := 1; par <= 8; par++ {
			runtime.GOMAXPROCS(par)
			for _, chunk := range []int{7, 0} {
				res, err := s.Query(q, QueryOptions{Streaming: true, chunkSize: chunk, NoPlanCache: true})
				if err != nil {
					t.Fatalf("%s GOMAXPROCS %d chunk %d: %v", c.text, par, chunk, err)
				}
				if got := renderInOrder(res); got != want {
					t.Errorf("%s GOMAXPROCS %d chunk %d: groups differ from materialized", c.text, par, chunk)
				}
			}
		}
	}
}

// flipCtx is a context whose Err reports context.Canceled from its
// after-th call on: a cancellation at an exact point of the execution.
type flipCtx struct {
	context.Context
	calls, after int64
	mu           sync.Mutex
}

func (c *flipCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestStreamingCancelCountsPipelines: a streamed query cancelled at any
// point — between pipelines or inside a scan fanned out over several
// workers — reports how many of its pipelines completed, out of all of
// them, like a cancellation between pipelines always did. A scan's
// claimed partition index, reported as "plan tasks", counted partitions
// still running on another worker, out of the scan's partitions.
func TestStreamingCancelCountsPipelines(t *testing.T) {
	s := watdivStreamStore(t)
	q := mustQueryByName(t, "C1")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	opts := QueryOptions{Strategy: StrategyMixed, Streaming: true, chunkSize: 7}
	res, err := s.Query(q.Parsed, opts)
	if err != nil {
		t.Fatal(err)
	}
	pipes := 0
	for _, st := range res.Clock.Stages() {
		if strings.HasPrefix(st.Name, "pipeline ") {
			pipes++
		}
	}
	// Each pipeline asks the context once before it starts; every other
	// point the query can be cancelled at is inside a scan.
	cancels := 0
	for after := int64(0); ; after++ {
		ctx := &flipCtx{Context: context.Background(), after: after}
		_, err := s.QueryContext(ctx, q.Parsed, opts)
		if err == nil {
			break
		}
		var ce *CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("cancelled after %d Err calls: %v, want a *CancelError", after, err)
		}
		if ce.TotalTasks != pipes || ce.CompletedTasks < 0 || ce.CompletedTasks >= pipes {
			t.Errorf("cancelled after %d Err calls: %d/%d plan tasks completed, want k/%d with k < %d", after, ce.CompletedTasks, ce.TotalTasks, pipes, pipes)
		}
		cancels++
	}
	t.Logf("%d pipelines; cancelled at %d points", pipes, cancels)
	if cancels <= pipes {
		t.Errorf("cancelled at %d points, no more than the %d pipelines: none inside a scan", cancels, pipes)
	}
}

// TestStreamingLateHelper holds every scan helper back before its first
// claim, as a helper whose goroutine the runtime starts late. The
// pipelines must finish on the calling goroutine alone, every partition
// claimed and scanned, with the rows of a run without helpers. Released
// after the query's region is, each helper must take nothing but its
// failed claim: no worker slot, so no arena, and no carve from the
// released region (TestReleasedRegionsPoisoned runs this with released
// slabs poisoned, under -race in CI).
func TestStreamingLateHelper(t *testing.T) {
	s := watdivStreamStore(t)
	const par = 4
	for _, name := range []string{"C1", "E5"} {
		q := mustQueryByName(t, name)
		r, err := s.resolve(q.Parsed, QueryOptions{Strategy: StrategyMixed, Streaming: true, NoPlanCache: true})
		if err != nil {
			t.Fatal(err)
		}
		entry, _, err := s.planEntry(q.Parsed, r)
		if err != nil {
			t.Fatal(err)
		}
		filters, err := s.compileFilters(q.Parsed)
		if err != nil {
			t.Fatal(err)
		}
		// rows runs the plan in a region of its own and returns its result
		// rows, sorted, and the plan it ran.
		rows := func(par int, region *engine.Region) ([]string, *streamPlan) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			sp, err := s.compileStreamPlan(entry.plan, entry.nodes, filters, region)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- sp.run(context.Background(), s, 7) }()
			select {
			case err = <-done:
			case <-time.After(time.Minute):
				t.Fatalf("%s: the pipelines are waiting for a held helper", name)
			}
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := sp.finalRows(s)
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for _, b := range blocks {
				for i := 0; i < b.Len(); i++ {
					out = append(out, fmt.Sprint(b.Row(i)))
				}
			}
			slices.Sort(out)
			return out, sp
		}
		ref := engine.NewRegion()
		want, _ := rows(1, ref)
		ref.Release()

		// Helpers earlier queries started that have yet to run hold their
		// pipes on the channel, and a full channel starts no helper; let
		// them go first, so that the helpers counted below are this
		// query's.
		for deadline := time.Now().Add(time.Minute); !cluster.HelpersStarted(); {
			if time.Now().After(deadline) {
				t.Fatal("helpers never started")
			}
			time.Sleep(time.Millisecond)
		}
		var held atomic.Int64
		hold := make(chan struct{})
		hook := func() { held.Add(1); <-hold }
		cluster.HelperHook.Store(&hook)
		region := engine.NewRegion()
		got, sp := rows(par, region)
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d rows with held helpers, %d without", name, len(got), len(want))
		}
		// Each fanned-out pipe started min(par, partitions)-1 helpers; the
		// caller claimed every partition and once more.
		helpers, fanned := int64(0), 0
		for _, p := range sp.pipes {
			if k := p.src.kind; k != scanVP && k != scanPT {
				continue
			}
			fanned++
			helpers += int64(min(par, p.src.parts) - 1)
			if next, _ := p.tasks.Claims(); next != int64(p.src.parts)+1 {
				t.Errorf("%s: pipeline %s: queue at %d, want every one of %d partitions claimed, by the caller", name, p.name, next, p.src.parts)
			}
		}
		if fanned == 0 || helpers == 0 {
			t.Fatalf("%s: no scan fanned out", name)
		}
		t.Logf("%s: %d pipelines fanned out, %d helpers held", name, fanned, helpers)
		region.Release()
		for deadline := time.Now().Add(time.Minute); held.Load() < helpers; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d helpers started", name, held.Load(), helpers)
			}
			time.Sleep(time.Millisecond)
		}
		cluster.HelperHook.Store(nil)
		close(hold)
		for _, p := range sp.pipes {
			if k := p.src.kind; k != scanVP && k != scanPT {
				continue
			}
			want := int64(p.src.parts) + 1 + int64(min(par, p.src.parts)-1)
			claims := func() int64 { n, _ := p.tasks.Claims(); return n }
			for deadline := time.Now().Add(time.Minute); claims() < want; {
				if time.Now().After(deadline) {
					t.Fatalf("%s: pipeline %s: released helpers never claimed: queue at %d, want %d, %d held", name, p.name, claims(), want, held.Load())
				}
				time.Sleep(time.Millisecond)
			}
			next, slots := p.tasks.Claims()
			if next != want {
				t.Errorf("%s: pipeline %s: %d claims, want %d", name, p.name, next, want)
			}
			if slots != 0 {
				t.Errorf("%s: pipeline %s: %d late helpers took a worker slot", name, p.name, slots)
			}
		}
	}
}

// storeFingerprint hashes everything a scan reads: every VP table's
// rows in partition order, and every Property Table column's keys,
// values and offsets.
func storeFingerprint(s *Store) map[string]uint64 {
	fp := map[string]uint64{}
	for pid, table := range s.vp {
		h := fnv.New64a()
		for _, part := range table.Rel.Parts() {
			for i := 0; i < part.Len(); i++ {
				for _, v := range part.Row(i) {
					h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), 0xff})
				}
				h.Write([]byte{0xfe})
			}
			h.Write([]byte{0xfd})
		}
		fp[fmt.Sprintf("vp/%d", pid)] = h.Sum64()
	}
	for name, pt := range map[string]*PropertyTable{"pt": s.pt, "ipt": s.ipt} {
		if pt == nil {
			continue
		}
		for pi, part := range pt.parts {
			for pred, col := range part.cols {
				h := fnv.New64a()
				for _, ids := range [][]rdf.ID{col.keys, col.vals} {
					for _, v := range ids {
						h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), 0xff})
					}
					h.Write([]byte{0xfe})
				}
				for _, o := range col.offs {
					h.Write([]byte{byte(o), byte(o >> 8), byte(o >> 16), byte(o >> 24)})
				}
				fp[fmt.Sprintf("%s/%d/%d", name, pi, pred)] = h.Sum64()
			}
		}
	}
	return fp
}

// liftFilters rewrites a plan so that every FILTER the planner pushed
// into a scan runs as a residual Filter step directly above that scan
// — the planner itself never leaves a filter residual on a validated
// query, so this is how the tests reach the streaming filter step with
// batches that alias table storage.
func liftFilters(n *plan.Node) *plan.Node {
	c := *n
	c.Children = nil
	for _, ch := range n.Children {
		c.Children = append(c.Children, liftFilters(ch))
	}
	if n.Op != plan.OpScan || len(n.Filters) == 0 {
		return &c
	}
	c.Filters = nil
	return &plan.Node{
		Op: plan.OpFilter, Vars: n.Vars, Est: n.Est, Actual: -1,
		Children: []*plan.Node{&c}, Filters: n.Filters,
	}
}

// streamWithResidualFilters runs q on the streaming pipelines with its
// pushed filters lifted into residual steps, and renders the rows.
func streamWithResidualFilters(t *testing.T, s *Store, q *sparql.Query, opts QueryOptions) string {
	t.Helper()
	opts.NoPlanCache = true
	r, err := s.resolve(q, opts)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	entry, _, err := s.planEntry(q, r)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	filters, err := s.compileFilters(q)
	if err != nil {
		t.Fatalf("filters: %v", err)
	}
	lifted := *entry.plan
	lifted.Root = liftFilters(entry.plan.Root)
	pl := &lifted
	id := 0
	var number func(n *plan.Node)
	number = func(n *plan.Node) {
		n.ID, id = id, id+1
		for _, c := range n.Children {
			number(c)
		}
	}
	number(pl.Root)
	if !strings.Contains(pl.String(), "Filter") {
		t.Fatalf("no filter was lifted:\n%s", pl)
	}
	region := engine.NewRegion()
	defer region.Release()
	sp, err := s.compileStreamPlan(pl, entry.nodes, filters, region)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, pl)
	}
	if err := sp.run(context.Background(), s, r.chunk); err != nil {
		t.Fatalf("run: %v", err)
	}
	rows, err := sp.finalRows(s)
	if err != nil {
		t.Fatalf("finalRows: %v", err)
	}
	return renderSorted(&Result{Rows: s.decodeRows(rows, pl.Root.CountCols)})
}

// TestStreamingLeavesStoreIntact: streaming batches are slices of the
// tables' own blocks, and filter steps pass a batch they keep whole —
// no step may write into one. Every VP table and
// every Property Table column must hash the same after streaming all
// 26 queries and a set of filtered queries whose filters run as
// residual steps, and those must still answer like the materialized
// executor.
func TestStreamingLeavesStoreIntact(t *testing.T) {
	s := watdivStreamStore(t)
	before := storeFingerprint(s)
	const prefixes = `PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
		PREFIX rev: <http://purl.org/stuff/rev#>
		PREFIX foaf: <http://xmlns.com/foaf/>
		`
	filtered := []string{
		`SELECT ?u ?f ?p WHERE { ?u wsdbm:follows ?f . ?f wsdbm:likes ?p . FILTER(?u != wsdbm:User3) FILTER(?p != wsdbm:Product2) }`,
		`SELECT ?u ?a ?p WHERE { ?u foaf:age ?a . ?u wsdbm:likes ?p . FILTER(?a > 30) }`,
		`SELECT ?r ?rt ?u WHERE { ?r rev:rating ?rt . ?r rev:reviewer ?u . FILTER(?rt >= 5) FILTER(?u != wsdbm:User1) }`,
		`SELECT DISTINCT ?f WHERE { ?u wsdbm:follows ?f . ?u wsdbm:friendOf ?g . FILTER(?f != wsdbm:User0) }`,
	}
	for _, strat := range []Strategy{StrategyMixed, StrategyVPOnly} {
		for i, text := range filtered {
			q := sparql.MustParse(prefixes + text)
			mat, err := s.Query(q, QueryOptions{Strategy: strat, NoPlanCache: true})
			if err != nil {
				t.Fatalf("filtered %d/%s materialized: %v", i, strat, err)
			}
			want := renderSorted(mat)
			if want == "" {
				t.Fatalf("filtered %d/%s: no rows; the query is vacuous at this scale", i, strat)
			}
			for _, chunk := range []int{1, 7, 2048} {
				got := streamWithResidualFilters(t, s, q, QueryOptions{Strategy: strat, chunkSize: chunk})
				if got != want {
					t.Errorf("filtered %d/%s chunk %d: rows differ from materialized", i, strat, chunk)
				}
			}
		}
	}
	for _, q := range allWatDivQueries() {
		for _, chunk := range []int{7, 0} {
			if _, err := s.Query(q.Parsed, QueryOptions{Strategy: StrategyMixed, Streaming: true, chunkSize: chunk, NoPlanCache: true}); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
	}
	after := storeFingerprint(s)
	if len(after) != len(before) {
		t.Fatalf("store has %d tables and columns after streaming, %d before", len(after), len(before))
	}
	for k, h := range before {
		if after[k] != h {
			t.Errorf("%s changed under streaming", k)
		}
	}
}

// TestStreamingHandBackIsReported: there is no hand-back. A plan the
// streaming compiler cannot lower — a join whose recorded column order
// the engine would not reproduce, which the planner never builds — is an
// inconsistency reported as an error naming the node, never a silent
// second execution on the materialized scheduler.
func TestStreamingHandBackIsReported(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT ?u ?v WHERE {
		?u <http://example.org/follows> ?v .
		?v <http://example.org/likes> ?p .
	}`)
	opts := QueryOptions{Streaming: true}
	r, err := s.resolve(q, opts)
	if err != nil || !r.cacheable || !r.streaming {
		t.Fatalf("resolve: %+v err=%v", r, err)
	}
	entry, key, err := s.planEntry(q, r)
	if err != nil {
		t.Fatalf("planEntry: %v", err)
	}

	// The plan with one join's recorded columns reversed, planted in the
	// cache.
	skewed := entry.plan.Stamp(plan.NewObservation(entry.plan))
	var join *plan.Node
	var find func(n *plan.Node)
	find = func(n *plan.Node) {
		if n.Op == plan.OpJoin && join == nil {
			join = n
		}
		for _, ch := range n.Children {
			find(ch)
		}
	}
	find(skewed.Root)
	if join == nil || len(join.Vars) < 2 {
		t.Fatalf("no join to skew in\n%s", skewed)
	}
	join.Vars = append([]string(nil), join.Vars...)
	slices.Reverse(join.Vars)
	s.planCache.put(key, &cachedPlan{nodes: entry.nodes, plan: skewed})

	res, err := s.Query(q, opts)
	if res != nil || err == nil || !strings.Contains(err.Error(), "cannot lower "+nodeDesc(join)) {
		t.Fatalf("planted plan: result %v, err %v; want no rows and an error naming %s", res, err, nodeDesc(join))
	}
}

// allocsPerQuery reports the heap bytes and allocations one execution
// of q costs, averaged over runs, from the runtime's cumulative
// counters (which a collection in between does not disturb).
func allocsPerQuery(t *testing.T, s *Store, q *sparql.Query, opts QueryOptions) (bytes, mallocs float64) {
	t.Helper()
	const runs = 20
	run := func() {
		if _, err := s.Query(q, opts); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	run() // plan cache, pooled scratch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / runs, float64(m1.Mallocs-m0.Mallocs) / runs
}

// TestStreamingAllocsAtMostMaterialized is the property ROADMAP item 3
// needs before the materialized scheduler can go: on a complex and a
// snowflake query the pipelined executor must not cost the process more
// heap bytes or more allocations per query than the operator-at-a-time
// one.
func TestStreamingAllocsAtMostMaterialized(t *testing.T) {
	testenv.SkipUnderRace(t)
	s := watdivStreamStore(t)
	for _, name := range []string{"C2", "F3"} {
		q := mustQueryByName(t, name)
		base := QueryOptions{Strategy: StrategyMixed}
		matB, matN := allocsPerQuery(t, s, q.Parsed, base)
		opts := base
		opts.Streaming = true
		strB, strN := allocsPerQuery(t, s, q.Parsed, opts)
		t.Logf("%s: streaming %.0f B / %.0f allocs, materialized %.0f B / %.0f allocs", name, strB, strN, matB, matN)
		if strB > matB {
			t.Errorf("%s: streaming allocates %.0f B per query, materialized %.0f", name, strB, matB)
		}
		if strN > matN {
			t.Errorf("%s: streaming makes %.0f allocations per query, materialized %.0f", name, strN, matN)
		}
	}
}

// TestStreamingConcurrentQueries hammers the streaming executor from
// many goroutines (race-detector coverage for the shared pipeline
// state: step counters, distinct sets, partition slots).
func TestStreamingConcurrentQueries(t *testing.T) {
	s := watdivStreamStore(t)
	queries := watdiv.BasicQuerySet()
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := s.Query(q.Parsed, QueryOptions{Strategy: StrategyMixed, NoPlanCache: true})
		if err != nil {
			t.Fatalf("%s baseline: %v", q.Name, err)
		}
		want[i] = renderSorted(res)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(queries))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries {
				res, err := s.Query(q.Parsed, QueryOptions{Strategy: StrategyMixed, Streaming: true, chunkSize: 512 << (w % 3), NoPlanCache: true})
				if err != nil {
					errs <- fmt.Errorf("%s worker %d: %v", q.Name, w, err)
					return
				}
				if got := renderSorted(res); got != want[i] {
					errs <- fmt.Errorf("%s worker %d: rows differ", q.Name, w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func mustQueryByName(t testing.TB, name string) watdiv.Query {
	q, err := watdiv.QueryByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// BenchmarkStreamingFirstRow tracks simulated first-row latency and
// completion of the C1 streaming execution.
func BenchmarkStreamingFirstRow(b *testing.B) {
	s := watdivStreamStore(b)
	q := mustQueryByName(b, "C1")
	opts := QueryOptions{Strategy: StrategyMixed, Streaming: true}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Query(q.Parsed, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FirstRow.Microseconds())/1e3, "firstrow-ms")
	b.ReportMetric(float64(res.SimTime.Microseconds())/1e3, "sim-ms")
}

// BenchmarkStreamingPeakMemory tracks the simulated peak intermediate
// footprint of C1 under both execution modes.
func BenchmarkStreamingPeakMemory(b *testing.B) {
	s := watdivStreamStore(b)
	q := mustQueryByName(b, "C1")
	b.ResetTimer()
	var mat, str *Result
	for i := 0; i < b.N; i++ {
		var err error
		mat, err = s.Query(q.Parsed, QueryOptions{Strategy: StrategyMixed})
		if err != nil {
			b.Fatal(err)
		}
		str, err = s.Query(q.Parsed, QueryOptions{Strategy: StrategyMixed, Streaming: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mat.PeakMemBytes)/1024, "mat-peak-KiB")
	b.ReportMetric(float64(str.PeakMemBytes)/1024, "stream-peak-KiB")
}

// TestStreamingTopKSinkKeepsTheWinners drives the streaming top-K step
// directly. Rows arrive in batches: full of duplicates in random order,
// the same in descending order (every later row beats the rows kept so
// far), and distinct even values before odd ones (a later row lands
// between two kept rows). The batches go to one worker's part, or to
// three, round-robin or a contiguous third each (so one part may hold
// every winner and the others none). The parts must finish to the first
// keep rows of the full sort — so the rows a part drops without copying,
// those not less than its worst kept row, are never ones that win — and
// arrived must count every row handed to any part.
func TestStreamingTopKSinkKeepsTheWinners(t *testing.T) {
	const n, width = 2000, 2
	rng := rand.New(rand.NewSource(35))
	rows := engine.NewRowArena(width, n)
	for i := 0; i < n; i++ {
		rows.AppendCopy(engine.Row{rdf.ID(rng.Intn(500)), rdf.ID(rng.Intn(2))})
	}
	random := rows.Block()
	parity := engine.NewRowArena(width, n)
	for _, odd := range []int{0, 1} {
		for _, v := range rng.Perm(n / 2) {
			parity.AppendCopy(engine.Row{rdf.ID(2*v + odd), 0})
		}
	}
	inputs := map[string]engine.Block{
		"random":           random,
		"descending":       engine.SortBlock(random, func(x, y engine.Row) bool { return engine.LessRowsID(y, x) }, -1),
		"evens, then odds": parity.Block(),
	}
	// spreads map a batch starting at row lo to a worker of nw.
	spreads := map[string]func(batch, lo, nw int) int{
		"round-robin": func(batch, _, nw int) int { return batch % nw },
		"contiguous":  func(_, lo, nw int) int { return lo * nw / n },
	}
	for name, in := range inputs {
		// The last two keeps are LIMITs the parser accepts whose doubled
		// buffer bound would overflow an int.
		for _, keep := range []int{0, 1, 2, 5, 100, n, 5_000_000_000_000_000_000, math.MaxInt} {
			want := engine.SortBlock(in, engine.LessRowsID, keep).Rows()
			for _, nw := range []int{1, 3} {
				for spread, worker := range spreads {
					for _, chunk := range []int{1, 7, 64} {
						region := engine.NewRegion()
						st := &streamStep{kind: stepTopK, width: width, less: engine.LessRowsID, keep: keep}
						workers := make([]streamWorker, nw)
						for i := range workers {
							st.initPart(&workers[i].part, region)
						}
						for batch, lo := 0, 0; lo < n; batch, lo = batch+1, lo+chunk {
							st.apply(in.Slice(lo, min(lo+chunk, n)), &workers[worker(batch, lo, nw)], region)
						}
						got := st.finish(workers, region).Rows()
						if !slices.EqualFunc(got, want, slices.Equal) {
							t.Errorf("%s, keep %d, %d workers %s, chunk %d: kept\n%v\nwant\n%v", name, keep, nw, spread, chunk, got, want)
						}
						if a := workers[0].part.arrived; a != n {
							t.Errorf("%s, keep %d, %d workers %s, chunk %d: arrived %d, want %d", name, keep, nw, spread, chunk, a, n)
						}
						region.Release()
					}
				}
			}
		}
	}
}
