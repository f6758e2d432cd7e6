package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// QueryOptions tunes one query execution.
type QueryOptions struct {
	// Strategy selects the storage structures (default StrategyMixed).
	Strategy Strategy
	// Planner selects the planning mode (default plan.ModeCost). The
	// heuristic and naive modes keep the paper's §3.3 ordering and the
	// written-order ablation reproducible.
	Planner plan.Mode
	// BroadcastThreshold overrides the broadcast-join threshold
	// (0 = Spark default, negative = disabled) — the ablation knob for
	// Catalyst's physical join selection. The heuristic and naive
	// planners apply it as the runtime build-side cap; the cost-based
	// planner treats it as a broadcast on/off switch and replaces the
	// size cap with CostModel pricing, so priced broadcasts may exceed
	// it.
	BroadcastThreshold int64
	// NoPlanCache bypasses the store's plan cache for this query: the
	// plan is built from scratch, not inserted, and never corrected — the
	// static plan, exactly as a first execution runs it.
	NoPlanCache bool
	// Faults injects a deterministic fault schedule into this query; it
	// is the only way to set one. Its recovery is priced on the virtual
	// clock, never acted out: every operator runs once, and retries,
	// stragglers, speculation and lineage recompute of corrupted
	// deliveries are charged from that run's time, on every route —
	// local or sharded — and either executor, so rows never change. A
	// nil or inactive plan keeps execution on the unchanged fault-free
	// hot path. The plan is the whole fault configuration, and every
	// schedule recovers: an injected fault never fails the query. The
	// failure cap, retry backoff and the speculation multiple are
	// constants beside the attempt loop (cluster.FaultPlan.RunAttempts).
	// An invalid plan is refused before planning. Fault options never
	// affect planning, so cached plans are shared across fault settings.
	Faults *cluster.FaultPlan
	// Streaming routes the query through the morsel-driven pipeline
	// executor: operators fuse into chunk-at-a-time pipelines, SimTime
	// comes from list-scheduling priced morsels onto the simulated
	// workers, and the result carries first-row latency and the peak
	// intermediate footprint. Both modes produce identical SortedRows.
	Streaming bool
	// Dist routes scan and exchange kernels to shard processes through
	// a per-query DistSession (coordinator mode). Planning, shuffle
	// routing and stage pricing stay local, every scan resolves to the
	// NodeScan a local run would read, so results and SimTime match
	// single-process execution. What a sharded query turns off is the
	// first row of the table on Store.resolve.
	Dist DistRunner

	// chunkSize overrides DefaultChunkSize, the streaming rows per batch
	// and per priced morsel, when positive. Only this package's tests
	// set it.
	chunkSize int
}

// CorrectionBound is the estimation-error factor beyond which an
// executed plan corrects its cache entry (Store.correct). The C-family
// triangle joins miss by ~40x under the independence assumption while
// well-estimated operators stay within a factor of a few, so 8x
// separates the two populations cleanly.
const CorrectionBound = 8.0

// Result is one query's answer plus its execution record.
type Result struct {
	// Vars is the projected variable list.
	Vars []string
	// Rows holds the decoded result rows, one term per projected
	// variable. It is nil from QueryIDs, which returns the rows as IDs.
	Rows [][]rdf.Term
	// SimTime is the simulated cluster time the query took.
	SimTime time.Duration
	// WallTime is the real execution time of the simulation.
	WallTime time.Duration
	// Tree is the Join Tree the query was executed with, in plan
	// execution order.
	Tree *JoinTree
	// Plan is the physical plan the query executed, with per-node
	// estimated and actual cardinalities filled in.
	Plan *plan.Plan
	// Clock exposes the full stage trace.
	Clock *cluster.Clock
	// Replans records the correction this execution made to its plan's
	// cache entry: one event, or none when the estimates held.
	Replans []ReplanEvent
	// CacheFeedback reports that the plan came from a corrected cache
	// entry: one a previous execution re-planned from the cardinalities
	// it observed, so this execution never repeats that mistake.
	CacheFeedback bool
	// Resilience is the query's recovery record under fault injection:
	// attempts, retries, speculation, checksum failures and the priced
	// recovery time SimTime absorbed. Zero for fault-free executions.
	Resilience cluster.Recovery
	// Streamed reports that the morsel-driven streaming executor ran
	// the query.
	Streamed bool
	// FirstRow is the simulated latency until the first result morsel
	// finished delivering to the driver — strictly earlier than
	// SimTime whenever the query emits more than one result morsel.
	// Zero for materialized executions and empty results.
	FirstRow time.Duration
	// PeakMemBytes is the simulated peak intermediate memory: for a
	// streamed query, hash-join build sides + the distinct set + the
	// in-flight chunk budget; for a materialized query, the peak of
	// live intermediate relations over the virtual timeline.
	PeakMemBytes int64
	// Ordered reports that Rows is already in the query's ORDER BY
	// order — consumers must present Rows as-is instead of re-sorting
	// for display.
	Ordered bool
	// StreamingDowngraded reports that QueryOptions.Streaming was
	// requested but the materialized scheduler ran the query: the
	// sharded coordinator path forced streaming off (the distributed
	// kernels run only under the scheduler).
	StreamingDowngraded bool
}

// ReplanEvent records one correction for EXPLAIN and /stats: the
// executed node whose actual missed its estimate the most, by how much,
// and how many observed cardinalities the cache entry was re-planned
// with.
type ReplanEvent struct {
	// Trigger describes the worst-estimated executed node.
	Trigger string
	// Est and Actual are the trigger's estimated and observed
	// cardinalities; Ratio is the error factor between them.
	Est    float64
	Actual int64
	Ratio  float64
	// Observed counts the cardinalities the corrected entry carries,
	// accumulated over every correction of the entry.
	Observed int
}

// ReplanSummary renders the correction record for EXPLAIN output: the
// plan's provenance when it came from a corrected cache entry, and the
// correction this execution made, if any. It returns "" when neither
// applies.
func (r *Result) ReplanSummary() string {
	var sb strings.Builder
	if r.CacheFeedback {
		sb.WriteString("plan source: feedback cache (corrected from a previous execution's observed cardinalities)\n")
	}
	for _, ev := range r.Replans {
		fmt.Fprintf(&sb, "correction: trigger %s est=%.4g actual=%d (%.1fx error): cache entry re-planned from %d observed cardinalities\n",
			ev.Trigger, ev.Est, ev.Actual, ev.Ratio, ev.Observed)
	}
	return sb.String()
}

// SortedRows returns the rows sorted by their rendered terms, for
// deterministic comparisons in tests and examples. DisplayRows sorts
// the rows it presents with the same comparator, and the tests hold it
// to this one.
func (r *Result) SortedRows() [][]rdf.Term {
	rows := make([][]rdf.Term, len(r.Rows))
	copy(rows, r.Rows)
	sort.Slice(rows, func(i, j int) bool {
		for k := 0; k < len(rows[i]) && k < len(rows[j]); k++ {
			if c := rows[i][k].Compare(rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return len(rows[i]) < len(rows[j])
	})
	return rows
}

// Query plans and executes a SPARQL query against the store with a
// background context; see QueryContext.
func (s *Store) Query(q *sparql.Query, opts QueryOptions) (*Result, error) {
	return s.QueryContext(context.Background(), q, opts)
}

// QueryContext runs a SPARQL query against the store in four steps,
// each written once. Resolve: the options become a resolved value that
// carries every default and every "feature X turns feature Y off" rule
// (Store.resolve's table). Plan: the plan cache (keyed on the
// normalized query, the resolved options and the workload epoch) is
// consulted; on a miss each BGP group is translated
// into a Join Tree (paper §3.2) and planned, and an extended query's
// group plans are composed. Execute: the plan runs to completion on the
// materialized task scheduler or on the streaming pipelines, whichever
// the resolver picked; both hand back one execution record. Assemble:
// the cache entry is corrected when the execution showed it badly
// mis-estimated (Store.correct), the trace is published, store totals
// and the workload model are fed, and the rows are decoded into the
// Result.
//
// Correction happens between executions, never inside one: a query
// always runs the plan it looked up, and a later execution of the same
// query runs the entry re-planned from what this one counted. Only fully
// executed queries write back — a cancelled or failed run never poisons
// the cache.
//
// Execution happens in one engine.Region per call: every intermediate
// relation, batch, permutation, hash table and scratch buffer of the
// query — on this process's operators, its streaming workers and the
// part sets a coordinator decodes from its shards — is carved from it,
// and its slabs go back to a pool when QueryContext returns. The
// lifetime rule that makes this safe: once QueryContext returns, nothing
// reachable may point into the region. Result.Rows is decoded out of it
// (decodeRows copies; a large result decodes on up to GOMAXPROCS
// workers, as a materialized stage's tasks do, and every task has
// finished when decodeRows returns) — QueryIDs copies the IDs out to
// the heap instead — the plan and trace hold no rows,
// every task the query ran has finished (a helper that starts late
// finds none left to claim and touches nothing), and the stored VP and
// PT blocks a scan shares are never region memory.
//
// ctx cancels in-flight execution at task granularity: when the
// deadline passes, no further plan operators start and QueryContext
// returns a *CancelError wrapping the context error.
//
// QueryContext is safe for concurrent callers — cached plans are
// shared read-only, and all execution state is per-call.
func (s *Store) QueryContext(ctx context.Context, q *sparql.Query, opts QueryOptions) (*Result, error) {
	return s.query(ctx, q, opts, func(res *Result, rows []engine.Block, countCols []bool) {
		res.Rows = s.decodeRows(rows, countCols)
	})
}

// QueryIDs runs a query exactly as QueryContext does — the same body,
// step for step — and hands back its rows as dictionary IDs instead of
// decoded terms: the Result's Rows is nil, and the IDRows hold the rows,
// in result order, with what decodes them. Where QueryContext decodes
// the rows out of the query's region, QueryIDs copies them out into one
// heap slice of IDs, 4 bytes a cell against a Term's 56 (and no row
// header); the COUNT-column flags are the cached plan's, which is never
// written, and the dictionary snapshot is heap memory too. So the region
// rule holds: nothing reachable after QueryIDs returns points into the
// region. A caller that presents the rows decodes them once, into
// storage it reuses, with DisplayRows.Decode.
func (s *Store) QueryIDs(ctx context.Context, q *sparql.Query, opts QueryOptions) (*Result, IDRows, error) {
	var ids IDRows
	res, err := s.query(ctx, q, opts, func(_ *Result, rows []engine.Block, countCols []bool) {
		ids = IDRows{Block: heapBlock(rows), CountCols: countCols, Terms: s.dict.Snapshot()}
	})
	return res, ids, err
}

// query is the body QueryContext and QueryIDs share: resolve, plan,
// execute and assemble, with finish taking the result's rows out of the
// region — still the query's own memory while finish runs — into the
// Result or beside it. WallTime includes finish.
func (s *Store) query(ctx context.Context, q *sparql.Query, opts QueryOptions, finish func(res *Result, rows []engine.Block, countCols []bool)) (*Result, error) {
	start := time.Now()
	// Resolve: every default and every feature-off rule, decided once.
	r, err := s.resolve(q, opts)
	if err != nil {
		return nil, err
	}

	// Plan.
	entry, key, err := s.planEntry(q, r)
	if err != nil {
		return nil, err
	}
	filters, err := s.compileFilters(q)
	if err != nil {
		return nil, err
	}

	// Execute, on the one executor the resolver picked, in the query's
	// region.
	region := engine.NewRegion()
	defer region.Release()
	var x execution
	if r.streaming {
		x, err = s.runStreaming(ctx, r, entry, filters, region)
	} else {
		x, err = s.runMaterialized(ctx, q, r, entry, filters, region)
	}
	if r.faults != nil {
		// The record totals on the store even when the query aborted
		// (canceled, or a shard died): the recovery it priced is what
		// /stats should show.
		s.resilience.add(x.recovery)
	}
	if err != nil {
		return nil, err
	}

	// Assemble. The trace is published in one step, advancing the clock
	// by the critical path rather than the stage sum (stages of
	// independent subtrees and pipelines overlap).
	clock := cluster.NewClock()
	clock.MergeTrace(x.trace, x.simTime)

	events := s.correct(q, r, key, entry, x.plan)
	s.mineWorkload(x.plan, entry.nodes, r)

	// The plan may have reordered (or bushed) the leaves; present the
	// Join Tree in scan execution order, in a fresh slice so the cached
	// node list is never touched.
	scans := entry.plan.Scans()
	ordered := make([]*Node, 0, len(scans))
	for _, sc := range scans {
		ordered = append(ordered, entry.nodes[sc.Leaf])
	}
	res := &Result{
		Vars:                q.Projection(),
		SimTime:             x.simTime,
		Tree:                &JoinTree{Nodes: ordered},
		Plan:                x.plan,
		Clock:               clock,
		Replans:             events,
		CacheFeedback:       entry.corrected,
		Resilience:          x.recovery,
		Streamed:            r.streaming,
		FirstRow:            x.firstRow,
		PeakMemBytes:        x.peak,
		Ordered:             len(q.Order) > 0,
		StreamingDowngraded: r.downgraded,
	}
	finish(res, x.rows, entry.plan.Root.CountCols)
	res.WallTime = time.Since(start)
	return res, nil
}

// execution is what either executor hands the driver: the result as
// blocks of ID rows, in result order — region memory, decoded before the
// region goes — and everything the run measured. On an abort only
// recovery is meaningful.
type execution struct {
	rows    []engine.Block
	simTime time.Duration
	// trace is the stage trace, in deterministic plan order.
	trace []cluster.StageRecord
	// plan is the executed plan stamped with actuals.
	plan     *plan.Plan
	recovery cluster.Recovery
	peak     int64
	firstRow time.Duration
}

// runMaterialized executes the plan operator at a time on the task
// scheduler, in region — locally, or with the kernels on the shards of
// r.dist, through one session — then collects the root relation.
func (s *Store) runMaterialized(ctx context.Context, q *sparql.Query, r resolved, entry *cachedPlan, filters []compiledFilter, region *engine.Region) (execution, error) {
	pl := entry.plan
	var sess DistSession
	if r.dist != nil {
		var err error
		if sess, err = r.dist.Session(ctx, q, region); err != nil {
			return execution{}, err
		}
		defer sess.Close()
	}
	sched := &scheduler{
		store:    s,
		nodes:    entry.nodes,
		filters:  filters,
		r:        r,
		dist:     sess,
		ctx:      ctx,
		region:   region,
		planning: s.cluster.Config().Cost.SQLPlanning,
	}
	rootTask, err := sched.execute(pl)
	x := execution{recovery: sched.recovery.snapshot()}
	if err != nil {
		return x, err
	}

	// Epilogue: collect the root relation, priced on its own clock and
	// sequenced after the root task on the virtual timeline. There is no
	// limit to push into the collect: LIMIT/OFFSET make a query extended,
	// and an extended query's plan applies them (and the ordering)
	// through its TopK operator, so partition order is kept as it is.
	e := sched.newExec(rootTask.node)
	if x.rows, err = e.Collect(rootTask.rel); err != nil {
		return x, err
	}

	// The stages in deterministic plan order, on a private clock.
	trace := cluster.NewClock()
	trace.Charge("query planning", sched.planning)
	sched.appendTrace(trace)
	trace.Absorb(e.Clock.Stages())
	x.trace = trace.Stages()
	x.simTime = rootTask.done + e.Clock.Elapsed()

	x.plan = pl.Stamp(sched.obs)
	annotateDistPlan(x.plan, sess)
	x.peak = materializedPeakBytes(sched, x.simTime)
	return x, nil
}

// planEntry is the plan step behind the plan cache: a hit returns the
// shared immutable entry; a miss plans, inserts and returns. The key
// lets the driver write a corrected entry back after the execution.
func (s *Store) planEntry(q *sparql.Query, r resolved) (entry *cachedPlan, key string, err error) {
	if r.cacheable {
		key = planCacheKey(q, r, s.workloadEpoch())
		if e, ok := s.planCache.get(key); ok {
			return e, key, nil
		}
	}
	nodes, pl, err := s.planQuery(q, r)
	if err != nil {
		return nil, "", err
	}
	entry = &cachedPlan{nodes: nodes, plan: pl}
	if r.cacheable {
		s.planCache.put(key, entry)
	}
	return entry, key, nil
}

// correct is the one correction step between executions. It applies to
// a fully executed plain BGP query whose plan is a cost-based planner's
// cache entry: when the executed plan's worst observable Scan or Join
// (plan.Plan.WorstObservable) missed its estimate by more than
// CorrectionBound, the entry is re-planned once — the same planGroup
// input plus every cardinality this execution counted, merged over the
// observations the entry already carries — and written back under the
// same key. It returns the correction's event, or nil.
func (s *Store) correct(q *sparql.Query, r resolved, key string, entry *cachedPlan, executed *plan.Plan) []ReplanEvent {
	if !r.cacheable || q.Extended() || (r.mode != plan.ModeCost && r.mode != plan.ModeCostLeftDeep) {
		return nil
	}
	ratio, at := executed.WorstObservable()
	if ratio <= CorrectionBound {
		return nil
	}
	obs := executed.Observations(entry.obs)
	nodes, pl, err := s.planGroup(q, r, obs)
	if err != nil {
		return nil // the same input planned once already; unreachable
	}
	s.planCache.put(key, &cachedPlan{nodes: nodes, plan: pl, obs: obs, corrected: true})
	s.corrections.Add(1)
	return []ReplanEvent{{Trigger: nodeDesc(at), Est: at.Est, Actual: at.Actual, Ratio: ratio, Observed: len(obs)}}
}

// PlanCacheMetrics snapshots the store's plan-cache counters.
func (s *Store) PlanCacheMetrics() CacheMetrics {
	return s.planCache.metrics()
}

// joinStrategy maps a planned join method to the engine request. A
// planned broadcast is forced: the planner priced it cheaper than
// shuffling even when the build side exceeds the global threshold.
// Planned shuffle and co-partitioned joins keep the engine's runtime
// rule, which downgrades to a broadcast when an intermediate result
// turns out tiny at execution time (the adaptive re-optimization Spark
// 3 calls AQE) — the planner's static estimate can only be refined,
// never worsened, by that check.
func joinStrategy(m plan.JoinMethod) engine.JoinStrategy {
	switch m {
	case plan.MethodBroadcast:
		return engine.StrategyBroadcast
	default:
		return engine.StrategyAuto
	}
}

// pickFilters selects the compiled filters at the given indexes.
func pickFilters(filters []compiledFilter, idx []int) []compiledFilter {
	if len(idx) == 0 {
		return nil
	}
	out := make([]compiledFilter, 0, len(idx))
	for _, i := range idx {
		out = append(out, filters[i])
	}
	return out
}

// naiveOrder rewrites the tree's execution order to follow the query's
// written pattern order (ablation A1).
func naiveOrder(tree *JoinTree, q *sparql.Query) {
	pos := func(n *Node) int {
		best := len(q.Patterns)
		for _, tp := range n.Patterns {
			for i, qp := range q.Patterns {
				if qp == tp && i < best {
					best = i
				}
			}
		}
		return best
	}
	sort.SliceStable(tree.Nodes, func(i, j int) bool { return pos(tree.Nodes[i]) < pos(tree.Nodes[j]) })
}

// compiledFilter is one FILTER constraint ready to apply to ID rows.
type compiledFilter struct {
	v    string
	pred func(rdf.ID) bool
}

// compileFilters turns the query's FILTER list into ID predicates, in
// the order plan filter indexes point into: q.Filters for a plain BGP
// query, the concatenated per-group list for an extended one.
func (s *Store) compileFilters(q *sparql.Query) ([]compiledFilter, error) {
	if q.Extended() {
		return s.compileFilterList(extendedFilterList(q))
	}
	return s.compileFilterList(q.Filters)
}

// compileFilterList compiles an explicit FILTER list — the shard
// server compiles the coordinator-shipped pushed filters through the
// same path, so both sides test rows identically (the dictionaries are
// equal by deterministic loading).
func (s *Store) compileFilterList(filters []sparql.Filter) ([]compiledFilter, error) {
	out := make([]compiledFilter, 0, len(filters))
	terms := s.dict.Snapshot() // every ID a query's rows hold was issued at load
	for _, f := range filters {
		op, err := engine.FilterOp(f.Op)
		if err != nil {
			return nil, err
		}
		value := f.Value
		out = append(out, compiledFilter{
			v: f.Var,
			pred: func(id rdf.ID) bool {
				return engine.CompareIDs(terms, id, op, value)
			},
		})
	}
	return out, nil
}

// applyResidualFilters applies filters the planner could not push into
// a scan (defensive: validated queries always expose every filtered
// variable at some leaf).
func applyResidualFilters(e *engine.Exec, rel *engine.Relation, filters []compiledFilter) (*engine.Relation, error) {
	for _, f := range filters {
		idx := rel.Schema().Index(f.v)
		if idx < 0 {
			return nil, fmt.Errorf("core: residual filter variable ?%s not in schema %v", f.v, rel.Schema())
		}
		var err error
		i, pred := idx, f.pred
		rel, err = e.Filter(rel, "?"+f.v, func(r engine.Row) bool { return pred(r[i]) })
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// rowPredicate compiles pushed filters into one predicate over rows of
// the given schema, returning nil when there is nothing to test.
// Filters whose variable the schema lacks are reported as an error —
// the planner only pushes filters to scans exposing their variable.
func rowPredicate(schema []string, pushed []compiledFilter) (func(engine.Row) bool, error) {
	if len(pushed) == 0 {
		return nil, nil
	}
	idx := make([]int, len(pushed))
	for i, f := range pushed {
		idx[i] = -1
		for j, col := range schema {
			if col == f.v {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("core: pushed filter variable ?%s not in scan schema %v", f.v, schema)
		}
	}
	preds := pushed
	return func(r engine.Row) bool {
		for i, f := range preds {
			if !f.pred(r[idx[i]]) {
				return false
			}
		}
		return true
	}, nil
}

// vpScanPred assembles the scan-time predicate over a VP table's raw
// (s,o) rows for one pattern: bound-position constraints,
// repeated-variable equality and pushed-down FILTER predicates, fused
// into one check. ok=false reports a bound term absent from the
// dictionary — the scan is empty. A nil predicate with ok=true keeps
// every row. Called by the resolver alone, so every route tests rows
// identically.
func (s *Store) vpScanPred(tp sparql.TriplePattern, pushed []compiledFilter) (pred func(engine.Row) bool, ok bool, err error) {
	var checks []func(engine.Row) bool
	if !tp.S.IsVar() {
		sid, found := s.dict.Lookup(tp.S.Term)
		if !found {
			return nil, false, nil
		}
		checks = append(checks, func(r engine.Row) bool { return r[0] == sid })
	}
	if !tp.O.IsVar() {
		oid, found := s.dict.Lookup(tp.O.Term)
		if !found {
			return nil, false, nil
		}
		checks = append(checks, func(r engine.Row) bool { return r[1] == oid })
	}
	if tp.S.IsVar() && tp.O.IsVar() && tp.S.Var == tp.O.Var {
		checks = append(checks, func(r engine.Row) bool { return r[0] == r[1] })
	}
	for _, f := range pushed {
		col := -1
		if tp.S.IsVar() && f.v == tp.S.Var {
			col = 0
		} else if tp.O.IsVar() && f.v == tp.O.Var {
			col = 1
		}
		if col < 0 {
			return nil, false, fmt.Errorf("core: pushed filter variable ?%s not in pattern %s", f.v, tp)
		}
		c, p := col, f.pred
		checks = append(checks, func(r engine.Row) bool { return p(r[c]) })
	}
	if len(checks) == 0 {
		return nil, true, nil
	}
	cs := checks
	return func(r engine.Row) bool {
		for _, c := range cs {
			if !c(r) {
				return false
			}
		}
		return true
	}, true, nil
}

// triplesMatches collects the raw-triple rows matching a
// variable-predicate pattern and passing rowPred (the pushed filters; nil
// keeps every row) — the fallback scan's row source on both local
// routes — into a block of their own in region r.
func (s *Store) triplesMatches(tp sparql.TriplePattern, rowPred func(engine.Row) bool, r *engine.Region) engine.Block {
	outVars := tp.Vars()
	rows := r.Arena(len(outVars), 0)
	// Resolve bound positions.
	var sid, oid rdf.ID
	if !tp.S.IsVar() {
		id, ok := s.dict.Lookup(tp.S.Term)
		if !ok {
			return rows.Block()
		}
		sid = id
	}
	if !tp.O.IsVar() {
		id, ok := s.dict.Lookup(tp.O.Term)
		if !ok {
			return rows.Block()
		}
		oid = id
	}
	row := make(engine.Row, 0, len(outVars))
	for _, t := range s.triples {
		if sid != rdf.NullID && t.S != sid {
			continue
		}
		if oid != rdf.NullID && t.O != oid {
			continue
		}
		row = row[:0]
		vals := map[string]rdf.ID{}
		okRow := true
		for _, pos := range []struct {
			pt  sparql.PatternTerm
			val rdf.ID
		}{{tp.S, t.S}, {tp.P, t.P}, {tp.O, t.O}} {
			if !pos.pt.IsVar() {
				continue
			}
			if prev, seen := vals[pos.pt.Var]; seen {
				if prev != pos.val {
					okRow = false
					break
				}
				continue
			}
			vals[pos.pt.Var] = pos.val
			row = append(row, pos.val)
		}
		if okRow && (rowPred == nil || rowPred(row)) {
			rows.Grow(1)
			rows.AppendCopy(row)
		}
	}
	return rows.Block()
}
