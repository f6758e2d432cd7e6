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
	// Clock receives the query's virtual time; a fresh clock is created
	// when nil.
	Clock *cluster.Clock
	// BroadcastThreshold overrides the broadcast-join threshold
	// (0 = Spark default, negative = disabled) — the ablation knob for
	// Catalyst's physical join selection. The heuristic and naive
	// planners apply it as the runtime build-side cap; the cost-based
	// planner treats it as a broadcast on/off switch and replaces the
	// size cap with CostModel pricing, so priced broadcasts may exceed
	// it.
	BroadcastThreshold int64
	// Parallelism bounds the scheduler's worker pool: how many plan
	// operators may execute concurrently (0 = GOMAXPROCS). Independent
	// subtrees of the plan run in parallel up to this bound.
	Parallelism int
	// NoPlanCache bypasses the store's plan cache for this query: the
	// plan is built from scratch and not inserted.
	NoPlanCache bool
	// ReplanThreshold is the adaptive re-planning trigger: when an
	// executed operator's observed cardinality misses its estimate by
	// more than this factor, the scheduler pauses the unexecuted
	// remainder, re-plans it over the materialized intermediates, and
	// splices the corrected remainder in when its priced saving beats
	// the re-planning charge. 0 uses DefaultReplanThreshold; negative
	// disables re-planning (the static ablation baseline). Only the
	// cost-based planner modes re-plan — the heuristic and naive modes
	// reproduce the paper's static behaviour exactly.
	ReplanThreshold float64
	// Faults injects a deterministic fault schedule for this query,
	// overriding the cluster-wide plan (cluster.Config.Faults). Nil
	// inherits the cluster's; a nil or inactive resolved plan keeps
	// execution on the unchanged fault-free hot path (no checksums, no
	// attempt bookkeeping). The plan is the whole fault configuration —
	// its MaxAttempts is the per-task attempt budget whose exhaustion
	// aborts the query with a *TaskFailedError; retry backoff and the
	// speculation multiple are constants beside the attempt loop
	// (cluster.FaultPlan.RunAttempts). An invalid plan is refused before
	// planning. Fault options never affect planning, so cached plans are
	// shared across fault settings.
	Faults *cluster.FaultPlan
	// Streaming routes the query through the morsel-driven pipeline
	// executor: operators fuse into chunk-at-a-time pipelines, SimTime
	// comes from list-scheduling priced morsels onto the simulated
	// workers, and the result carries first-row latency and the peak
	// intermediate footprint. A plan the streaming compiler hands back
	// (a Bound leaf, a defensive schema mismatch) runs on the
	// materialized scheduler with Result.StreamingDowngraded set; both
	// modes produce identical SortedRows.
	Streaming bool
	// ChunkSize is the streaming executor's rows-per-chunk (and morsel
	// batch) granularity (0 = DefaultChunkSize).
	ChunkSize int
	// Dist routes scan and exchange kernels to shard processes through
	// a per-query DistSession (coordinator mode). Planning, shuffle
	// routing and stage pricing stay local, every scan resolves to the
	// NodeScan a local run would read, so results and SimTime match
	// single-process execution; streaming, fault injection and adaptive
	// re-planning are forced off for the query, and it is planned
	// without ExtVP rewrites (shards hold the base tables) and mines no
	// join pairs for the reduction builder.
	Dist DistRunner
}

// DefaultReplanThreshold is the estimation-error factor that triggers
// adaptive re-planning when QueryOptions.ReplanThreshold is zero. The
// C-family triangle joins miss by ~40x under the independence
// assumption while well-estimated operators stay within a factor of a
// few, so 8x separates the two populations cleanly.
const DefaultReplanThreshold = 8.0

// replanThreshold resolves the options' re-planning trigger for the
// given planner mode.
func (o QueryOptions) replanThreshold(mode plan.Mode) float64 {
	if o.ReplanThreshold < 0 {
		return 0
	}
	if mode != plan.ModeCost && mode != plan.ModeCostLeftDeep {
		return 0
	}
	if o.ReplanThreshold == 0 {
		return DefaultReplanThreshold
	}
	return o.ReplanThreshold
}

// Result is one query's answer plus its execution record.
type Result struct {
	// Vars is the projected variable list.
	Vars []string
	// Rows holds the decoded result rows, one term per projected
	// variable.
	Rows [][]rdf.Term
	// SimTime is the simulated cluster time the query took.
	SimTime time.Duration
	// WallTime is the real execution time of the simulation.
	WallTime time.Duration
	// Tree is the Join Tree the query was executed with, in plan
	// execution order.
	Tree *JoinTree
	// Plan is the physical plan the query executed, with per-node
	// estimated and actual cardinalities filled in. When adaptive
	// re-planning fired, this is the corrected plan the query actually
	// ran — executed fragments grafted under the re-planned remainder.
	Plan *plan.Plan
	// Clock exposes the full stage trace.
	Clock *cluster.Clock
	// Replans records the adaptive re-planning decisions the execution
	// evaluated, in round order (empty for a static run).
	Replans []ReplanEvent
	// CacheFeedback reports that the plan came from a feedback-cache
	// entry: a corrected plan written back by a previous execution's
	// re-plan, so this execution never repeats the original mistake.
	CacheFeedback bool
	// Resilience is the query's recovery record under fault injection:
	// attempts, retries, speculation, checksum failures and the priced
	// recovery time SimTime absorbed. Zero for fault-free executions.
	Resilience cluster.Recovery
	// Streamed reports that the morsel-driven streaming executor ran
	// the query (false when QueryOptions.Streaming was off, or the
	// query fell back to the materialized scheduler).
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
	// kernels run only under the scheduler), or the streaming compiler
	// handed the plan back.
	StreamingDowngraded bool
}

// ReplanSummary renders the adaptive re-planning record for EXPLAIN
// output: the plan's provenance when it came from the feedback cache,
// and one block per evaluated re-plan with the trigger node, the error
// ratio, the decision, and the old vs new remainder. It returns ""
// when nothing adaptive happened.
func (r *Result) ReplanSummary() string {
	if len(r.Replans) == 0 && !r.CacheFeedback {
		return ""
	}
	var sb strings.Builder
	if r.CacheFeedback {
		sb.WriteString("plan source: feedback cache (corrected by a previous execution's re-plan)\n")
	}
	for _, ev := range r.Replans {
		verdict := "kept static remainder (saving under re-plan charge)"
		if ev.Adopted {
			verdict = "adopted corrected remainder"
		}
		fmt.Fprintf(&sb, "re-plan round %d: trigger %s est=%.4g actual=%d (%.1fx error): %s, remainder %v -> %v\n",
			ev.Round, ev.Trigger, ev.Est, ev.Actual, ev.Ratio, verdict,
			ev.OldCrit.Round(time.Microsecond), ev.NewCrit.Round(time.Microsecond))
		if ev.Adopted {
			sb.WriteString(indentBlock("  old remainder: ", ev.OldRemainder))
			sb.WriteString(indentBlock("  new remainder: ", ev.NewRemainder))
		}
	}
	return sb.String()
}

// indentBlock renders a multi-line plan under a header, indented.
func indentBlock(header, block string) string {
	var sb strings.Builder
	sb.WriteString(header)
	sb.WriteByte('\n')
	for _, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
		sb.WriteString("    ")
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SortedRows returns the rows sorted by their rendered terms, for
// deterministic comparisons in tests and examples.
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

// QueryContext plans and executes a SPARQL query against the store.
// Planning first consults the plan cache (keyed on the normalized BGP,
// the options, and the loader-statistics fingerprint); on a miss the
// Join Tree is translated from the BGP (paper §3.2) and the planner
// builds a physical plan with estimated cardinalities. Execution runs
// the plan as a task DAG on a bounded worker pool: independent
// subtrees (bushy arms, sibling scans) execute concurrently, each
// operator's actual output cardinality is recorded into a
// per-execution observation, and the simulated time is the critical
// path through the DAG.
//
// Execution is adaptive: a join whose input's observed cardinality
// missed its estimate by more than QueryOptions.ReplanThreshold does
// not run — the unexecuted remainder is re-planned over the
// materialized intermediates (with exact rebased statistics) and the
// corrected remainder is spliced in when its priced saving beats the
// re-planning charge. A query that re-planned writes the corrected
// plan back to the plan cache (keyed identically, estimates rebased to
// the observed cardinalities), so the next execution of the same query
// skips both the mistake and the re-plan. Only fully executed queries
// write back — a cancelled or failed run never poisons the cache.
//
// ctx cancels in-flight execution at task granularity: when the
// deadline passes, no further plan operators start and QueryContext
// returns a *CancelError wrapping the context error.
//
// QueryContext is safe for concurrent callers — cached plans are
// shared read-only, and all execution state is per-call.
func (s *Store) QueryContext(ctx context.Context, q *sparql.Query, opts QueryOptions) (*Result, error) {
	start := time.Now()
	// A per-query plan gets the check cluster.New gives the cluster's.
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	clock := opts.Clock
	if clock == nil {
		clock = cluster.NewClock()
	}
	// Coordinator mode: open the per-query shard session and force the
	// execution paths the distributed kernels do not take — streaming,
	// fault injection and adaptive re-planning — off. Planning is
	// unaffected (the session only executes kernels).
	var distSess DistSession
	streamingDowngraded := false
	if opts.Dist != nil {
		sess, err := opts.Dist.Session(ctx, q)
		if err != nil {
			return nil, err
		}
		distSess = sess
		defer distSess.Close()
		// A streaming request against the coordinator is a downgrade,
		// not a silent no-op: the flag surfaces in the result (and the
		// HTTP stats) so callers see which executor actually ran.
		streamingDowngraded = opts.Streaming
		opts.Streaming = false
		opts.Faults = nil
		opts.ReplanThreshold = -1
	}
	// The adaptive re-planner reasons over a single BGP's join/scan
	// remainder; the extended operators (LeftJoin, Union, TopK,
	// Aggregate) execute statically. Forced off before planning so the
	// cache key's resolved threshold matches the execution.
	if q.Extended() {
		opts.ReplanThreshold = -1
	}
	mode := opts.Planner
	// One statistics snapshot serves the whole query: the cache key's
	// fingerprint, leaf estimation, plan pricing and the re-planner's
	// sketch lookups all read the same collection, so a reload landing
	// mid-query can never produce a plan priced from a mixture of old
	// and new statistics (or cache one under the wrong fingerprint).
	snap := s.statsSnap.Load()
	entry, key, cacheable, err := s.planEntry(snap, q, mode, opts)
	if err != nil {
		return nil, err
	}
	pl := entry.plan

	filters, err := s.compileFilters(q)
	if err != nil {
		return nil, err
	}

	// The plan may have reordered (or bushed) the leaves; present the
	// Join Tree in scan execution order, in a fresh slice so the cached
	// node list is never touched.
	scans := pl.Scans()
	ordered := make([]*Node, 0, len(scans))
	for _, sc := range scans {
		ordered = append(ordered, entry.nodes[sc.Leaf])
	}
	tree := &JoinTree{Nodes: ordered}

	// Resolve the fault plan: per-query override first, then the
	// cluster-wide schedule; an inactive plan keeps the fault-free hot
	// path (faults stays nil, so no checksum or attempt bookkeeping).
	faults := opts.Faults
	if faults == nil {
		faults = s.cluster.Config().Faults
	}
	if !faults.Active() || distSess != nil {
		faults = nil
	}
	var faultSalt uint64
	if faults != nil {
		faultSalt = queryFaultSalt(q)
	}

	// Streaming dispatch: the morsel-driven executor takes every plan
	// it can run — including the extended operators and LIMIT/OFFSET,
	// which runs as a bounded top-K sink. handled=false means no work
	// was done (the compiler handed the plan back) — the materialized
	// path below executes as if Streaming were off, and the result says
	// so through StreamingDowngraded.
	if opts.Streaming {
		res, handled, err := s.queryStreaming(ctx, q, opts, clock, entry, tree, filters, faults, faultSalt, start)
		if err != nil {
			return nil, err
		}
		if handled {
			s.mineWorkload(res.Plan, entry.nodes, opts)
			return res, nil
		}
		streamingDowngraded = true
	}

	sched := &scheduler{
		store:           s,
		nodes:           entry.nodes,
		dist:            distSess,
		filters:         filters,
		opts:            opts,
		ctx:             ctx,
		startCost:       s.cluster.Config().Cost.SQLPlanning,
		replanThreshold: opts.replanThreshold(mode),
		filterSpecs:     filterSpecs(q, pl.Leaves),
		projection:      q.Projection(),
		distinct:        q.Distinct,
		costs:           s.planCosts(snap.col, opts),
		replanCharge:    s.cluster.Config().Cost.SQLPlanning,
	}
	if faults != nil {
		sched.faults = &faultState{plan: faults, salt: faultSalt}
	}
	rootTask, err := sched.execute(pl)
	var resil cluster.Recovery
	if sched.faults != nil {
		// The record totals on the store even when the query aborted —
		// failed recovery is exactly what /stats should show.
		resil = sched.faults.snapshot()
		s.resilience.add(resil)
	}
	if err != nil {
		return nil, err
	}

	// Epilogue: collect the root relation, priced on its own clock and
	// sequenced after the root task on the virtual timeline. An
	// extended query's plan already applied LIMIT/OFFSET (and ordering)
	// through its TopK operator, so the collect must preserve partition
	// order as-is; a plain BGP query has no limit to push (LIMIT makes
	// a query extended) and collects everything.
	epiClock := cluster.NewClock()
	e := engine.NewExec(s.cluster, epiClock)
	e.StartCost = 0
	e.BroadcastThreshold = opts.BroadcastThreshold
	var rows []engine.Row
	if q.Extended() {
		rows, err = e.Collect(rootTask.rel)
	} else {
		rows, err = e.Limit(rootTask.rel, q.Limit, q.Offset)
	}
	if err != nil {
		return nil, err
	}

	// Assemble the query's trace on a private clock — the stages in
	// deterministic plan order — then publish it into the result clock
	// in one atomic step, advancing by the DAG's critical path rather
	// than the stage sum (stages of independent subtrees overlap), so
	// a caller-shared opts.Clock accumulates correctly under
	// concurrent queries.
	trace := cluster.NewClock()
	trace.Charge("query planning", sched.startCost)
	sched.appendTrace(trace)
	trace.Absorb(epiClock.Stages())
	simTime := rootTask.done + epiClock.Elapsed()
	clock.MergeTrace(trace.Stages(), simTime)

	// The executed-plan view: the static plan stamped with actuals, or
	// the corrected grafted plan when re-planning fired.
	var executed *plan.Plan
	if len(sched.rounds) == 1 {
		executed = pl.Stamp(sched.rounds[0].obs)
	} else {
		executed = sched.executedPlan()
	}
	if distSess != nil {
		// EXPLAIN view: measured vs priced bytes per exchange node.
		annotateDistPlan(executed, distSess.Records())
	}

	// Feedback write-back: a fully executed query that evaluated a
	// re-plan stores the corrected plan (estimates rebased to observed
	// cardinalities) under the same key, turning the cache from a
	// memoizer into a feedback store — the next execution neither
	// repeats the estimation mistake nor re-pays the re-plan.
	if cacheable && len(sched.events) > 0 {
		s.planCache.put(key, &cachedPlan{nodes: entry.nodes, plan: executed.Rebase(), corrected: true})
	}
	s.adaptive.record(sched.events)

	// Workload mining reads the first round's stamped plan, never the
	// grafted executed view: grafted fragments carry Leaf indexes into
	// other rounds' node lists, and the first round observed every
	// operator that ran before any re-plan fired.
	if s.workload != nil {
		mined := executed
		if len(sched.rounds) != 1 {
			mined = pl.Stamp(sched.rounds[0].obs)
		}
		s.mineWorkload(mined, entry.nodes, opts)
	}

	decoded := s.decodeRows(rows, pl.Root.CountCols)
	return &Result{
		Vars:                q.Projection(),
		Rows:                decoded,
		SimTime:             simTime,
		WallTime:            time.Since(start),
		Tree:                tree,
		Plan:                executed,
		Clock:               clock,
		Replans:             sched.events,
		CacheFeedback:       entry.corrected,
		Resilience:          resil,
		PeakMemBytes:        materializedPeakBytes(sched, simTime),
		Ordered:             len(q.Order) > 0,
		StreamingDowngraded: streamingDowngraded,
	}, nil
}

// planEntry resolves the (translate + plan) pipeline through the plan
// cache: a hit returns the shared immutable entry; a miss translates,
// plans, inserts and returns. The returned key and cacheable flag let
// the caller write a corrected plan back after an adaptive run.
func (s *Store) planEntry(snap *statsSnapshot, q *sparql.Query, mode plan.Mode, opts QueryOptions) (entry *cachedPlan, key string, cacheable bool, err error) {
	cacheable = !opts.NoPlanCache && s.planCache != nil
	if cacheable {
		key = planCacheKey(q, mode, opts, snap.fp, s.workloadEpoch(), s.offersExtVP(opts))
		if e, ok := s.planCache.get(key); ok {
			return e, key, cacheable, nil
		}
	}
	if q.Extended() {
		entry, err = s.planExtended(snap, q, mode, opts)
		if err != nil {
			return nil, "", false, err
		}
	} else {
		tree, err := s.translateWith(snap.col, q, opts.Strategy)
		if err != nil {
			return nil, "", false, err
		}
		if mode == plan.ModeNaive {
			naiveOrder(tree, q)
		}
		pl := s.buildPlan(snap.col, tree, q, mode, opts)
		if pl == nil {
			return nil, "", false, fmt.Errorf("core: query has no patterns")
		}
		entry = &cachedPlan{nodes: tree.Nodes, plan: pl}
	}
	if cacheable {
		s.planCache.put(key, entry)
	}
	return entry, key, cacheable, nil
}

// PlanCacheMetrics snapshots the store's plan-cache counters.
func (s *Store) PlanCacheMetrics() CacheMetrics {
	if s.planCache == nil {
		return CacheMetrics{}
	}
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
	for _, f := range filters {
		op, err := compareFn(f.Op)
		if err != nil {
			return nil, err
		}
		value := f.Value
		out = append(out, compiledFilter{
			v: f.Var,
			pred: func(id rdf.ID) bool {
				return engine.CompareIDs(s.dict, id, op, value)
			},
		})
	}
	return out, nil
}

// compareFn maps a comparison operator to a predicate over Compare's
// three-way result.
func compareFn(op sparql.CompareOp) (func(int) bool, error) {
	switch op {
	case sparql.OpEQ:
		return func(c int) bool { return c == 0 }, nil
	case sparql.OpNE:
		return func(c int) bool { return c != 0 }, nil
	case sparql.OpLT:
		return func(c int) bool { return c < 0 }, nil
	case sparql.OpLE:
		return func(c int) bool { return c <= 0 }, nil
	case sparql.OpGT:
		return func(c int) bool { return c > 0 }, nil
	case sparql.OpGE:
		return func(c int) bool { return c >= 0 }, nil
	default:
		return nil, fmt.Errorf("core: unsupported filter operator %v", op)
	}
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
// routes. Returned rows are freshly allocated (stable).
func (s *Store) triplesMatches(tp sparql.TriplePattern, rowPred func(engine.Row) bool) []engine.Row {
	outVars := tp.Vars()
	// Resolve bound positions.
	var sid, oid rdf.ID
	if !tp.S.IsVar() {
		id, ok := s.dict.Lookup(tp.S.Term)
		if !ok {
			return nil
		}
		sid = id
	}
	if !tp.O.IsVar() {
		id, ok := s.dict.Lookup(tp.O.Term)
		if !ok {
			return nil
		}
		oid = id
	}
	var rows []engine.Row
	for _, t := range s.triples {
		if sid != rdf.NullID && t.S != sid {
			continue
		}
		if oid != rdf.NullID && t.O != oid {
			continue
		}
		row := make(engine.Row, 0, len(outVars))
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
			rows = append(rows, row)
		}
	}
	return rows
}
