package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
)

// execTask is one schedulable unit of a query: a plan operator plus
// its input dependencies. Tasks form a tree mirroring the plan; a task
// becomes runnable when every dependency has produced its relation.
type execTask struct {
	node   *plan.Node
	deps   []*execTask
	parent *execTask
	// pending counts unfinished dependencies; the task is dispatched
	// when it reaches zero.
	pending int32

	// start is the task's virtual start time: max of the query start
	// cost and its dependencies' completions.
	start time.Duration
	// rel is the task's output relation, nil until the task ran (or
	// forever, when execution failed before it could run), and nil again
	// once its consumer completed (releaseInputs).
	rel *engine.Relation
	// own is the virtual time of the task's operator alone: its clock's
	// stage sum.
	own time.Duration
	// done is the task's virtual completion time: start plus the task's
	// own stage time (plus recovery, under fault injection).
	done time.Duration
	// stages is the task's priced stage trace.
	stages []cluster.StageRecord
	// zeroCopy marks a scan task whose relation is the stored table's own
	// rows (NodeScan.zeroCopy): no intermediate exists for the peak-memory
	// sweep to count.
	zeroCopy bool

	// exhausted is the attempt trace of a task that ran out of attempts
	// under the fault plan; lost marks such a task and every task above
	// it, which never run. The rest of the plan runs to completion.
	exhausted []cluster.Attempt
	lost      bool
}

// scheduler executes one physical plan as a task DAG on a bounded set
// of workers, to completion. Independent subtrees run concurrently,
// both for real and on the virtual clock; every task records its
// observed cardinality, and a task's virtual times depend only on the
// plan and those cardinalities, never on worker interleaving, so SimTime
// is identical across runs and concurrency levels.
//
// Each operator runs once. Under an active fault plan its recovery is
// priced from that run's time, never re-executed: its attempts through
// cluster.FaultPlan.RunAttempts, the loop the morsel simulator shares,
// and a corrupted delivery as a recompute of the producer's lineage
// (price).
//
// All mutable state is per-execution, so Store.Query remains safe for
// concurrent callers sharing cached plans.
type scheduler struct {
	store   *Store
	nodes   []*Node
	filters []compiledFilter
	// r is the query's resolved options: the broadcast cap and the fault
	// plan. dist, when set, is the shard session scan and exchange
	// kernels are delegated to.
	r    resolved
	dist DistSession
	ctx  context.Context
	// region is the query's memory: every operator's output and scratch.
	region *engine.Region
	// planning is the per-query planning charge every leaf task starts
	// after.
	planning time.Duration

	// tasks are the plan's tasks, children before parents; root is the
	// last. obs records every task's observed cardinality.
	tasks []*execTask
	root  *execTask
	obs   *plan.Observation

	// ops runs the operators; ready queues those whose inputs are all in.
	ops   cluster.Tasks
	ready chan *execTask

	completed atomic.Int64

	// failed, errOnce and err hold the first real error or cancellation,
	// which stops every task; an exhausted attempt budget stops only its
	// own ancestors.
	failed  atomic.Bool
	errOnce sync.Once
	err     error

	// recovery is the query's recovery record; only an execution under an
	// active fault plan (r.faults) touches it.
	recovery recoveryTotal
}

// buildTasks flattens the plan into tasks, children before parents.
func buildTasks(root *plan.Node) (rootTask *execTask, all []*execTask) {
	var walk func(n *plan.Node, parent *execTask) *execTask
	walk = func(n *plan.Node, parent *execTask) *execTask {
		t := &execTask{node: n, parent: parent, pending: int32(len(n.Children))}
		for _, c := range n.Children {
			t.deps = append(t.deps, walk(c, t))
		}
		all = append(all, t)
		return t
	}
	rootTask = walk(root, nil)
	return rootTask, all
}

// execute runs the plan's DAG to completion and returns the root task.
// Its operators run as the tasks of one cluster.Run on min(GOMAXPROCS,
// operators) workers; the ready queue is buffered to the operator count,
// so completing one never blocks on queueing its parent.
func (sc *scheduler) execute(pl *plan.Plan) (*execTask, error) {
	sc.root, sc.tasks = buildTasks(pl.Root)
	sc.obs = plan.NewObservation(pl)
	if sc.r.faults != nil {
		sc.obs.EnableAttempts()
	}

	sc.ready = make(chan *execTask, len(sc.tasks))
	// Queue the leaves before any worker starts, so the initial pending
	// reads are free of concurrent completions.
	for _, t := range sc.tasks {
		if t.pending == 0 {
			sc.dispatch(t)
		}
	}
	_ = cluster.Run(runtime.GOMAXPROCS(0), len(sc.tasks), &sc.ops, sc) // a failure is sc.err
	if sc.err != nil {
		return nil, sc.err
	}
	if sc.root.lost {
		return nil, sc.exhaustion()
	}
	return sc.root, nil
}

// exhaustion reports the task whose attempts ran out earliest on the
// virtual timeline (ties: the lower plan node ID). Every task not above
// an exhausted one ran, so the report and its progress count are the
// same however the workers interleaved.
func (sc *scheduler) exhaustion() error {
	end := func(t *execTask) time.Duration { return t.exhausted[len(t.exhausted)-1].End }
	var first *execTask
	for _, t := range sc.tasks {
		if t.exhausted != nil && (first == nil || end(t) < end(first) || end(t) == end(first) && t.node.ID < first.node.ID) {
			first = t
		}
	}
	return &TaskFailedError{
		Task:           nodeDesc(first.node),
		Attempts:       first.exhausted,
		CompletedTasks: int(sc.completed.Load()),
		TotalTasks:     len(sc.tasks),
	}
}

// dispatch queues t, its dependencies all done, to start at the last.
func (sc *scheduler) dispatch(t *execTask) {
	t.start = sc.planning
	for _, d := range t.deps {
		t.start = max(t.start, d.done)
	}
	sc.ready <- t
}

// Task implements cluster.Job: it runs the next ready operator and
// queues its parent once that has every input. There are as many tasks
// as operators, so each runs once, and a worker waiting for one always
// has another running ahead of it.
func (sc *scheduler) Task(_, _ int) error {
	t := <-sc.ready
	sc.run(t)
	if p := t.parent; p != nil && atomic.AddInt32(&p.pending, -1) == 0 {
		sc.dispatch(p)
	}
	return nil
}

// newExec returns an engine context for plan node n's task (or the
// epilogue, which collects the root's output) on a clock of its own,
// carrying n's ID into every exchange it makes. The per-query planning
// cost is charged once at the scheduler level, not per task.
func (sc *scheduler) newExec(n *plan.Node) *engine.Exec {
	e := engine.NewExec(sc.store.cluster, cluster.NewClock())
	e.StartCost = 0
	e.BroadcastThreshold = sc.r.broadcast
	e.Dist = sc.dist
	e.Node = n.ID
	e.Region = sc.region
	return e
}

// fail records the first real error or cancellation and stops further
// work.
func (sc *scheduler) fail(err error) {
	sc.errOnce.Do(func() { sc.err = err })
	sc.failed.Store(true)
}

// run executes one task's operator, once, against its own virtual
// clock and records its observed cardinality and completion time; under
// a fault plan, price then charges its recovery. Tasks scheduled after a
// failure complete immediately without doing work, so the DAG drains;
// a task with a lost input is lost too.
func (sc *scheduler) run(t *execTask) {
	if sc.failed.Load() {
		return
	}
	if sc.ctx != nil {
		if cerr := sc.ctx.Err(); cerr != nil {
			sc.fail(&CancelError{
				Err:            cerr,
				CompletedTasks: int(sc.completed.Load()),
				TotalTasks:     len(sc.tasks),
			})
			return
		}
	}
	for _, d := range t.deps {
		if d.lost {
			t.lost = true
			return
		}
	}
	e := sc.newExec(t.node)
	rel, err := sc.execOp(e, t)
	if err != nil {
		// A dead shard becomes the typed abort; any other error passes
		// through unchanged.
		sc.fail(wrapShardErr(err, t, int(sc.completed.Load()), len(sc.tasks)))
		return
	}
	t.own = e.Clock.Elapsed()
	// Zero-cost operators (empty-table shortcuts) still complete strictly
	// after they start.
	t.done = t.start + max(t.own, 1)
	if sc.r.faults != nil && !sc.price(t) {
		return
	}
	t.rel = rel
	sc.obs.Record(t.node, int64(rel.NumRows()))
	t.stages = e.Clock.Stages()
	releaseInputs(t)
	sc.completed.Add(1)
}

// releaseInputs frees a completed task's consumed inputs, so large
// intermediates do not outlive the operator that read them. Recovering
// a freed input is priced, not run (lineage).
func releaseInputs(t *execTask) {
	for _, d := range t.deps {
		d.rel = nil
	}
}

// faultKey identifies t for the fault plan: its node's stable plan ID,
// independent of pool interleaving, salted per query so two queries
// whose plans share small node IDs draw independent fault schedules.
func (sc *scheduler) faultKey(t *execTask) uint64 {
	return uint64(uint32(t.node.ID)) ^ sc.r.faultSalt
}

// price charges the active fault plan against t's one run and reports
// whether t completed. A corrupted delivery of an input is detected by
// its consumer and recomputed from lineage before the consumer starts;
// so is the root's delivery to the driver, after the root's attempts.
// The attempts themselves — retries with capped exponential virtual
// backoff, straggler speculation, the attempt budget — are
// cluster.FaultPlan.RunAttempts, shared with the morsel simulator, each
// attempt costing the run's time. A task that exhausts the budget is
// lost, and with it its ancestors; execute reports it as a
// *TaskFailedError.
//
// Every fault decision is a pure function of (seed, node ID, attempt,
// virtual start), so the recovery schedule — and therefore SimTime — is
// deterministic across runs and concurrency levels.
func (sc *scheduler) price(t *execTask) bool {
	var rec cluster.Recovery
	start := t.start
	for _, d := range t.deps {
		start += sc.lineage(d, &rec)
	}
	done, trace, arec, exhausted := sc.r.faults.RunAttempts(sc.faultKey(t), start, sc.store.cluster.Workers(), max(t.own, 1))
	rec.Add(arec)
	if !exhausted && t.parent == nil {
		done += sc.lineage(t, &rec)
	}
	sc.recovery.add(rec)
	if exhausted {
		t.exhausted, t.lost = trace, true
		return false
	}
	t.done = done
	sc.obs.RecordAttempts(t.node, len(trace))
	return true
}

// lineage prices the recovery of d's delivery when the fault plan
// corrupts it: the consumer's checksum fails and d's whole subtree is
// recomputed (freed inputs included, scans re-reading the store), as
// Spark recovers a lost partition from its lineage. It returns the time
// that adds before the consumer may read, zero for a clean delivery.
func (sc *scheduler) lineage(d *execTask, rec *cluster.Recovery) time.Duration {
	if !sc.r.faults.CorruptDelivery(sc.faultKey(d)) {
		return 0
	}
	var own time.Duration
	var walk func(t *execTask)
	walk = func(t *execTask) {
		rec.LineageRecomputes++
		own += t.own
		for _, c := range t.deps {
			walk(c)
		}
	}
	walk(d)
	rec.ChecksumFailures++
	rec.RecoveryTime += max(own, 1)
	return max(own, 1)
}

// nodeDesc renders a node for errors and correction events.
func nodeDesc(n *plan.Node) string {
	if n.Label == "" {
		return strings.ToLower(n.Op.String())
	}
	return strings.ToLower(n.Op.String()) + " " + n.Label
}

// appendTrace merges the executed stage records into the result clock
// in deterministic plan postorder (independent of the real interleaving
// the pool happened to run).
func (sc *scheduler) appendTrace(clock *cluster.Clock) {
	for _, t := range sc.tasks {
		clock.Absorb(t.stages)
	}
	// Recovery shows up in the trace as one aggregate record — the stage
	// list keeps the clean per-operator stages, and SimTime (the critical
	// path) already includes each task's recovery.
	if rec := sc.recovery.snapshot().RecoveryTime; rec > 0 {
		clock.Charge("fault recovery (retries, backoff, speculation, recompute)", rec)
	}
}

// execOp evaluates one plan operator over its dependencies' relations
// (one per child, in child order).
func (sc *scheduler) execOp(e *engine.Exec, t *execTask) (*engine.Relation, error) {
	n, in := t.node, t.deps
	switch n.Op {
	case plan.OpScan:
		rel, err := sc.execScan(e, t)
		if err != nil {
			return nil, fmt.Errorf("core: executing %s: %w", sc.nodes[n.Leaf].Label(), err)
		}
		return rel, nil
	case plan.OpFilter:
		return applyResidualFilters(e, in[0].rel, pickFilters(sc.filters, n.Filters))
	case plan.OpJoin:
		rel, err := e.JoinKeep(in[0].rel, in[1].rel, n.Children[1].Label, joinStrategy(n.Method), n.Keep)
		if err != nil {
			return nil, fmt.Errorf("core: joining %s: %w", n.Children[1].Label, err)
		}
		return rel, nil
	case plan.OpProject:
		return e.Project(in[0].rel, n.Cols)
	case plan.OpDistinct:
		return e.Distinct(in[0].rel)
	case plan.OpLeftJoin:
		rel, err := e.LeftJoin(in[0].rel, in[1].rel, n.Label)
		if err != nil {
			return nil, fmt.Errorf("core: left-joining %s: %w", n.Label, err)
		}
		return rel, nil
	case plan.OpUnion:
		rels := make([]*engine.Relation, len(in))
		for i, d := range in {
			rels[i] = d.rel
		}
		return e.UnionAll(rels...)
	case plan.OpTopK:
		return e.TopK(in[0].rel, sc.store.topkLess(n), n.Limit, n.Offset)
	case plan.OpAggregate:
		counts := make([]engine.AggCount, len(n.CountVars))
		for i, v := range n.CountVars {
			counts[i] = engine.AggCount{Var: v, As: n.Vars[len(n.GroupCols)+i]}
		}
		return e.Aggregate(in[0].rel, n.GroupCols, counts)
	default:
		return nil, fmt.Errorf("core: unknown plan operator %v", n.Op)
	}
}

// execScan is the scheduler's one scan operator, local and sharded
// alike. The node is resolved into its NodeScan; the scan stage then runs
// one task per table partition, whose rows are the stored partition
// itself when there is nothing to test, come from the NodeScan's
// per-partition scan in this process, or from the shards' own NodeScans
// through DistSession.ScanNode — same stage, same charge, same shape step
// either way. A VP scan that drops a stored column pays the Project pass
// Spark plans for it; a fully-bound pattern collapses to an existence
// test (a single empty row keeps join semantics: cartesian with one row
// is the identity). The raw-triples fallback is evaluated here in both
// modes.
func (sc *scheduler) execScan(e *engine.Exec, t *execTask) (*engine.Relation, error) {
	s, n := sc.store, t.node
	cn := sc.nodes[n.Leaf]
	ns, err := s.resolveScan(cn, pickFilters(sc.filters, n.Filters), n.ExtVP)
	if err != nil {
		return nil, err
	}
	t.zeroCopy = ns.zeroCopy()
	var name string
	switch ns.kind {
	case scanEmpty:
		return engine.NewBlockRelation(ns.schema(), make([]engine.Block, ns.parts), ""), nil
	case scanTriples:
		rel, err := engine.PartitionBlock(sc.region, ns.storedSchema(), s.triplesMatches(*ns.tp, ns.rowPred, sc.region), ns.partCol, ns.parts)
		if err != nil {
			return nil, err
		}
		return e.Scan(rel, "triples ?"+ns.tp.P.Var, ns.diskBytes)
	case scanPT:
		name = cn.Label()
	default:
		if name = ns.label; name == "" {
			name = "VP " + localName(cn.Patterns[0].P.Term.Value)
		}
	}

	// Where the stage's rows come from is all that tells the routes and
	// the tables apart: the shards' reply, the stored partitions
	// themselves (nothing to test, no scan function), or a scan of each
	// partition inside the stage.
	var parts []engine.Block
	var scan func(p int) (engine.Block, int64)
	ps := ns.partScan // by value: the tasks outlive no stack frame of ours
	switch dist := sc.dist; {
	case dist != nil:
		// Shards hold base tables; the resolver offers a sharded query's
		// planner no reduction, so the coordinator never charges one.
		if n.ExtVP != nil {
			return nil, fmt.Errorf("core: sharded plan scans a reduction at %s", cn.Label())
		}
		reply, processed, err := dist.ScanNode(n.ID, cn, n.Filters, cn.Label(), ns.diskBytes)
		if err != nil {
			return nil, err
		}
		if len(reply) != ns.parts || len(processed) != ns.parts {
			return nil, fmt.Errorf("core: dist scan %s returned %d/%d partitions, table has %d", cn.Label(), len(reply), len(processed), ns.parts)
		}
		parts = reply
		scan = func(p int) (engine.Block, int64) {
			return reply[p], ps.stageRows(p, processed[p], reply[p].Len())
		}
	case ns.pt == nil && ns.pred == nil:
		parts = ns.table.Rel.Parts()
	default:
		parts = make([]engine.Block, ns.parts)
		var scans []ptScan
		if ps.pt != nil {
			scans = ptScans(ps.spec, ns.parts, sc.region)
		}
		scan = func(p int) (engine.Block, int64) {
			var scratch *ptScan
			if scans != nil {
				scratch = &scans[p]
			}
			rows, keys := ps.scan(scratch, p, sc.region)
			return rows, ps.stageRows(p, keys, rows.Len())
		}
	}
	rel, err := e.ScanParts(name, ns.storedSchema(), ns.partCol, parts, ns.diskBytes, scan)
	switch {
	case err != nil:
		return nil, err
	case ns.kind == scanVPExist:
		parts := make([]engine.Block, 1)
		if rel.NumRows() > 0 {
			parts[0] = engine.MakeBlock(0, 1, nil)
		}
		return engine.NewBlockRelation(engine.Schema{}, parts, ""), nil
	case ns.projects():
		return e.Project(rel, ns.schema())
	}
	return rel, nil
}

// CancelError reports a query stopped by its context deadline or
// cancellation, with how much of the plan had executed — the partial
// trace info prost-serve returns alongside a 504.
type CancelError struct {
	// Err is the context error (context.DeadlineExceeded or
	// context.Canceled).
	Err error
	// CompletedTasks and TotalTasks count plan operators executed vs
	// scheduled when the cancellation was observed.
	CompletedTasks, TotalTasks int
}

// Error implements error.
func (e *CancelError) Error() string {
	return fmt.Sprintf("core: query canceled after %d/%d plan tasks: %v",
		e.CompletedTasks, e.TotalTasks, e.Err)
}

// Unwrap exposes the context error to errors.Is.
func (e *CancelError) Unwrap() error { return e.Err }
