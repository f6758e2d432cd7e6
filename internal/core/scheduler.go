package core

import (
	"context"
	"fmt"
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
	// done is the task's virtual completion time: start plus the task's
	// own stage time (plus recovery, under fault injection).
	done time.Duration
	// stages is the task's priced stage trace.
	stages []cluster.StageRecord
	// zeroCopy marks a scan task whose relation is the stored table's own
	// rows (NodeScan.zeroCopy): no intermediate exists for the peak-memory
	// sweep to count.
	zeroCopy bool

	// xsum is the delivered exchange checksum of the task's output in
	// the packed-uint64 wire format, possibly corrupted in flight by the
	// fault plan; the consumer verifies it against the payload before
	// reading. Guarded by hasXsum and only set under an active fault
	// plan — the fault-free path never computes checksums.
	xsum    uint64
	hasXsum bool
}

// scheduler executes one physical plan as a task DAG on a bounded
// worker pool, to completion. Independent subtrees run concurrently,
// both for real and on the virtual clock; every task records its
// observed cardinality, and a task's virtual times depend only on the
// plan and those cardinalities, never on pool interleaving, so SimTime
// is identical across runs and concurrency levels.
//
// Under an active fault plan a task's attempts run through
// cluster.FaultPlan.RunAttempts, the loop the morsel simulator shares;
// what the scheduler owns of fault handling is what only materialized
// tasks have — consumer-side checksum verification (verifyInput) and
// lineage recompute.
//
// All mutable state is per-execution, so Store.Query remains safe for
// concurrent callers sharing cached plans.
type scheduler struct {
	store   *Store
	nodes   []*Node
	filters []compiledFilter
	// r is the query's resolved options: the pool width and the
	// broadcast cap. dist, when set, is the shard session scan and
	// exchange kernels are delegated to (fault injection is off then, so
	// only the fault-free run() path ever sees it).
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

	completed  atomic.Int64
	totalTasks atomic.Int64

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
// A task is dispatched the moment its last dependency completes; the
// ready queue is buffered to the task count, so completing a task never
// blocks on enqueueing its parent.
func (sc *scheduler) execute(pl *plan.Plan) (*execTask, error) {
	sc.root, sc.tasks = buildTasks(pl.Root)
	sc.obs = plan.NewObservation(pl)
	if sc.r.faults != nil {
		sc.obs.EnableAttempts()
	}
	sc.totalTasks.Store(int64(len(sc.tasks)))

	ready := make(chan *execTask, len(sc.tasks))
	done := make(chan struct{})
	remaining := int32(len(sc.tasks))
	dispatch := func(t *execTask) {
		t.start = sc.planning
		for _, d := range t.deps {
			t.start = max(t.start, d.done)
		}
		ready <- t
	}
	// Seed the leaves before any worker starts, so the initial pending
	// reads are free of concurrent completions.
	for _, t := range sc.tasks {
		if t.pending == 0 {
			dispatch(t)
		}
	}
	for range min(sc.r.par, len(sc.tasks)) {
		go func() {
			for {
				select {
				case t := <-ready:
					sc.run(t)
					if p := t.parent; p != nil && atomic.AddInt32(&p.pending, -1) == 0 {
						dispatch(p)
					}
					if atomic.AddInt32(&remaining, -1) == 0 {
						close(done)
					}
				case <-done:
					return
				}
			}
		}()
	}
	<-done
	if sc.err != nil {
		return nil, sc.err
	}
	if sc.r.faults != nil {
		// The root's own delivery to the driver is an exchange too: verify
		// it and recompute from lineage on corruption, so the epilogue
		// always reads a clean payload.
		extra, err := sc.verifyInput(sc.root)
		if err != nil {
			return nil, err
		}
		sc.root.done += extra
	}
	return sc.root, nil
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

// fail records the first error and stops further work.
func (sc *scheduler) fail(err error) {
	sc.errOnce.Do(func() { sc.err = err })
	sc.failed.Store(true)
}

// run executes one task against its own virtual clock and records its
// observed cardinality and completion time. Tasks scheduled after a
// failure complete immediately without doing work, so the DAG drains.
func (sc *scheduler) run(t *execTask) {
	if sc.failed.Load() {
		return
	}
	if sc.ctx != nil {
		if cerr := sc.ctx.Err(); cerr != nil {
			sc.fail(&CancelError{
				Err:            cerr,
				CompletedTasks: int(sc.completed.Load()),
				TotalTasks:     int(sc.totalTasks.Load()),
			})
			return
		}
	}
	if sc.r.faults != nil {
		sc.runResilient(t)
		return
	}
	e := sc.newExec(t.node)
	rel, err := sc.execOp(e, t, taskInputs(t))
	if err != nil {
		// A dead shard becomes the typed abort; any other error passes
		// through unchanged.
		sc.fail(wrapShardErr(err, t, int(sc.completed.Load()), int(sc.totalTasks.Load())))
		return
	}
	t.rel = rel
	sc.obs.Record(t.node, int64(rel.NumRows()))
	t.stages = e.Clock.Stages()
	releaseInputs(t)
	// Zero-cost operators (empty-table shortcuts) still complete strictly
	// after they start.
	t.done = t.start + max(e.Clock.Elapsed(), 1)
	sc.completed.Add(1)
}

// releaseInputs frees a completed task's consumed inputs, so large
// intermediates do not outlive the operator that read them. Under fault
// injection a freed input can still be recovered: lineage
// recomputation re-executes its subtree on demand.
func releaseInputs(t *execTask) {
	for _, d := range t.deps {
		d.rel = nil
	}
}

// taskKey identifies one task for the fault plan: the node's stable
// plan ID, independent of pool interleaving. The scheduler XORs in its
// per-query fault salt so two queries whose plans happen to share small
// node IDs still draw independent fault schedules.
func taskKey(nodeID int) uint64 {
	return uint64(uint32(nodeID))
}

// corruptFlip is the bit pattern a corrupted exchange XORs into the
// delivered checksum, guaranteeing a detectable mismatch.
const corruptFlip uint64 = 0xDEADBEEFCAFEF00D

// runResilient executes one task under the active fault plan. What is
// specific to a materialized task lives here: every input is
// checksum-verified before reading (a corrupted exchange recomputes its
// producer from lineage), each attempt re-executes the operator for
// real, and the output's delivered checksum may be corrupted in turn.
// The attempt loop itself — retries with capped exponential virtual
// backoff, straggler speculation, the attempt budget — is
// cluster.FaultPlan.RunAttempts, shared with the morsel simulator. All
// recovery is priced into the task's virtual completion, so SimTime
// reflects recovery cost; exhausting the budget aborts the query with a
// typed *TaskFailedError carrying the attempt trace.
//
// Every fault decision is a pure function of (seed, node ID, attempt,
// virtual start), so the recovery schedule — and therefore SimTime — is
// deterministic across runs and concurrency levels.
func (sc *scheduler) runResilient(t *execTask) {
	f := sc.r.faults
	key := taskKey(t.node.ID) ^ sc.r.faultSalt

	// Consumer-side integrity check: verify each input's delivered
	// checksum against its payload before reading it; recovery time is
	// sequenced before this task's own attempts.
	vstart := t.start
	for _, d := range t.deps {
		extra, err := sc.verifyInput(d)
		if err != nil {
			sc.fail(err)
			return
		}
		vstart += extra
	}

	// The last attempt's output and stage trace are the task's.
	var rel *engine.Relation
	var clk *cluster.Clock
	done, trace, rec, err := f.RunAttempts(key, vstart, sc.store.cluster.Workers(), func() (time.Duration, error) {
		e := sc.newExec(t.node)
		clk = e.Clock
		var err error
		if rel, err = sc.execOp(e, t, taskInputs(t)); err != nil {
			return 0, err
		}
		return max(clk.Elapsed(), 1), nil
	})
	sc.recovery.add(rec)
	if err != nil {
		if err == cluster.ErrAttemptsExhausted {
			err = &TaskFailedError{
				Task:           nodeDesc(t.node),
				Attempts:       trace,
				CompletedTasks: int(sc.completed.Load()),
				TotalTasks:     int(sc.totalTasks.Load()),
			}
		}
		// Anything else is a real execution error, not an injected
		// fault: fail fast.
		sc.fail(err)
		return
	}
	t.rel = rel
	t.stages = clk.Stages()
	t.done = done

	// Delivered checksum over the packed-uint64 payload: a corrupted
	// exchange flips bits in flight; the consumer detects the mismatch
	// and recomputes this task from lineage.
	sum := t.rel.Checksum()
	if f.CorruptDelivery(key) {
		sum ^= corruptFlip
	}
	t.xsum, t.hasXsum = sum, true

	sc.obs.Record(t.node, int64(t.rel.NumRows()))
	sc.obs.RecordAttempts(t.node, len(trace))
	releaseInputs(t)
	sc.completed.Add(1)
}

// verifyInput checks a produced task's delivered checksum against its
// payload. On mismatch — the simulated exchange corrupted the relation
// in flight — the producer is re-executed from its lineage (inputs
// already freed by the eager-release policy are recursively recomputed;
// scans re-read the store), the re-delivery is marked clean, and the
// recomputation's priced time is returned for the consumer to sequence
// before its own work. A task's relation has exactly one consumer (the
// plan is a tree), so no locking is needed.
func (sc *scheduler) verifyInput(d *execTask) (time.Duration, error) {
	if !d.hasXsum || d.rel == nil || d.xsum == d.rel.Checksum() {
		return 0, nil
	}
	rec := cluster.Recovery{ChecksumFailures: 1}
	e := sc.newExec(d.node)
	rel, err := sc.recompute(e, d, &rec)
	if err == nil {
		d.rel = rel
		d.xsum = rel.Checksum()
		rec.RecoveryTime = max(e.Clock.Elapsed(), 1)
	}
	sc.recovery.add(rec)
	return rec.RecoveryTime, err
}

// recompute re-executes a task's operator from its recorded lineage —
// the task tree itself: dependencies whose relations were eagerly freed
// are recursively recomputed (scans re-read the store), exactly the
// lineage-based recovery Spark performs for a lost partition. The
// transient input relations are not re-retained; only the requested
// task's output is returned; rec counts every task re-executed.
func (sc *scheduler) recompute(e *engine.Exec, t *execTask, rec *cluster.Recovery) (*engine.Relation, error) {
	rec.LineageRecomputes++
	in := make([]*engine.Relation, len(t.deps))
	for i, d := range t.deps {
		if d.rel != nil {
			in[i] = d.rel
			continue
		}
		rel, err := sc.recompute(e, d, rec)
		if err != nil {
			return nil, err
		}
		in[i] = rel
	}
	return sc.execOp(e, t, in)
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

// taskInputs gathers a task's dependency relations in child order —
// the inputs execOp evaluates over in normal execution. Lineage
// recomputation passes reconstructed relations instead.
func taskInputs(t *execTask) []*engine.Relation {
	if len(t.deps) == 0 {
		return nil
	}
	in := make([]*engine.Relation, len(t.deps))
	for i, d := range t.deps {
		in[i] = d.rel
	}
	return in
}

// execOp evaluates one plan operator over the given input relations
// (one per child, in child order). Inputs are passed explicitly rather
// than read off the task's dependencies so lineage recomputation can
// re-run an operator whose original inputs were freed.
func (sc *scheduler) execOp(e *engine.Exec, t *execTask, in []*engine.Relation) (*engine.Relation, error) {
	n := t.node
	switch n.Op {
	case plan.OpScan:
		rel, err := sc.execScan(e, t)
		if err != nil {
			return nil, fmt.Errorf("core: executing %s: %w", sc.nodes[n.Leaf].Label(), err)
		}
		return rel, nil
	case plan.OpFilter:
		return applyResidualFilters(e, in[0], pickFilters(sc.filters, n.Filters))
	case plan.OpJoin:
		rel, err := e.JoinKeep(in[0], in[1], n.Children[1].Label, joinStrategy(n.Method), n.Keep)
		if err != nil {
			return nil, fmt.Errorf("core: joining %s: %w", n.Children[1].Label, err)
		}
		return rel, nil
	case plan.OpProject:
		return e.Project(in[0], n.Cols)
	case plan.OpDistinct:
		return e.Distinct(in[0])
	case plan.OpLeftJoin:
		rel, err := e.LeftJoin(in[0], in[1], n.Label)
		if err != nil {
			return nil, fmt.Errorf("core: left-joining %s: %w", n.Label, err)
		}
		return rel, nil
	case plan.OpUnion:
		return e.UnionAll(in...)
	case plan.OpTopK:
		return e.TopK(in[0], sc.store.topkLess(n), n.Limit, n.Offset)
	case plan.OpAggregate:
		counts := make([]engine.AggCount, len(n.CountVars))
		for i, v := range n.CountVars {
			counts[i] = engine.AggCount{Var: v, As: n.Vars[len(n.GroupCols)+i]}
		}
		return e.Aggregate(in[0], n.GroupCols, counts)
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
