package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
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
	// tainted marks a task whose subtree contains a blocked task — it
	// will never run this round and resolves as skipped.
	tainted atomic.Bool
	// blocked marks a task the adaptive pause gate stopped: its virtual
	// start is at or after a known re-plan trigger's completion, so it
	// belongs to the re-planned remainder.
	blocked bool
	// executed reports the task ran (successfully or as a post-failure
	// no-op).
	executed bool
	// discarded marks a task that ran before the pause point was known
	// but virtually starts at or after it: its result and stages are
	// dropped and its work is re-planned, exactly as if the gate had
	// caught it (the driver cancelling a just-queued stage).
	discarded bool

	// start is the task's virtual start time: max of the round floor,
	// the query start cost and its dependencies' completions.
	start time.Duration
	// rel is the task's output relation, nil until the task ran (or
	// forever, when execution failed before it could run).
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

// boundInput wires one materialized intermediate into the next round:
// the relation a Bound leaf reads, its virtual completion time, the
// executed node (in its round's plan) the corrected plan grafts back,
// and the measured leaf statistics, reused verbatim if the fragment is
// re-bound by a later round's re-plan (the relation never changes, so
// re-scanning it would recompute identical numbers).
type boundInput struct {
	rel   *engine.Relation
	done  time.Duration
	round int
	node  *plan.Node
	leaf  plan.BoundLeaf
}

// roundRun is one execution round of the adaptive loop: a plan (the
// original on round zero, a re-planned remainder afterwards), its
// per-round observation, the bound inputs its Bound leaves read, and
// the virtual-time floor no task of the round may start before (the
// re-plan splice point).
type roundRun struct {
	plan  *plan.Plan
	obs   *plan.Observation
	bound []boundInput
	floor time.Duration
	root  *execTask
	tasks []*execTask
	// idx is the round's position in the adaptive sequence; fault
	// decisions key on (round, node ID) so a re-planned round rolls
	// fresh fates for its tasks.
	idx int
	// pauseAt is the round's re-plan pause point: the minimum virtual
	// completion time over executed operators whose observed
	// cardinality missed its estimate beyond the re-plan bound
	// (math.MaxInt64 while no trigger fired). Tasks virtually starting
	// at or after it belong to the re-planned remainder. The minimum
	// over completed candidates is interleaving-independent — a task's
	// virtual times never depend on pool timing, and any candidate
	// observed late necessarily completes after the earliest one — so
	// the executed/remainder partition is deterministic.
	pauseAt atomic.Int64
}

// pause folds a trigger's completion time into the round's pause point.
func (rr *roundRun) pause(done time.Duration) {
	for {
		cur := rr.pauseAt.Load()
		if int64(done) >= cur || rr.pauseAt.CompareAndSwap(cur, int64(done)) {
			return
		}
	}
}

// ReplanEvent records one adaptive re-planning decision for EXPLAIN
// and /stats: which node's actual blew past its estimate, by how much,
// and what the re-planner did about it.
type ReplanEvent struct {
	// Round is the execution round the trigger fired in (1-based: the
	// first re-plan ends round 1).
	Round int
	// Trigger describes the mis-estimated executed node.
	Trigger string
	// Est and Actual are the trigger node's estimated and observed
	// cardinalities; Ratio is the error factor between them.
	Est    float64
	Actual int64
	Ratio  float64
	// Adopted reports whether the corrected remainder replaced the
	// static one (a re-plan is adopted only when its priced saving
	// exceeds the re-planning charge).
	Adopted bool
	// OldCrit and NewCrit are the priced critical paths of the static
	// and chosen remainders.
	OldCrit, NewCrit time.Duration
	// OldRemainder and NewRemainder render the two remainder plans.
	OldRemainder, NewRemainder string
}

// scheduler executes one physical plan as a task DAG on a bounded
// worker pool, with adaptive mid-query re-planning layered on top.
// Independent subtrees run concurrently, both for real and on the
// virtual clock, exactly as before; additionally, every join checks
// its inputs' observed cardinalities against their estimates before it
// runs. A join whose input missed by more than the re-plan bound does
// not run — it blocks, its ancestors resolve as skipped, and when the
// round quiesces the unexecuted remainder is re-planned over the
// materialized intermediates (plan.Replan) and executed as the next
// round. Because the block decision depends only on deterministic
// per-node actuals — never on pool interleaving — the partition into
// executed and re-planned work, and therefore the final plan and its
// simulated time, is identical across runs and across concurrency
// levels.
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
	// r is the query's resolved options: the re-plan bound (0 disables),
	// the pool width and the broadcast cap. dist, when set, is the shard
	// session scan and exchange kernels are delegated to (fault
	// injection and re-planning are off then, so only the fault-free
	// run() path ever sees it).
	r    resolved
	dist DistSession
	ctx  context.Context
	// planning is the per-query planning charge: every leaf task starts
	// after it, and an adopted re-plan pays it again.
	planning time.Duration

	// Adaptive re-planning inputs: the filter/projection description of
	// the query, and the pricing the re-planner shares with the static
	// planner.
	filterSpecs []plan.FilterSpec
	projection  []string
	distinct    bool
	costs       plan.Costs

	rounds []*roundRun
	events []ReplanEvent

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

// execute runs the adaptive loop — run a round to quiescence, re-plan
// the remainder if a trigger fired, splice, repeat — and returns the
// final root task. The loop terminates because every round keeps at
// least the trigger operator itself (its virtual start precedes the
// pause point by construction), so the unexecuted operator count
// strictly decreases.
func (sc *scheduler) execute(pl *plan.Plan) (*execTask, error) {
	round := &roundRun{plan: pl, obs: plan.NewObservation(pl)}
	round.pauseAt.Store(math.MaxInt64)
	if sc.r.faults != nil {
		round.obs.EnableAttempts()
	}
	sc.rounds = append(sc.rounds, round)
	for {
		if err := sc.runRound(round); err != nil {
			return nil, err
		}
		if round.pauseAt.Load() == math.MaxInt64 {
			if sc.r.faults != nil {
				// The root's own delivery to the driver is an exchange too:
				// verify it and recompute from lineage on corruption, so the
				// epilogue always reads a clean payload.
				extra, err := sc.verifyInput(round.root)
				if err != nil {
					return nil, err
				}
				round.root.done += extra
			}
			return round.root, nil
		}
		next, err := sc.replan(round)
		if err != nil {
			return nil, err
		}
		next.idx = round.idx + 1
		if sc.r.faults != nil {
			next.obs.EnableAttempts()
		}
		sc.rounds = append(sc.rounds, next)
		round = next
	}
}

// runRound executes one round's DAG until quiescence: every task is
// executed, blocked (virtually starting at or after a known pause
// point), or skipped (downstream of a blocked task). After quiescence
// tasks that ran before the final pause point was known but virtually
// start at or after it are discarded, so the executed/remainder
// partition depends only on virtual times and recorded actuals — never
// on pool interleaving.
func (sc *scheduler) runRound(rr *roundRun) error {
	rootTask, tasks := buildTasks(rr.plan.Root)
	rr.root, rr.tasks = rootTask, tasks
	sc.totalTasks.Add(int64(len(tasks)))

	par := min(sc.r.par, len(tasks))

	// The ready queue is buffered to the task count so resolutions can
	// enqueue parents without blocking.
	ready := make(chan *execTask, len(tasks))
	quiesced := make(chan struct{})
	remaining := int32(len(tasks))

	// resolve retires a task (executed, blocked or skipped exactly
	// once), taints the parent when the task did not execute, and
	// dispatches the parent once its last dependency resolves.
	var dispatch func(t *execTask)
	resolve := func(t *execTask) {
		if !t.executed && t.parent != nil {
			t.parent.tainted.Store(true)
		}
		if p := t.parent; p != nil && atomic.AddInt32(&p.pending, -1) == 0 {
			dispatch(p)
		}
		if atomic.AddInt32(&remaining, -1) == 0 {
			close(quiesced)
		}
	}
	dispatch = func(t *execTask) {
		if t.tainted.Load() {
			resolve(t) // skipped: an input subtree is blocked
			return
		}
		t.start = sc.taskStart(rr, t)
		// The pause gate: a task starting at or after a known trigger's
		// completion belongs to the re-planned remainder. A trigger
		// discovered after this check retroactively discards the task
		// instead — same partition, some wasted (real) work.
		if sc.r.replan > 0 && !sc.failed.Load() && int64(t.start) >= rr.pauseAt.Load() {
			t.blocked = true
			resolve(t)
			return
		}
		ready <- t
	}

	// Seed the leaves before any worker starts: a leaf dispatch only
	// enqueues (leaves have no inputs to taint or pause on), and doing
	// it first keeps the initial pending reads free of concurrent
	// resolutions.
	for _, t := range tasks {
		if t.pending == 0 {
			dispatch(t)
		}
	}
	for i := 0; i < par; i++ {
		go func() {
			for {
				select {
				case t := <-ready:
					sc.run(rr, t)
					t.executed = true
					resolve(t)
				case <-quiesced:
					return
				}
			}
		}()
	}
	<-quiesced

	if sc.err == nil && sc.r.replan > 0 {
		if pauseAt := rr.pauseAt.Load(); pauseAt != math.MaxInt64 {
			// Retroactively discard work the gate could not catch: tasks
			// that ran but virtually start at or after the pause point.
			// Anything consuming a discarded result starts even later,
			// so the discarded set is closed downstream.
			for _, t := range rr.tasks {
				if t.executed && int64(t.start) >= pauseAt {
					t.discarded = true
					t.stages = nil
				}
			}
		} else {
			// No trigger fired: the retained intermediates (kept alive
			// in case they became bound leaves) are garbage now — only
			// the root's relation feeds the epilogue.
			for _, t := range rr.tasks {
				if t != rr.root {
					t.rel = nil
				}
			}
		}
	}
	return sc.err
}

// taskStart computes a task's virtual start: the round floor and query
// start cost, then its dependencies' completions. Bound leaves start
// at zero — their work predates the round and they are never paused.
func (sc *scheduler) taskStart(rr *roundRun, t *execTask) time.Duration {
	if t.node.Op == plan.OpBound {
		return 0
	}
	start := sc.planning
	if rr.floor > start {
		start = rr.floor
	}
	for _, d := range t.deps {
		if d.done > start {
			start = d.done
		}
	}
	return start
}

// obsErrRatio is a node's estimation-error factor under the round's
// observation: max(est,1)/max(actual,1) or its inverse, whichever
// exceeds 1; nodes without a recorded actual report 1.
func obsErrRatio(o *plan.Observation, n *plan.Node) float64 {
	act := o.Actual(n)
	if act < 0 {
		return 1
	}
	est := math.Max(n.Est, 1)
	a := math.Max(float64(act), 1)
	if est > a {
		return est / a
	}
	return a / est
}

// newExec returns an engine context for one task (or the epilogue) on a
// clock of its own. The per-query planning cost is charged once at the
// scheduler level, not per task.
func (sc *scheduler) newExec() *engine.Exec {
	e := engine.NewExec(sc.store.cluster, cluster.NewClock())
	e.StartCost = 0
	e.BroadcastThreshold = sc.r.broadcast
	e.Dist = sc.dist
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
func (sc *scheduler) run(rr *roundRun, t *execTask) {
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
	if t.node.Op == plan.OpBound {
		// The relation was materialized by an earlier round; adopt it
		// and its completion time without charging anything. Under fault
		// injection the payload was verified (and any corruption
		// recovered) when the round boundary bound it, so its delivered
		// checksum is clean by construction.
		b := rr.bound[t.node.Leaf]
		t.rel = b.rel
		t.done = b.done
		rr.bound[t.node.Leaf].rel = nil
		if sc.r.faults != nil {
			t.xsum, t.hasXsum = t.rel.Checksum(), true
		}
		rr.obs.Record(t.node, int64(t.rel.NumRows()))
		sc.completed.Add(1)
		return
	}
	if sc.r.faults != nil {
		sc.runResilient(rr, t)
		return
	}
	e := sc.newExec()
	rel, err := sc.execOp(e, t, taskInputs(t))
	if err != nil {
		// A dead shard becomes the typed abort; any other error passes
		// through unchanged.
		sc.fail(wrapShardErr(err, t, int(sc.completed.Load()), int(sc.totalTasks.Load())))
		return
	}
	t.rel = rel
	rr.obs.Record(t.node, int64(rel.NumRows()))
	t.stages = e.Clock.Stages()
	sc.releaseInputs(t)
	elapsed := e.Clock.Elapsed()
	if elapsed <= 0 {
		// Zero-cost operators (empty-table shortcuts) still complete
		// strictly after they start, so the pause point — the trigger's
		// completion — always keeps the trigger itself executed.
		elapsed = 1
	}
	t.done = t.start + elapsed
	sc.completed.Add(1)
	sc.checkTrigger(rr, t)
}

// releaseInputs eagerly frees a completed task's consumed inputs in
// non-adaptive runs, so large intermediates do not outlive the join
// that read them. Adaptive runs keep them until the round quiesces — a
// later trigger may discard this task and hand its inputs to the
// re-planner as bound leaves — and release everything unneeded at the
// round boundary. Under fault injection a freed input can still be
// recovered: lineage recomputation re-executes its subtree on demand.
func (sc *scheduler) releaseInputs(t *execTask) {
	if sc.r.replan > 0 {
		return
	}
	for _, d := range t.deps {
		d.rel = nil
	}
}

// checkTrigger fires the adaptive pause when a scan or join's observed
// cardinality missed its estimate beyond the bound: the frontier pauses
// at the trigger's virtual completion and everything virtually starting
// later is re-planned. (Projection and DISTINCT estimates are
// derivative; their errors always trace back to a scan or join below.)
func (sc *scheduler) checkTrigger(rr *roundRun, t *execTask) {
	if sc.r.replan > 0 && (t.node.Op == plan.OpJoin || t.node.Op == plan.OpScan) &&
		obsErrRatio(rr.obs, t.node) > sc.r.replan {
		rr.pause(t.done)
	}
}

// taskKey identifies one task for the fault plan: deterministic in the
// round index and the node's stable plan ID, independent of pool
// interleaving. The scheduler XORs in its per-query fault salt so two
// queries whose plans happen to share small node IDs still draw
// independent fault schedules.
func taskKey(roundIdx, nodeID int) uint64 {
	return uint64(roundIdx)<<32 | uint64(uint32(nodeID))
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
// Every fault decision is a pure function of (seed, round, node ID,
// attempt, virtual start), so the recovery schedule — and therefore
// SimTime — is deterministic across runs and concurrency levels.
func (sc *scheduler) runResilient(rr *roundRun, t *execTask) {
	f := sc.r.faults
	key := taskKey(rr.idx, t.node.ID) ^ sc.r.faultSalt

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
		e := sc.newExec()
		clk = e.Clock
		var err error
		if rel, err = sc.execOp(e, t, taskInputs(t)); err != nil {
			return 0, err
		}
		elapsed := clk.Elapsed()
		if elapsed <= 0 {
			elapsed = 1
		}
		return elapsed, nil
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

	rr.obs.Record(t.node, int64(t.rel.NumRows()))
	rr.obs.RecordAttempts(t.node, len(trace))
	sc.releaseInputs(t)
	sc.completed.Add(1)
	sc.checkTrigger(rr, t)
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
	e := sc.newExec()
	rel, err := sc.recompute(e, d, &rec)
	if err == nil {
		d.rel = rel
		d.xsum = rel.Checksum()
		rec.RecoveryTime = e.Clock.Elapsed()
		if rec.RecoveryTime <= 0 {
			rec.RecoveryTime = 1
		}
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
	if t.node.Op == plan.OpBound {
		// Bound relations are retained for their whole round, so reaching
		// one without a relation means the lineage chain is broken.
		if t.rel == nil {
			return nil, fmt.Errorf("core: bound leaf %s lost its relation during lineage recompute", nodeDesc(t.node))
		}
		return t.rel, nil
	}
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

// replan converts a quiesced round with blocked joins into the next
// round: the executed fragments feeding the unexecuted remainder
// become bound leaves (exact cardinality, distinct counts and key skew
// measured from the materialized rows), plan.Replan prices the
// corrected remainder against finishing the static one, and the chosen
// remainder — spliced at the trigger's virtual completion time plus
// the re-planning charge when adopted, timing-neutral when not — runs
// as the next round's DAG.
func (sc *scheduler) replan(rr *roundRun) (*roundRun, error) {
	pauseAt := time.Duration(rr.pauseAt.Load())
	unexec := make(map[int]bool)
	boundIdx := make(map[int]int)
	var bounds []plan.BoundLeaf
	var inputs []boundInput
	var trigger *execTask

	kept := func(t *execTask) bool { return t.executed && !t.discarded }
	curRound := len(sc.rounds) - 1
	var walk func(t *execTask) error
	walk = func(t *execTask) error {
		if kept(t) {
			// A materialized fragment the remainder consumes. Under fault
			// injection its delivery is verified here — crossing the round
			// boundary is the exchange — so every bound relation the next
			// round adopts is clean, with the recovery priced into the
			// fragment's completion time.
			if sc.r.faults != nil {
				extra, err := sc.verifyInput(t)
				if err != nil {
					return err
				}
				t.done += extra
			}
			idx := len(bounds)
			boundIdx[t.node.ID] = idx
			leaf := sc.boundLeaf(rr, t, idx)
			bounds = append(bounds, leaf)
			inputs = append(inputs, boundInput{rel: t.rel, done: t.done, round: curRound, node: t.node, leaf: leaf})
			t.rel = nil
			return nil
		}
		unexec[t.node.ID] = true
		for _, d := range t.deps {
			if err := walk(d); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(rr.root); err != nil {
		return nil, err
	}
	// The frontier's relations now live in the bound inputs; every
	// other retained relation (discarded work, fragments interior to a
	// kept subtree) is garbage.
	for _, t := range rr.tasks {
		t.rel = nil
	}

	// The trigger for the event record: the kept operator that set the
	// pause point (first in preorder on a tie).
	for _, t := range rr.tasks {
		if kept(t) && t.done == pauseAt && obsErrRatio(rr.obs, t.node) > sc.r.replan {
			if trigger == nil || t.node.ID < trigger.node.ID {
				trigger = t
			}
		}
	}
	if trigger == nil {
		return nil, fmt.Errorf("core: re-plan requested without a trigger node")
	}

	allowBushy := rr.plan.Mode == plan.ModeCost
	res := plan.Replan(rr.plan, plan.Remainder{Unexec: unexec, Bound: boundIdx}, bounds,
		sc.filterSpecs, sc.projection, sc.distinct, allowBushy, sc.costs, sc.planning)

	sc.events = append(sc.events, ReplanEvent{
		Round:        len(sc.rounds),
		Trigger:      nodeDesc(trigger.node),
		Est:          trigger.node.Est,
		Actual:       rr.obs.Actual(trigger.node),
		Ratio:        obsErrRatio(rr.obs, trigger.node),
		Adopted:      res.Adopted,
		OldCrit:      res.OldCrit,
		NewCrit:      res.NewCrit,
		OldRemainder: res.Static.String(),
		NewRemainder: res.Plan.String(),
	})

	next := &roundRun{plan: res.Plan, obs: plan.NewObservation(res.Plan), bound: inputs}
	next.pauseAt.Store(math.MaxInt64)
	if res.Adopted {
		// The spliced remainder cannot start before the trigger was
		// observed and the re-planning charge paid. A rejected re-plan
		// keeps the static remainder and costs nothing, so its timing
		// is identical to never having paused.
		next.floor = pauseAt + sc.planning
	}
	return next, nil
}

// boundLeaf measures one materialized fragment for the re-planner:
// exact cardinality, per-variable distinct counts and hottest-value
// fractions, and the layout the relation carries. A fragment that is
// already a Bound leaf (re-bound across rounds) reuses the statistics
// measured when it was first bound instead of re-scanning the
// unchanged relation.
func (sc *scheduler) boundLeaf(rr *roundRun, t *execTask, source int) plan.BoundLeaf {
	if t.node.Op == plan.OpBound {
		leaf := rr.bound[t.node.Leaf].leaf
		leaf.Source = source
		return leaf
	}
	dist, hot := relColumnStats(t.rel)
	return plan.BoundLeaf{
		Label:    nodeDesc(t.node),
		Vars:     append([]string(nil), t.node.Vars...),
		Rows:     int64(t.rel.NumRows()),
		Dist:     dist,
		Hot:      hot,
		PartCols: t.rel.PartitionCols(),
		Pats:     patsUnder(rr, t.node),
		Done:     t.done,
		Source:   source,
	}
}

// patsUnder collects the triple patterns of every scan the fragment
// rooted at n materialized (recursing through Bound leaves into the
// rounds that produced them), so the re-planner's sketch lookups can
// still resolve predicate pairs for joins of the intermediate.
func patsUnder(rr *roundRun, n *plan.Node) []plan.PatRef {
	var out []plan.PatRef
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		switch n.Op {
		case plan.OpScan:
			out = append(out, rr.plan.Leaves[n.Leaf].Pats...)
		case plan.OpBound:
			out = append(out, rr.bound[n.Leaf].leaf.Pats...)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// relColumnStats computes exact per-column distinct counts and
// hottest-value fractions of a materialized relation — the rebased
// statistics the re-planner estimates the remainder with.
func relColumnStats(rel *engine.Relation) (dist, hot map[string]float64) {
	schema := rel.Schema()
	total := rel.NumRows()
	dist = make(map[string]float64, len(schema))
	hot = make(map[string]float64, len(schema))
	for ci, col := range schema {
		counts := make(map[rdf.ID]int64, 64)
		var maxCount int64
		for p := 0; p < rel.Partitions(); p++ {
			for _, r := range rel.Part(p) {
				c := counts[r[ci]] + 1
				counts[r[ci]] = c
				if c > maxCount {
					maxCount = c
				}
			}
		}
		d := float64(len(counts))
		if d < 1 {
			d = 1
		}
		dist[col] = d
		if total > 0 {
			hot[col] = float64(maxCount) / float64(total)
		}
	}
	return dist, hot
}

// nodeDesc renders a node for re-plan events and bound-leaf labels.
func nodeDesc(n *plan.Node) string {
	if n.Label == "" {
		return strings.ToLower(n.Op.String())
	}
	if n.Op == plan.OpBound {
		return n.Label
	}
	return strings.ToLower(n.Op.String()) + " " + n.Label
}

// executedPlan assembles the plan the query actually executed: the
// final round's plan with every Bound leaf replaced by the executed
// fragment it stands for (recursively, across rounds), actuals stamped
// from the per-round observations. It is both the Result's EXPLAIN
// view and — after Rebase — the corrected entry the feedback plan
// cache stores.
func (sc *scheduler) executedPlan() *plan.Plan {
	var clone func(ri int, n *plan.Node) *plan.Node
	clone = func(ri int, n *plan.Node) *plan.Node {
		if n.Op == plan.OpBound {
			b := sc.rounds[ri].bound[n.Leaf]
			return clone(b.round, b.node)
		}
		c := *n
		c.Actual = sc.rounds[ri].obs.Actual(n)
		c.Attempts = sc.rounds[ri].obs.AttemptsOf(n)
		if len(n.Children) > 0 {
			c.Children = make([]*plan.Node, len(n.Children))
			for i, ch := range n.Children {
				c.Children[i] = clone(ri, ch)
			}
		}
		return &c
	}
	last := len(sc.rounds) - 1
	return sc.rounds[last].plan.WithRoot(clone(last, sc.rounds[last].plan.Root))
}

// appendTrace merges every round's executed stage records into the
// result clock in deterministic plan preorder (independent of the real
// interleaving the pool happened to run), with the re-planning charge
// of each adopted splice recorded between rounds.
func (sc *scheduler) appendTrace(clock *cluster.Clock) {
	for i, rr := range sc.rounds {
		if i > 0 && sc.events[i-1].Adopted {
			clock.Charge("adaptive re-plan", sc.planning)
		}
		var walk func(t *execTask)
		walk = func(t *execTask) {
			for _, d := range t.deps {
				walk(d)
			}
			clock.Absorb(t.stages)
		}
		walk(rr.root)
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
		return engine.NewRelation(ns.schema(), make([][]engine.Row, ns.parts), ""), nil
	case scanTriples:
		rel, err := engine.Partition(ns.storedSchema(), s.triplesMatches(*ns.tp, ns.rowPred), ns.partCol, ns.parts)
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
	var parts [][]engine.Row
	var scan func(p int) ([]engine.Row, int64)
	ps := ns.partScan // by value: the tasks outlive no stack frame of ours
	switch dist := sc.dist; {
	case dist != nil:
		// Shards hold base tables; the resolver offers a sharded query's
		// planner no reduction, so the coordinator never charges one.
		if n.ExtVP != nil {
			return nil, fmt.Errorf("core: sharded plan scans a reduction at %s", cn.Label())
		}
		reply, processed, err := dist.ScanNode(cn, n.Filters, cn.Label(), ns.diskBytes)
		if err != nil {
			return nil, err
		}
		if len(reply) != ns.parts || len(processed) != ns.parts {
			return nil, fmt.Errorf("core: dist scan %s returned %d/%d partitions, table has %d", cn.Label(), len(reply), len(processed), ns.parts)
		}
		parts = reply
		scan = func(p int) ([]engine.Row, int64) {
			return reply[p], ps.stageRows(p, processed[p], len(reply[p]))
		}
	case ns.pt == nil && ns.pred == nil:
		parts = ns.table.Rel.Parts()
	default:
		parts = make([][]engine.Row, ns.parts)
		scan = func(p int) ([]engine.Row, int64) {
			var scratch ptScan
			rows, keys := ps.scan(&scratch, p, nil)
			return rows, ps.stageRows(p, keys, len(rows))
		}
	}
	rel, err := e.ScanParts(name, ns.storedSchema(), ns.partCol, parts, ns.diskBytes, scan)
	switch {
	case err != nil:
		return nil, err
	case ns.kind == scanVPExist:
		parts := make([][]engine.Row, 1)
		if rel.NumRows() > 0 {
			parts[0] = []engine.Row{{}}
		}
		return engine.NewRelation(engine.Schema{}, parts, ""), nil
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
