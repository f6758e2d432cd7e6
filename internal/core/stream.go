package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
)

// Morsel-driven streaming execution. The materialized scheduler runs a
// plan operator at a time, each one materializing its full output
// relation before the next starts; this file rebuilds the same plan as
// pull-based pipelines over batches of at most DefaultChunkSize rows. A
// pipeline fuses one source scan with every filter, hash-join probe,
// projection and distinct step up to the next pipeline breaker (a
// hash-join build side, a union, or the driver), so an intermediate
// row lives exactly as long as the batch carrying it. A batch is an
// engine.Block, like a materialized partition: a stored VP partition is
// cut into batches by slicing its block, uncopied; a scan that filters,
// shapes or flattens rows writes them into its worker's reused arena; a
// probe or projection emits a new block. A breaker keeps the blocks it
// is handed — copying only a batch that lives in a worker's arena — and
// the hash build or the driver reads those same blocks, indexed or
// decoded where they lie. What drops the memory high-water mark from
// O(intermediate relations) to O(build sides + batches in flight) is
// that nothing but a breaker retains a row.
//
// Pipelines run one after another, each on every core it can use: a VP
// or PT source's partitions are the tasks of one cluster.Run on
// min(GOMAXPROCS, partitions) workers, the calling goroutine first,
// whatever the source's size — the morsel-driven dispatch of Leis et al.
// (SIGMOD 2014), with a partition as the unit, as a materialized stage
// runs its tasks. A worker keeps everything it writes to itself, in its
// Run slot — its scan arena, its part of a top-K or aggregate barrier —
// so the only lock a batch can meet is the distinct step's shared set.
//
// Execution and pricing are decoupled: the real row work runs first
// (producing exactly the materialized path's row multisets, since the
// probe/emission code paths are shared with the engine's join), then a
// virtual morsel scheduler (cluster.SimulateMorsels) prices the
// per-pipeline work split into morsels and list-scheduled onto the
// simulated workers. SimTime therefore reflects worker contention
// across concurrent pipelines, first-row latency falls out of the
// per-morsel result deliveries, and fault injection retries single
// morsels instead of whole operators — all of it deterministic,
// because every priced quantity is a multiset invariant of the query
// (row counts per operator) rather than an artifact of goroutine
// interleaving.

// DefaultChunkSize is the number of rows per streaming batch (and per
// priced morsel). Small enough that
// the in-flight budget (workers x chunk x width) stays a rounding
// error next to a C-family build side; large enough that the per-batch
// costs (one step dispatch, one counter update and one output arena
// per probe or projection) amortize over the rows.
const DefaultChunkSize = 2048

// memBytesPerValue is the in-memory footprint of one bound value
// (rdf.ID is a uint32). Distinct from engine.BytesPerValue, the
// serialized wire/disk footprint the cost model prices.
const memBytesPerValue = 4

// stepKind enumerates the fused per-chunk operators.
type stepKind uint8

const (
	stepFilter stepKind = iota
	stepProbe
	stepProbeOuter
	stepProject
	stepDistinct
	stepTopK
	stepAggregate
)

// filterCheck is one residual FILTER predicate bound to its column,
// with the rows that entered it counted for stage-pricing parity (the
// materialized path charges each filter as its own stage over the
// previous filter's output).
type filterCheck struct {
	col  int
	pred func(rdf.ID) bool
	in   atomic.Int64
}

// streamStep is one fused operator of a pipeline. Steps are shared by
// every scan worker of the pipeline: counters are atomic, the distinct
// set is lock-guarded, and a barrier step keeps its state per worker
// (barrierPart), so no batch ends waiting for another worker's.
type streamStep struct {
	kind stepKind
	node *plan.Node
	// width is the step's output row width.
	width int
	// checks are the filter step's predicates, applied in plan order.
	checks []*filterCheck
	// jr is the probe step's join.
	jr *streamJoinRef
	// proj maps output columns into the input row.
	proj []int
	// dedup is the distinct step's row set, one for all workers: the rows
	// it hands on must be first occurrences over the whole input. mu
	// serializes inserts.
	mu    sync.Mutex
	dedup *engine.RowDeduper
	// less orders a top-K step's rows and keep is how many leading rows
	// its window needs (< 0: all of them, ORDER BY without LIMIT).
	less func(a, b engine.Row) bool
	keep int
	// groupIdx and countIdx are an aggregate step's group and counted
	// input columns.
	groupIdx, countIdx []int
	// out counts the step's emitted rows — the plan node's observed
	// cardinality.
	out atomic.Int64
}

// barrierPart is one worker's share of the plan's barrier step; finish
// merges the workers' parts once every pipeline has drained.
//
// Top-K: incoming rows are copied into buf, trimmed back to keep rows
// whenever the buffer doubles — the early termination that bounds an
// ORDER BY + LIMIT query's footprint to O(offset+limit) per worker
// instead of O(result). A trim selects the first keep rows into spare
// (engine.SortInto) and swaps the two, and worst, carved from the
// query's region, remembers the last of them: a later row not less than
// it cannot change the result (less is topkLess, under which only
// identical rows tie), and is dropped before it is copied. Every winner
// of the whole input is a winner of the part it reached, so the merged
// parts hold them all. arrived counts every row handed to the part,
// dropped or not, for the peak-memory sweep.
//
// Aggregate: the worker's group table.
type barrierPart struct {
	buf, spare engine.RowArena
	worst      engine.Row
	arrived    int64
	groups     engine.GroupTable
}

// initPart readies b for the barrier step st, in region.
func (st *streamStep) initPart(b *barrierPart, region *engine.Region) {
	switch st.kind {
	case stepTopK:
		b.buf, b.spare = region.Arena(st.width, 0), region.Arena(st.width, 0)
	case stepAggregate:
		b.groups.Reset(region, st.groupIdx, st.countIdx)
	}
}

// apply runs one batch through the step on worker w. The batch is never
// written; it may live in w's arena, valid only until w scans on. Filter
// passes a batch it keeps whole and copies the rows it keeps otherwise;
// distinct hands on the rows it added to its set, a slice of the set's
// own storage; probe and project emit a block sized to the batch's
// output; a barrier step keeps the rows in w's part and hands on none. A
// filter's or projection's new block is carved from region, the query's.
func (st *streamStep) apply(rows engine.Block, w *streamWorker, region *engine.Region) engine.Block {
	switch st.kind {
	case stepFilter:
		for _, c := range st.checks {
			if rows.Len() == 0 {
				break
			}
			c.in.Add(int64(rows.Len()))
			arena := region.Arena(0, 0)
			rows = rows.Select(func(r engine.Row) bool { return c.pred(r[c.col]) }, &arena)
		}
	case stepProbe, stepProbeOuter:
		rows = st.jr.hash.ProbeBatch(rows, st.kind == stepProbeOuter)
	case stepProject:
		arena := region.Arena(st.width, rows.Len())
		for i := 0; i < rows.Len(); i++ {
			arena.AppendProjected(rows.Row(i), st.proj)
		}
		rows = arena.Block()
	case stepDistinct:
		st.mu.Lock()
		before := st.dedup.Len()
		for i := 0; i < rows.Len(); i++ {
			st.dedup.Insert(rows.Row(i))
		}
		rows = st.dedup.Rows().Slice(before, st.dedup.Len())
		st.mu.Unlock()
	case stepTopK:
		b := &w.part
		b.buf.Grow(rows.Len())
		for i := 0; i < rows.Len(); i++ {
			if r := rows.Row(i); b.worst == nil || st.less(r, b.worst) {
				b.buf.AppendCopy(r)
			}
		}
		b.arrived += int64(rows.Len())
		// keep < buf.Len() is tested first so that 2*keep cannot
		// overflow: LIMIT takes any non-negative int.
		if st.keep >= 0 && st.keep < b.buf.Len() && b.buf.Len() > 2*st.keep+64 {
			kept := engine.SortInto(&b.spare, b.buf.Block(), st.less, st.keep)
			b.buf, b.spare = b.spare, b.buf
			if k := kept.Len(); k > 0 && k == st.keep {
				if b.worst == nil {
					b.worst = engine.Row(region.IDs(kept.Width()))
				}
				copy(b.worst, kept.Row(k-1))
			}
		}
		rows = engine.Block{}
	case stepAggregate:
		for i := 0; i < rows.Len(); i++ {
			w.part.groups.Add(rows.Row(i))
		}
		rows = engine.Block{}
	}
	st.out.Add(int64(rows.Len()))
	return rows
}

// finish merges the workers' parts of the barrier step st into the
// first and returns its rows: a top-K step's first keep rows in order
// (the window still to be cut), an aggregate's group rows sorted by raw
// ID. Neither depends on which worker held which rows — topkLess ties
// identical rows only, and group keys are unique — so the result is the
// one worker's result.
func (st *streamStep) finish(workers []streamWorker, region *engine.Region) engine.Block {
	b := &workers[0].part
	for i := 1; i < len(workers); i++ {
		o := &workers[i].part
		switch st.kind {
		case stepTopK:
			b.arrived += o.arrived
			rows := o.buf.Block()
			b.buf.Grow(rows.Len())
			for j := 0; j < rows.Len(); j++ {
				b.buf.AppendCopy(rows.Row(j))
			}
		case stepAggregate:
			b.groups.Merge(&o.groups)
		}
	}
	if st.kind == stepTopK {
		sorted := region.Arena(0, 0)
		return engine.SortInto(&sorted, b.buf.Block(), st.less, st.keep)
	}
	// Group cells then count cells, sorted by raw ID order — exactly the
	// materialized Aggregate's output.
	return b.groups.Rows()
}

// streamJoinRef is one hash join shared between its build pipeline
// (which fills hash) and the probe step of the pipeline that continues
// through the join.
type streamJoinRef struct {
	node        *plan.Node
	left, right *plan.Node
	join        *engine.StreamJoin
	// buildIsLeft records which plan child buffers; chosen from the
	// planner's estimates, before any row is produced.
	buildIsLeft bool
	buildPipe   int
	buildWidth  int
	// hash and buildRows are set when the build pipeline completes.
	hash      *engine.StreamHash
	buildRows int64
}

// streamSource is a pipeline's scan: the node's resolved access path —
// the same NodeScan the materialized operator and a shard server read,
// iterated here in batches — plus the run-time state of this execution.
// A union source has no node of its own (the zero NodeScan): it replays
// the rows its branch pipelines' sinks kept, in branch order — the branch
// boundary is a pipeline breaker, like a hash-join build.
type streamSource struct {
	NodeScan
	node      *plan.Node
	unionFrom []*streamPipe

	// out counts emitted source rows (the scan node's observed
	// cardinality); scanned counts input units examined (PT keys),
	// where that differs from a precomputed table size.
	out     atomic.Int64
	scanned atomic.Int64
}

// streamPipe is one pipeline: a source, the fused steps, and a sink —
// either a hash-join build (sink != nil) or the driver (root).
type streamPipe struct {
	id    int
	name  string
	deps  []int
	src   *streamSource
	steps []*streamStep
	sink  *streamJoinRef
	// width is the sink row width.
	width int
	// region is the query's: scan workers' arenas and the sink's copies
	// are carved from it.
	region *engine.Region
	// A VP or PT source's partitions are the tasks of one cluster.Run,
	// whose state is tasks; ctx, chunk, workers and scans are what a
	// worker needs to scan one, and stopped records a cancellation. They
	// live in the pipe, so fanning a scan out allocates nothing.
	tasks   cluster.Tasks
	ctx     context.Context
	chunk   int
	workers []streamWorker
	scans   *ptScratch
	stopped atomic.Bool

	// out collects the batches that reached the sink, per source
	// partition (each partition is processed by one worker, so the
	// slots need no locking). A batch is kept as handed over unless it
	// can still be one in a scan worker's reused arena (cloneAtSink).
	out         [][]engine.Block
	cloneAtSink bool
	outRows     atomic.Int64
}

// streamWorker is one of a query's scan workers: the arena its scan
// batches are built in, reused by every pipeline of the query, and its
// part of the barrier step. Slot 0 is the calling goroutine's; a helper
// takes a slot only after it has claimed a partition.
type streamWorker struct {
	arena engine.RowArena
	part  barrierPart
}

// streamPlan is a compiled streaming query: pipelines in dependency
// order (every build pipeline precedes the pipeline probing it).
type streamPlan struct {
	// region is the query's memory, which every pipeline, step and hash
	// table of the plan carves from.
	region *engine.Region
	pipes  []*streamPipe
	joins  []*streamJoinRef
	// pipeOf maps plan node ID -> the pipeline carrying its work;
	// stepOf maps node ID -> its fused step (scans map to sources).
	pipeOf map[int]int
	stepOf map[int]*streamStep
	root   *streamPipe
	// maxWidth is the widest row any pipeline stage carries — the
	// in-flight memory term.
	maxWidth int
	// barrier is the root pipeline's fused blocking step — a bounded
	// top-K buffer or the aggregate group table — when the plan ends in
	// one; the driver finalizes it after every pipeline drains, merging
	// the workers' parts into workers[0].part.
	barrier     *streamStep
	barrierPipe int
	// workers are the scan workers, min(GOMAXPROCS, partitions of the
	// widest source) of them, shared by the pipelines, which run one at
	// a time.
	workers []streamWorker
	// tail holds the plan operators above a fused Aggregate (Project /
	// Distinct / TopK over the group rows), top-down; the driver
	// applies them in reverse after finalizing the aggregate. Group
	// rows number at most the distinct key count, so this is driver
	// epilogue work, not pipeline work.
	tail []*plan.Node
	// tailObs records the barrier's and tail operators' output
	// cardinalities for the observation.
	tailObs map[*plan.Node]int64
}

// streamCompiler lowers a physical plan into pipelines. Every plan the
// planner builds lowers; err reports one that does not — a recorded
// schema the engine would not reproduce — as the inconsistency it is,
// naming the node.
type streamCompiler struct {
	store   *Store
	nodes   []*Node
	filters []compiledFilter
	sp      *streamPlan
	err     error
}

// cannotLower records that n has no streaming form.
func (c *streamCompiler) cannotLower(n *plan.Node, why string) int {
	c.err = fmt.Errorf("core: streaming cannot lower %s: %s", nodeDesc(n), why)
	return 0
}

// compileStreamPlan lowers pl into a streaming plan that runs in region.
func (s *Store) compileStreamPlan(pl *plan.Plan, nodes []*Node, filters []compiledFilter, region *engine.Region) (*streamPlan, error) {
	c := &streamCompiler{
		store:   s,
		nodes:   nodes,
		filters: filters,
		sp:      &streamPlan{region: region, pipeOf: map[int]int{}, stepOf: map[int]*streamStep{}},
	}
	// Operators above an Aggregate run driver-side on the finalized
	// group rows; everything at or below it compiles into pipelines.
	tail, body := peelDriverTail(pl.Root)
	c.sp.tail = tail
	rootPipe := c.compile(body)
	if c.err != nil {
		return nil, c.err
	}
	c.sp.root = c.sp.pipes[rootPipe]
	return c.sp, nil
}

// peelDriverTail splits the plan at a tail Aggregate: the operators
// strictly above it (TopK / Distinct / Project over the group rows)
// return top-down as the driver tail, and the Aggregate itself becomes
// the pipeline body's root. Plans without an aggregate keep their full
// root (a tail TopK fuses into the root pipeline as a bounded buffer).
func peelDriverTail(root *plan.Node) (tail []*plan.Node, body *plan.Node) {
	body = root
	if !aggUnder(body) {
		return nil, root
	}
	for body.Op != plan.OpAggregate {
		tail = append(tail, body)
		body = body.Children[0]
	}
	return tail, body
}

// aggUnder reports an OpAggregate reachable from n through tail
// operators only.
func aggUnder(n *plan.Node) bool {
	for {
		switch n.Op {
		case plan.OpAggregate:
			return true
		case plan.OpProject, plan.OpDistinct, plan.OpTopK:
			n = n.Children[0]
		default:
			return false
		}
	}
}

// notchWidth tracks the widest row in flight.
func (c *streamCompiler) notchWidth(w int) {
	if w > c.sp.maxWidth {
		c.sp.maxWidth = w
	}
}

// pipe returns the pipeline by index.
func (c *streamCompiler) pipe(i int) *streamPipe { return c.sp.pipes[i] }

// compile lowers one plan node, returning the index of the pipeline
// that carries its output. Joins compile the build child first, so a
// pipeline's dependencies always have smaller indexes — the
// topological order both the real executor and the morsel simulator
// rely on.
func (c *streamCompiler) compile(n *plan.Node) int {
	if c.err != nil {
		return 0
	}
	switch n.Op {
	case plan.OpScan:
		src := c.buildSource(n)
		if src == nil {
			return 0
		}
		name := src.label
		if name == "" {
			name = c.nodes[n.Leaf].Label()
		}
		p := &streamPipe{id: len(c.sp.pipes), name: name, src: src, width: len(n.Vars), region: c.sp.region}
		c.sp.pipes = append(c.sp.pipes, p)
		c.sp.pipeOf[n.ID] = p.id
		c.notchWidth(p.width)
		return p.id

	case plan.OpFilter:
		pi := c.compile(n.Children[0])
		if c.err != nil {
			return 0
		}
		in := engine.Schema(n.Children[0].Vars)
		var checks []*filterCheck
		for _, f := range pickFilters(c.filters, n.Filters) {
			col := in.Index(f.v)
			if col < 0 {
				c.err = fmt.Errorf("core: residual filter variable ?%s not in schema %v", f.v, in)
				return 0
			}
			checks = append(checks, &filterCheck{col: col, pred: f.pred})
		}
		st := &streamStep{kind: stepFilter, node: n, width: len(n.Vars), checks: checks}
		c.pipe(pi).steps = append(c.pipe(pi).steps, st)
		c.sp.pipeOf[n.ID], c.sp.stepOf[n.ID] = pi, st
		return pi

	case plan.OpProject:
		pi := c.compile(n.Children[0])
		if c.err != nil {
			return 0
		}
		in := engine.Schema(n.Children[0].Vars)
		proj := make([]int, len(n.Cols))
		for i, col := range n.Cols {
			proj[i] = in.Index(col)
			if proj[i] < 0 {
				c.err = fmt.Errorf("core: projected column ?%s not in schema %v", col, in)
				return 0
			}
		}
		st := &streamStep{kind: stepProject, node: n, width: len(n.Cols), proj: proj}
		p := c.pipe(pi)
		p.steps = append(p.steps, st)
		p.width = len(n.Cols)
		c.sp.pipeOf[n.ID], c.sp.stepOf[n.ID] = pi, st
		c.notchWidth(p.width)
		return pi

	case plan.OpDistinct:
		pi := c.compile(n.Children[0])
		if c.err != nil {
			return 0
		}
		st := &streamStep{
			kind:  stepDistinct,
			node:  n,
			width: len(n.Vars),
			dedup: engine.NewRowDeduper(c.sp.region, len(n.Vars), 0),
		}
		c.pipe(pi).steps = append(c.pipe(pi).steps, st)
		c.sp.pipeOf[n.ID], c.sp.stepOf[n.ID] = pi, st
		return pi

	case plan.OpJoin:
		l, r := n.Children[0], n.Children[1]
		// The build side buffers; pick the smaller estimated side, as
		// the planner's pricing did. The probe chain fuses onward, so
		// the (estimated) bigger side never materializes.
		buildIsLeft := estBytes(l) < estBytes(r)
		buildNode, probeNode := r, l
		if buildIsLeft {
			buildNode, probeNode = l, r
		}
		bi := c.compile(buildNode)
		pi := c.compile(probeNode)
		if c.err != nil {
			return 0
		}
		jr := &streamJoinRef{
			node: n, left: l, right: r,
			buildIsLeft: buildIsLeft,
			buildPipe:   bi,
			buildWidth:  len(buildNode.Vars),
			join:        engine.NewStreamJoin(engine.Schema(l.Vars), engine.Schema(r.Vars), n.Keep),
		}
		if !schemaEq(jr.join.OutSchema(), n.Vars) {
			return c.cannotLower(n, fmt.Sprintf("the join emits %v, the plan recorded %v", jr.join.OutSchema(), n.Vars))
		}
		c.pipe(bi).sink = jr
		st := &streamStep{kind: stepProbe, node: n, width: len(n.Vars), jr: jr}
		p := c.pipe(pi)
		p.steps = append(p.steps, st)
		p.width = len(n.Vars)
		p.deps = append(p.deps, bi)
		c.sp.joins = append(c.sp.joins, jr)
		c.sp.pipeOf[n.ID], c.sp.stepOf[n.ID] = pi, st
		c.notchWidth(p.width)
		return pi

	case plan.OpLeftJoin:
		l, r := n.Children[0], n.Children[1]
		// The optional (right) side always builds: the outer probe must
		// see every left row to null-pad the unmatched ones.
		bi := c.compile(r)
		pi := c.compile(l)
		if c.err != nil {
			return 0
		}
		jr := &streamJoinRef{
			node: n, left: l, right: r,
			buildIsLeft: false,
			buildPipe:   bi,
			buildWidth:  len(r.Vars),
			join:        engine.NewStreamJoin(engine.Schema(l.Vars), engine.Schema(r.Vars), nil),
		}
		if len(jr.join.Shared()) == 0 || !schemaEq(jr.join.OutSchema(), n.Vars) {
			return c.cannotLower(n, fmt.Sprintf("the left join shares %v and emits %v, the plan recorded %v", jr.join.Shared(), jr.join.OutSchema(), n.Vars))
		}
		c.pipe(bi).sink = jr
		st := &streamStep{kind: stepProbeOuter, node: n, width: len(n.Vars), jr: jr}
		p := c.pipe(pi)
		p.steps = append(p.steps, st)
		p.width = len(n.Vars)
		p.deps = append(p.deps, bi)
		c.sp.joins = append(c.sp.joins, jr)
		c.sp.pipeOf[n.ID], c.sp.stepOf[n.ID] = pi, st
		c.notchWidth(p.width)
		return pi

	case plan.OpUnion:
		var deps []int
		var from []*streamPipe
		for _, ch := range n.Children {
			ci := c.compile(ch)
			if c.err != nil {
				return 0
			}
			if c.pipe(ci).width != len(n.Vars) {
				return c.cannotLower(n, fmt.Sprintf("a branch is %d columns wide, the plan recorded %v", c.pipe(ci).width, n.Vars))
			}
			deps = append(deps, ci)
			from = append(from, c.pipe(ci))
		}
		src := &streamSource{node: n, unionFrom: from}
		p := &streamPipe{id: len(c.sp.pipes), name: "union", src: src, width: len(n.Vars), deps: deps, region: c.sp.region}
		c.sp.pipes = append(c.sp.pipes, p)
		c.sp.pipeOf[n.ID] = p.id
		c.notchWidth(p.width)
		return p.id

	case plan.OpTopK:
		pi := c.compile(n.Children[0])
		if c.err != nil {
			return 0
		}
		st := &streamStep{kind: stepTopK, node: n, width: len(n.Vars), less: c.store.topkLess(n), keep: topKeep(n)}
		c.pipe(pi).steps = append(c.pipe(pi).steps, st)
		c.sp.pipeOf[n.ID] = pi
		c.sp.barrier, c.sp.barrierPipe = st, pi
		return pi

	case plan.OpAggregate:
		pi := c.compile(n.Children[0])
		if c.err != nil {
			return 0
		}
		in := engine.Schema(n.Children[0].Vars)
		groupIdx := make([]int, len(n.GroupCols))
		for i, g := range n.GroupCols {
			groupIdx[i] = in.Index(g)
			if groupIdx[i] < 0 {
				c.err = fmt.Errorf("core: group column ?%s not in schema %v", g, in)
				return 0
			}
		}
		countIdx := make([]int, len(n.CountVars))
		for i, v := range n.CountVars {
			countIdx[i] = -1
			if v == "" {
				continue
			}
			countIdx[i] = in.Index(v)
			if countIdx[i] < 0 {
				c.err = fmt.Errorf("core: counted column ?%s not in schema %v", v, in)
				return 0
			}
		}
		st := &streamStep{kind: stepAggregate, node: n, width: len(n.Vars), groupIdx: groupIdx, countIdx: countIdx}
		c.pipe(pi).steps = append(c.pipe(pi).steps, st)
		c.sp.pipeOf[n.ID] = pi
		c.sp.barrier, c.sp.barrierPipe = st, pi
		return pi

	default:
		// Anything newer than this compiler.
		return c.cannotLower(n, "no pipeline form for this operator")
	}
}

// estBytes is a node's estimated payload, the build-side selection
// metric (same formula as Relation.EstimatedBytes over the estimate).
func estBytes(n *plan.Node) float64 {
	return n.Est * float64(len(n.Vars)) * float64(engine.BytesPerValue)
}

// schemaEq reports whether an engine schema equals a plan var list.
func schemaEq(s engine.Schema, vars []string) bool {
	if len(s) != len(vars) {
		return false
	}
	for i, c := range s {
		if c != vars[i] {
			return false
		}
	}
	return true
}

// buildSource lowers one Scan node into a pipeline source: the node's
// resolved access path.
func (c *streamCompiler) buildSource(n *plan.Node) *streamSource {
	src := &streamSource{node: n}
	src.NodeScan, c.err = c.store.resolveScan(c.nodes[n.Leaf], pickFilters(c.filters, n.Filters), n.ExtVP)
	if c.err != nil {
		return nil
	}
	if !schemaEq(src.schema(), n.Vars) {
		c.cannotLower(n, fmt.Sprintf("the scan emits %v, the plan recorded %v", src.schema(), n.Vars))
		return nil
	}
	return src
}

// run executes every pipeline for real, in dependency order: source
// partitions stream through the fused steps in chunkSize batches, the
// sink keeps the rows that reach it, and each completed build
// pipeline's rows are indexed into its join's hash table. A
// cancellation counts the pipelines completed before it.
func (sp *streamPlan) run(ctx context.Context, s *Store, chunkSize int) error {
	n, par := 1, runtime.GOMAXPROCS(0)
	for _, p := range sp.pipes {
		if k := p.src.kind; k == scanVP || k == scanPT {
			n = max(n, min(par, p.src.parts))
		}
	}
	sp.workers = make([]streamWorker, n)
	for i := range sp.workers {
		w := &sp.workers[i]
		w.arena = sp.region.Arena(0, 0)
		if sp.barrier != nil {
			sp.barrier.initPart(&w.part, sp.region)
		}
	}
	for done, p := range sp.pipes {
		stopped := ctx != nil && ctx.Err() != nil
		if !stopped {
			if err := p.run(ctx, s, sp.workers, chunkSize); err != nil {
				return err
			}
			stopped = p.stopped.Load()
		}
		if stopped {
			return &CancelError{Err: ctx.Err(), CompletedTasks: done, TotalTasks: len(sp.pipes)}
		}
		if p.sink != nil {
			p.sink.buildRows = p.outRows.Load()
			p.sink.hash = p.sink.join.BuildBlocks(sp.region, p.sinkBlocks(), p.sink.buildIsLeft)
			// The hash table holds the blocks now (it is the build side's
			// memory, and the peak sweep prices it as such).
			p.out = nil
		}
	}
	return nil
}

// run executes one pipeline's source partitions through its steps. The
// source kinds share their NodeScan with every other route; what is here
// is only how each is iterated in batches. A VP or PT source's
// partitions are the tasks (Task) of one cluster.Run on
// min(len(workers), partitions) workers, the calling goroutine first;
// the others run on the caller's, workers[0]. A context cancellation
// stops the workers from scanning further partitions; they still count
// them done, and p.stopped reports it.
func (p *streamPipe) run(ctx context.Context, s *Store, workers []streamWorker, chunkSize int) error {
	src, w := p.src, &workers[0]
	if src.node.Op == plan.OpUnion {
		p.out = make([][]engine.Block, 1)
		for _, cp := range src.unionFrom {
			for _, batches := range cp.out {
				for _, rows := range batches {
					p.feed(w, 0, rows, chunkSize)
				}
			}
			// Consumed; free the branch's buffered rows.
			cp.out = nil
		}
		return nil
	}
	if src.kind == scanEmpty {
		return nil
	}
	p.out = make([][]engine.Block, src.parts)
	// A batch that lives in a scan worker's arena stays there until a
	// probe or projection replaces it with a block of its own; a sink it
	// reaches first keeps a copy.
	replaced := slices.ContainsFunc(p.steps, func(st *streamStep) bool {
		return st.kind == stepProbe || st.kind == stepProbeOuter || st.kind == stepProject
	})
	switch src.kind {
	case scanVPExist:
		p.runExistence(w)
		return nil
	case scanTriples:
		p.feed(w, 0, s.triplesMatches(*src.tp, src.rowPred, p.region), chunkSize)
		return nil
	case scanVP:
		p.cloneAtSink = !replaced && (src.pred != nil || src.hi-src.lo < 2)
	case scanPT:
		p.cloneAtSink = !replaced
		p.scans = ptScans(src.spec, src.parts, p.region)
		defer func() { p.scans.release(); p.scans = nil }() // after the run, which waits for every scan
	default:
		return fmt.Errorf("core: unknown stream source kind %d", src.kind)
	}
	p.ctx, p.chunk, p.workers = ctx, chunkSize, workers
	return cluster.Run(len(workers), src.parts, &p.tasks, p)
}

// feed pushes rows that exist already (a stored VP partition, a triples
// scan's matches, a union branch's sink) through the steps on worker w
// as partition part, in chunkSize batches sliced off the block,
// uncopied.
func (p *streamPipe) feed(w *streamWorker, part int, rows engine.Block, chunkSize int) {
	p.src.out.Add(int64(rows.Len()))
	for lo := 0; lo < rows.Len(); lo += chunkSize {
		p.processBatch(w, part, rows.Slice(lo, min(lo+chunkSize, rows.Len())))
	}
}

// Task implements cluster.Job: it scans claimed partition pi on worker
// slot w — unscanned once the query's context is cancelled.
func (p *streamPipe) Task(w, pi int) error {
	switch {
	case p.stopped.Load():
	case p.ctx != nil && p.ctx.Err() != nil:
		p.stopped.Store(true)
	case p.src.kind == scanPT:
		p.scanPTPart(pi, &p.scans.scans[pi], &p.workers[w])
	default:
		p.scanVPPart(pi, &p.workers[w])
	}
	return nil
}

// scanVPPart streams one VP partition through the pipeline in batches
// of chunk rows. An unfiltered scan emitting the stored (s,o) rows
// whole slices the stored block, copying nothing; otherwise the fused
// scan predicate runs on the raw (s,o) rows, and the survivors, shaped
// to r[lo:hi], are copied into the worker's arena, one batch at a time.
// The table's own block is only ever read.
func (p *streamPipe) scanVPPart(pi int, w *streamWorker) {
	src, chunkSize, arena := p.src, p.chunk, &w.arena
	part := src.table.Rel.Part(pi)
	if src.pred == nil && src.hi-src.lo == 2 {
		p.feed(w, pi, part, chunkSize)
		return
	}
	width := src.hi - src.lo
	arena.Reset(width, min(chunkSize, part.Len()))
	flush := func() {
		if arena.Len() > 0 {
			src.out.Add(int64(arena.Len()))
			p.processBatch(w, pi, arena.Block())
			arena.Reset(width, 0)
		}
	}
	for i := 0; i < part.Len(); i++ {
		r := part.Row(i)
		if src.pred != nil && !src.pred(r) {
			continue
		}
		arena.AppendCopy(r[src.lo:src.hi])
		if arena.Len() == chunkSize {
			flush()
		}
	}
	flush()
}

// scanPTPart streams one PT partition with the partition's scan scratch
// sc, in one pass: the cartesian flatten yields reused scratch rows,
// which are copied into the worker's arena — growing there by doubling,
// like ptScan.rows — and flushed through the steps every chunk rows
// and once more at the partition's end.
func (p *streamPipe) scanPTPart(pi int, sc *ptScan, w *streamWorker) {
	src, chunkSize, arena := p.src, p.chunk, &w.arena
	width := len(src.spec.schema)
	if !sc.init(src.pt.parts[pi], src.spec.specs, width) {
		return
	}
	src.scanned.Add(sc.processed())
	arena.Reset(width, 0)
	flush := func() {
		src.out.Add(int64(arena.Len()))
		p.processBatch(w, pi, arena.Block())
		arena.Reset(width, 0)
	}
	sc.run(src.rowPred, func(r engine.Row) {
		arena.Grow(1)
		arena.AppendCopy(r)
		if arena.Len() == chunkSize {
			flush()
		}
	})
	if arena.Len() > 0 {
		flush()
	}
}

// runExistence answers a fully-bound pattern: scan until any row
// matches, then feed a single width-0 row through the chain (cartesian
// with one empty row is the join identity, exactly like the
// materialized existence test).
func (p *streamPipe) runExistence(w *streamWorker) {
	src := p.src
	for pi := 0; pi < src.table.Rel.Partitions(); pi++ {
		part := src.table.Rel.Part(pi)
		for i := 0; i < part.Len(); i++ {
			if src.pred == nil || src.pred(part.Row(i)) {
				src.out.Add(1)
				p.processBatch(w, 0, engine.MakeBlock(0, 1, nil))
				return
			}
		}
	}
}

// processBatch pushes one batch through the pipeline's steps on worker
// w; the sink keeps the survivors — the batch as it is, or an exactly
// sized copy in the region when it may still be a worker's arena
// (cloneAtSink).
func (p *streamPipe) processBatch(w *streamWorker, part int, rows engine.Block) {
	for _, st := range p.steps {
		if rows = st.apply(rows, w, p.region); rows.Len() == 0 {
			return
		}
	}
	if p.cloneAtSink {
		ids := p.region.IDs(len(rows.IDs()))
		copy(ids, rows.IDs())
		rows = engine.MakeBlock(rows.Width(), rows.Len(), ids)
	}
	p.out[part] = append(p.out[part], rows)
	p.outRows.Add(int64(rows.Len()))
}

// sinkBlocks lists the pipeline's sink batches in partition order —
// what a hash build indexes or the driver decodes, where they lie.
func (p *streamPipe) sinkBlocks() []engine.Block {
	n := 0
	for _, batches := range p.out {
		n += len(batches)
	}
	out := make([]engine.Block, 0, n)
	for _, batches := range p.out {
		out = append(out, batches...)
	}
	return out
}

// recordObs fills the observation with every node's streamed output
// cardinality — the same numbers the materialized operators would have
// recorded, since both modes compute identical row multisets. Barrier
// and driver-tail operators record their finalized counts.
func (sp *streamPlan) recordObs(obs *plan.Observation) {
	for _, p := range sp.pipes {
		obs.Record(p.src.node, p.src.out.Load())
	}
	for _, st := range sp.stepOf {
		obs.Record(st.node, st.out.Load())
	}
	for n, c := range sp.tailObs {
		obs.Record(n, c)
	}
}

// finalRows produces the streaming query's result rows: the root
// pipeline's sink batches for a plan without a blocking tail, otherwise
// the finalized barrier (sorted/sliced top-K buffer, or aggregate group
// rows) with the driver-tail operators applied bottom-up.
func (sp *streamPlan) finalRows(s *Store) ([]engine.Block, error) {
	b := sp.barrier
	if b == nil {
		return sp.root.sinkBlocks(), nil
	}
	sp.tailObs = map[*plan.Node]int64{}
	rows := b.finish(sp.workers, sp.region)
	if b.kind == stepTopK {
		rows = sliceOffsetLimit(rows, b.node.Limit, b.node.Offset)
	}
	sp.tailObs[b.node] = int64(rows.Len())
	for i := len(sp.tail) - 1; i >= 0; i-- {
		n := sp.tail[i]
		var err error
		if rows, err = s.applyTailOp(n, rows, sp.region); err != nil {
			return nil, err
		}
		sp.tailObs[n] = int64(rows.Len())
	}
	return []engine.Block{rows}, nil
}

// topKeep is how many leading rows a TopK node's window needs:
// offset+limit, or -1 (all of them) without a LIMIT or when the sum
// overflows an int, which no row count reaches.
func topKeep(n *plan.Node) int {
	offset := max(n.Offset, 0)
	if n.Limit < 0 || n.Limit > math.MaxInt-offset {
		return -1
	}
	return offset + n.Limit
}

// sliceOffsetLimit applies a LIMIT/OFFSET window to sorted rows.
func sliceOffsetLimit(rows engine.Block, limit, offset int) engine.Block {
	lo := min(max(offset, 0), rows.Len())
	hi := rows.Len()
	if limit >= 0 && limit < hi-lo {
		hi = lo + limit
	}
	return rows.Slice(lo, hi)
}

// applyTailOp runs one driver-tail operator over the finalized group
// rows (at most one row per group — epilogue-sized input), into region.
func (s *Store) applyTailOp(n *plan.Node, rows engine.Block, region *engine.Region) (engine.Block, error) {
	switch n.Op {
	case plan.OpProject:
		in := engine.Schema(n.Children[0].Vars)
		proj := make([]int, len(n.Cols))
		for i, col := range n.Cols {
			proj[i] = in.Index(col)
			if proj[i] < 0 {
				return engine.Block{}, fmt.Errorf("core: projected column ?%s not in schema %v", col, in)
			}
		}
		out := region.Arena(len(proj), rows.Len())
		for i := 0; i < rows.Len(); i++ {
			out.AppendProjected(rows.Row(i), proj)
		}
		return out.Block(), nil

	case plan.OpDistinct:
		d := engine.NewRowDeduper(region, len(n.Vars), rows.Len())
		for i := 0; i < rows.Len(); i++ {
			d.Insert(rows.Row(i))
		}
		return d.Rows(), nil

	case plan.OpTopK:
		sorted := region.Arena(0, 0)
		return sliceOffsetLimit(engine.SortInto(&sorted, rows, s.topkLess(n), topKeep(n)), n.Limit, n.Offset), nil

	default:
		return engine.Block{}, fmt.Errorf("core: unsupported driver tail operator %v", n.Op)
	}
}

// vLayout is the virtual partitioning of one operator's output — the
// layout the materialized relation would have carried — used to price
// shuffle avoidance identically to the engine's alignedOnCols rule.
type vLayout struct {
	partCols []string
	nparts   int
}

// alignedOn mirrors engine alignedOnCols on the virtual layout.
func (v vLayout) alignedOn(cols []string, n int) bool {
	if len(cols) == 0 || len(v.partCols) != len(cols) || v.nparts != n {
		return false
	}
	for i, c := range cols {
		if v.partCols[i] != c {
			return false
		}
	}
	return true
}

// survivingVCols mirrors engine survivingCols: cols survive only when
// the schema retains every one of them.
func survivingVCols(cols []string, schema []string) []string {
	s := engine.Schema(schema)
	for _, c := range cols {
		if !s.Contains(c) {
			return nil
		}
	}
	return append([]string(nil), cols...)
}

// price walks the plan bottom-up and converts each pipeline's work
// into a morsel pipeline: aggregate TaskStats mirroring exactly what
// the materialized operators would have charged (scan disk + rows,
// join shuffle/broadcast bytes on actual cardinalities, per-filter
// cascades), the launch overheads of the boundaries the pipeline's
// probes cross, and the result payload the root delivers. Streaming
// distinct and the dropped collect stage charge no launch — the
// streaming path's structural savings.
func (sp *streamPlan) price(s *Store, r resolved, pl *plan.Plan) []cluster.MorselPipeline {
	cost := s.cluster.Config().Cost
	workers := s.cluster.Workers()
	defParts := s.cluster.DefaultPartitions()
	boundary := cost.SQLStageLaunch

	stats := make([]cluster.TaskStats, len(sp.pipes))
	launch := make([]time.Duration, len(sp.pipes))

	counts := map[int]int64{}
	for _, p := range sp.pipes {
		counts[p.src.node.ID] = p.src.out.Load()
	}
	for id, st := range sp.stepOf {
		counts[id] = st.out.Load()
	}

	bt := r.broadcast

	var walk func(n *plan.Node) vLayout
	walk = func(n *plan.Node) vLayout {
		pi := sp.pipeOf[n.ID]
		switch n.Op {
		case plan.OpScan:
			return priceSource(sp.pipes[pi].src, &stats[pi])

		case plan.OpFilter:
			lay := walk(n.Children[0])
			if st := sp.stepOf[n.ID]; st != nil {
				for _, c := range st.checks {
					stats[pi].Rows += c.in.Load()
				}
			}
			return lay

		case plan.OpProject:
			lay := walk(n.Children[0])
			stats[pi].Rows += counts[n.Children[0].ID]
			return vLayout{partCols: survivingVCols(lay.partCols, n.Cols), nparts: lay.nparts}

		case plan.OpDistinct:
			// Driver-side streaming dedup: per-row insert cost, no
			// shuffle and no stage launch (the materialized Distinct
			// pays both).
			lay := walk(n.Children[0])
			stats[pi].Rows += counts[n.Children[0].ID]
			return lay

		case plan.OpJoin:
			l, r := n.Children[0], n.Children[1]
			lLay := walk(l)
			rLay := walk(r)
			lAct, rAct, outAct := counts[l.ID], counts[r.ID], counts[n.ID]
			lb := lAct * int64(len(l.Vars)) * engine.BytesPerValue
			rb := rAct * int64(len(r.Vars)) * engine.BytesPerValue
			jr := sp.stepOf[n.ID].jr
			shared := jr.join.Shared()

			if len(shared) == 0 {
				// Cartesian: the smaller actual side broadcasts.
				smallB, largeParts := rb, lLay.nparts
				if lb < rb {
					smallB, largeParts = lb, rLay.nparts
				}
				stats[pi].Rows += outAct
				stats[pi].NetBytes += smallB * int64(minInt(workers, largeParts))
				launch[pi] += boundary / 3
				return vLayout{nparts: largeParts}
			}

			// The engine's runtime join rule on actual sizes.
			useBroadcast, buildLeft := false, false
			switch {
			case n.Method == plan.MethodBroadcast:
				useBroadcast, buildLeft = true, lb < rb
			case bt > 0 && rb <= bt && rb <= lb:
				useBroadcast = true
			case bt > 0 && lb <= bt:
				useBroadcast, buildLeft = true, true
			}
			if useBroadcast {
				buildB, probeAct, probeLay := rb, lAct, lLay
				if buildLeft {
					buildB, probeAct, probeLay = lb, rAct, rLay
				}
				stats[pi].Rows += probeAct + outAct
				stats[pi].NetBytes += buildB * int64(minInt(workers, probeLay.nparts))
				launch[pi] += boundary / 3
				return vLayout{
					partCols: survivingVCols(probeLay.partCols, n.Vars),
					nparts:   probeLay.nparts,
				}
			}
			// Shuffle: each side not already aligned on the join key
			// ships every row.
			if !lLay.alignedOn(shared, defParts) {
				stats[pi].NetBytes += lAct * int64(len(l.Vars)) * engine.BytesPerValue
			}
			if !rLay.alignedOn(shared, defParts) {
				stats[pi].NetBytes += rAct * int64(len(r.Vars)) * engine.BytesPerValue
			}
			stats[pi].Rows += lAct + rAct + outAct
			launch[pi] += boundary
			return vLayout{
				partCols: survivingVCols(shared, n.Vars),
				nparts:   defParts,
			}

		case plan.OpLeftJoin:
			l, r := n.Children[0], n.Children[1]
			lLay := walk(l)
			walk(r)
			lAct, rAct, outAct := counts[l.ID], counts[r.ID], counts[n.ID]
			// The optional side builds and broadcasts to the probe
			// side's partitions — the materialized LeftJoin's pricing.
			rb := rAct * int64(len(r.Vars)) * engine.BytesPerValue
			stats[pi].Rows += lAct + outAct
			stats[pi].NetBytes += rb * int64(minInt(workers, lLay.nparts))
			launch[pi] += boundary / 3
			return vLayout{
				partCols: survivingVCols(lLay.partCols, n.Vars),
				nparts:   lLay.nparts,
			}

		case plan.OpUnion:
			// The union pipe re-reads every branch's buffered rows.
			var sum int64
			for _, ch := range n.Children {
				walk(ch)
				sum += counts[ch.ID]
			}
			stats[pi].Rows += sum
			launch[pi] += boundary / 3
			return vLayout{nparts: 1}

		case plan.OpTopK, plan.OpAggregate:
			// One pass over the input rows into the bounded buffer or
			// group table; the finalize is driver epilogue work.
			lay := walk(n.Children[0])
			stats[pi].Rows += counts[n.Children[0].ID]
			_ = lay
			return vLayout{nparts: 1}

		default:
			return vLayout{}
		}
	}
	walk(pl.Root)

	out := make([]cluster.MorselPipeline, len(sp.pipes))
	for i, p := range sp.pipes {
		mp := cluster.MorselPipeline{
			Name:    p.name,
			Deps:    p.deps,
			Launch:  launch[i],
			Morsels: morselCount(sourceInputRows(p.src), r.chunk, workers),
			Work:    stats[i],
		}
		// Only the root pipeline delivers to the driver: union branches
		// buffer for their consumer, and a barrier root emits after
		// finalize (no per-morsel delivery to price).
		if p == sp.root && p.sink == nil {
			outRows := p.outRows.Load()
			mp.EmitBytes = outRows * int64(p.width) * engine.BytesPerValue
			mp.EmitRows = outRows > 0
		}
		out[i] = mp
	}
	return out
}

// priceSource charges one scan's work as the materialized scan stage
// would — the NodeScan's disk bytes with the stage's per-partition
// integer rounding, the rows examined, and the rows a PT select emits or
// a column-dropping VP scan re-reads in its Project pass — and returns
// the scan's virtual output layout. An empty scan charges nothing, as
// the materialized operator runs no stage for it.
func priceSource(src *streamSource, st *cluster.TaskStats) vLayout {
	lay := vLayout{nparts: src.parts}
	if src.kind == scanEmpty {
		// The empty relation carries no partitioning either.
		return lay
	}
	if src.partCol != "" {
		lay.partCols = []string{src.partCol}
	}
	n := int64(src.parts)
	st.DiskBytes += (src.diskBytes / n) * n
	st.Rows += sourceInputRows(src)
	if src.kind == scanPT || src.projects() {
		st.Rows += src.out.Load()
	}
	if src.kind == scanVPExist {
		lay.nparts = 1
	}
	return lay
}

// sourceInputRows is the scan input driving a pipeline's morsel split:
// the rows (or keys) the source examines, not the rows it emits.
func sourceInputRows(src *streamSource) int64 {
	switch src.kind {
	case scanVP, scanVPExist:
		return int64(src.table.Rel.NumRows())
	case scanPT:
		return src.scanned.Load()
	default:
		// The fallback and a union replay examine what they emit; an
		// empty scan neither.
		return src.out.Load()
	}
}

// morselCount splits a pipeline's scan into morsels: chunk-granular,
// but never fewer than two waves per worker (so contention and
// first-row serialization are visible even on small inputs), and never
// more morsels than rows.
func morselCount(srcRows int64, chunkSize, workers int) int {
	m := (srcRows + int64(chunkSize) - 1) / int64(chunkSize)
	if cap2w := minInt64(srcRows, int64(2*workers)); cap2w > m {
		m = cap2w
	}
	if m < 1 {
		m = 1
	}
	return int(m)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// memEvent is one +/- step of a memory-over-virtual-time sweep.
type memEvent struct {
	at    time.Duration
	delta int64
}

// sweepPeak returns the maximum running sum of the events. Acquires
// sort before releases at equal timestamps, so a handoff (producer
// freed exactly when the consumer materializes) counts both — the
// conservative reading.
func sweepPeak(evs []memEvent) int64 {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta > evs[j].delta
	})
	var cur, peak int64
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// peakMemBytes sweeps the streaming execution's simulated memory
// high-water mark: each hash-join build side lives from its build
// pipeline's gate until its probe pipeline drains, the distinct set
// lives to the end, and each pipeline carries its in-flight chunk
// occupancy — up to Workers concurrently active morsels, each holding
// its share of the pipeline's copied rows (VP source batches alias the
// stored tables and count nothing, mirroring the materialized sweep's
// zero-copy scan exclusion) — while it runs. Result chunks stream to
// the driver morsel by morsel, so the root output never accumulates.
func (sp *streamPlan) peakMemBytes(pipes []cluster.MorselPipeline, res *cluster.MorselSimResult, start time.Duration, workers int) int64 {
	gates := make([]time.Duration, len(pipes))
	for i, p := range pipes {
		g := start
		for _, d := range p.Deps {
			if res.PipelineDone[d] > g {
				g = res.PipelineDone[d]
			}
		}
		gates[i] = g + p.Launch
	}
	var evs []memEvent
	for _, jr := range sp.joins {
		b := jr.buildRows * int64(jr.buildWidth) * memBytesPerValue
		if b <= 0 {
			continue
		}
		probePipe := sp.pipeOf[jr.node.ID]
		evs = append(evs,
			memEvent{at: gates[jr.buildPipe], delta: b},
			memEvent{at: res.PipelineDone[probePipe], delta: -b},
		)
	}
	for id, st := range sp.stepOf {
		if st.kind != stepDistinct {
			continue
		}
		b := int64(st.dedup.Len()) * int64(st.width) * memBytesPerValue
		if b <= 0 {
			continue
		}
		pi := sp.pipeOf[id]
		evs = append(evs,
			memEvent{at: gates[pi], delta: b},
			memEvent{at: res.Done, delta: -b},
		)
	}
	// The fused barrier's retained state lives from its pipe's gate to
	// the end: the top-K buffer — each of the pipe's active workers keeps
	// at most offset+limit rows, the footprint a LIMIT saves over the
	// unlimited ORDER BY, and never more than arrived — or the aggregate
	// group table. The bound, not the buffer's high-water mark, is
	// priced: the mark depends on the order batches happened to arrive in.
	if b := sp.barrier; b != nil {
		merged := &sp.workers[0].part
		var bytes int64
		switch b.kind {
		case stepTopK:
			rows := merged.arrived
			// Only a keep below arrived can bind, which also keeps
			// the product from overflowing.
			if b.keep >= 0 && int64(b.keep) < rows {
				rows = min(rows, int64(min(workers, max(pipes[sp.barrierPipe].Morsels, 1)))*int64(b.keep))
			}
			bytes = rows * int64(b.width) * memBytesPerValue
		case stepAggregate:
			bytes = int64(merged.groups.Len()) * int64(b.width) * memBytesPerValue
		}
		if bytes > 0 {
			evs = append(evs,
				memEvent{at: gates[sp.barrierPipe], delta: bytes},
				memEvent{at: res.Done, delta: -bytes},
			)
		}
	}
	// Union branches buffer their sink rows from their own gate until
	// the union pipeline consumes them.
	for i, p := range sp.pipes {
		if p.src.node.Op != plan.OpUnion {
			continue
		}
		for _, cp := range p.src.unionFrom {
			b := cp.outRows.Load() * int64(cp.width) * memBytesPerValue
			if b <= 0 {
				continue
			}
			evs = append(evs,
				memEvent{at: gates[cp.id], delta: b},
				memEvent{at: res.PipelineDone[i], delta: -b},
			)
		}
	}
	perMorsel := func(rows int64, m int) int64 {
		return (rows + int64(m) - 1) / int64(m)
	}
	for i, p := range sp.pipes {
		m := pipes[i].Morsels
		if m < 1 {
			m = 1
		}
		// Bytes one active morsel holds: its current batch at every
		// copying stage (PT/triples source arenas, probe and project
		// output arenas, the sink's encoded chunk).
		var per int64
		if p.src.copiesRows() {
			per += perMorsel(p.src.out.Load(), m) * int64(len(p.src.schema())) * memBytesPerValue
		}
		for _, st := range p.steps {
			if st.kind == stepProbe || st.kind == stepProject {
				per += perMorsel(st.out.Load(), m) * int64(st.width) * memBytesPerValue
			}
		}
		if p.sink != nil {
			per += perMorsel(p.outRows.Load(), m) * int64(p.width) * memBytesPerValue
		}
		b := int64(minInt(workers, m)) * per
		if b <= 0 {
			continue
		}
		end := res.PipelineDone[i]
		if end <= gates[i] {
			end = gates[i] + 1
		}
		evs = append(evs, memEvent{at: gates[i], delta: b}, memEvent{at: end, delta: -b})
	}
	return sweepPeak(evs)
}

// materializedPeakBytes sweeps the materialized scheduler's simulated
// memory high-water mark after a successful run. Each relation lives
// from its task's completion to the end of the query, as Spark keeps a
// job's shuffle outputs until the job ends (the scheduler itself frees
// an intermediate as soon as its consumer completed; recovering it is
// priced as a lineage recompute). Scans whose output aliases the
// stored table (an unshaped, unfiltered VP scan) count nothing,
// matching the streaming sweep's treatment of aliased source batches.
//
// Broadcast joins additionally pin one deserialized copy of the build
// relation on every receiving executor for the rest of the job — the
// Spark broadcast-variable semantics the cost model already prices as
// network transfer (buildBytes × min(workers, probe partitions)). Each
// task's retained stage trace records exactly those bytes, so the
// sweep converts them from wire width to resident width and holds them
// from the join's start to the end of the query. The streaming sweep
// charges each build hash once instead: morsel workers share one hash
// table, so the same transfer lands every datum in memory exactly once
// — that asymmetry, not scheduling, is the broadcast memory story.
func materializedPeakBytes(sc *scheduler, simTime time.Duration) int64 {
	var evs []memEvent
	for _, t := range sc.tasks {
		for _, st := range t.stages {
			if !strings.HasPrefix(st.Name, "broadcast join ") && !strings.HasPrefix(st.Name, "cartesian ") {
				continue
			}
			rep := st.Stats.NetBytes / engine.BytesPerValue * memBytesPerValue
			if rep <= 0 {
				continue
			}
			to := simTime
			if to <= t.start {
				to = t.start + 1
			}
			evs = append(evs, memEvent{at: t.start, delta: rep}, memEvent{at: to, delta: -rep})
		}
		act := sc.obs.Actual(t.node)
		if act <= 0 || t.zeroCopy {
			continue
		}
		b := act * int64(len(t.node.Vars)) * memBytesPerValue
		if b <= 0 {
			continue
		}
		to := simTime
		if to <= t.done {
			to = t.done + 1
		}
		evs = append(evs, memEvent{at: t.done, delta: b}, memEvent{at: to, delta: -b})
	}
	return sweepPeak(evs)
}

// runStreaming executes the plan on the morsel pipelines, in region: the
// real row work first, then the virtual morsel schedule that prices it.
// Errors are final — the failure modes are the materialized path's.
func (s *Store) runStreaming(ctx context.Context, r resolved, entry *cachedPlan, filters []compiledFilter, region *engine.Region) (execution, error) {
	var x execution
	pl := entry.plan
	sp, err := s.compileStreamPlan(pl, entry.nodes, filters, region)
	if err != nil {
		return x, err
	}
	if err := sp.run(ctx, s, r.chunk); err != nil {
		return x, err
	}

	// Finalize before recording: the barrier's and driver tail's output
	// cardinalities only exist once the blocking state is drained.
	if x.rows, err = sp.finalRows(s); err != nil {
		return x, err
	}

	obs := plan.NewObservation(pl)
	sp.recordObs(obs)

	cost := s.cluster.Config().Cost
	workers := s.cluster.Workers()
	pipes := sp.price(s, r, pl)
	simRes, err := cluster.SimulateMorsels(pipes, cluster.MorselSimConfig{
		Workers:   workers,
		Cost:      cost,
		Start:     cost.SQLPlanning,
		Faults:    r.faults,
		FaultSalt: r.faultSalt,
	})
	if err != nil {
		return x, err
	}
	x.recovery = simRes.Recovery

	// One trace record per pipeline (display-only; the clock advances by
	// the simulated completion, not the stage sum).
	planning := cluster.StageRecord{Name: "query planning", Tasks: 1, Elapsed: cost.SQLPlanning, Makespan: cost.SQLPlanning}
	x.trace = append(make([]cluster.StageRecord, 0, len(pipes)+2), planning)
	for _, p := range pipes {
		mk := cost.TaskTime(p.Work)
		x.trace = append(x.trace, cluster.StageRecord{
			Name:     "pipeline " + p.Name,
			Launch:   p.Launch,
			Tasks:    p.Morsels,
			Elapsed:  p.Launch + mk,
			Makespan: mk,
			Stats:    p.Work,
		})
	}
	if rec := simRes.Recovery.RecoveryTime; rec > 0 {
		x.trace = append(x.trace, cluster.StageRecord{Name: "fault recovery (retries, backoff, speculation, recompute)", Tasks: 1, Elapsed: rec, Makespan: rec})
	}
	x.simTime = simRes.Done
	x.firstRow = simRes.FirstEmit
	x.peak = sp.peakMemBytes(pipes, simRes, cost.SQLPlanning, workers)
	x.plan = pl.Stamp(obs)
	return x, nil
}
