// Package plan is PRoST's physical planning layer: an explicit plan IR
// sitting between Join Tree translation (internal/core) and relational
// execution (internal/engine). A Plan is a tree of operators — Scan,
// Filter, Join, Project, Distinct — each carrying an estimated output
// cardinality derived from loader-time statistics, and, once executed,
// the actual cardinality observed, so EXPLAIN can show estimation error
// per node.
//
// Build runs three optimization passes over the translated leaves
// (paper §3.3, extended):
//
//  1. Filter pushdown — every FILTER constraint is attached to the
//     earliest scan in execution order that exposes its variable, so
//     the predicate runs during the scan instead of on a materialized
//     intermediate, and runs exactly once.
//  2. Join ordering — in ModeCost, greedy enumeration over the
//     cardinality-estimated join graph: start from the smallest
//     (filter-adjusted) leaf and repeatedly attach the connected leaf
//     whose priced join is cheapest. ModeHeuristic keeps the §3.3
//     priority order the translator produced; ModeNaive keeps the
//     query's written order (the ablation baselines).
//  3. Physical join selection — each join is priced as a broadcast
//     exchange and as a shuffle exchange on its *estimated* input
//     sizes using cluster.CostModel, choosing the cheaper, instead of
//     applying one global size threshold at runtime. Sides whose
//     predicted partitioning already matches the join key are priced
//     as co-partitioned (zero shuffle movement).
package plan

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Op identifies a physical operator.
type Op uint8

// Physical operators.
const (
	// OpScan reads one Join Tree leaf (a VP table select, a Property
	// Table select, or the triple-table fallback), applying any pushed
	// filters during the scan.
	OpScan Op = iota
	// OpFilter applies FILTER predicates to a materialized relation —
	// produced only when a predicate cannot be pushed into a scan.
	OpFilter
	// OpJoin is a natural join with an explicit physical method.
	OpJoin
	// OpProject keeps the projected columns.
	OpProject
	// OpDistinct removes duplicate rows.
	OpDistinct
	// OpLeftJoin is a left outer join (OPTIONAL): every left row
	// survives, padded with NullID in right-only columns when
	// unmatched. The right child is always the build side.
	OpLeftJoin
	// OpUnion concatenates its children's rows (UNION); children bind
	// identical variable sets, pre-projected to a common column order.
	OpUnion
	// OpTopK orders rows by Sort and keeps [Offset, Offset+Limit) —
	// ORDER BY and LIMIT fused, pushed below the collect exchange as a
	// per-partition top-K before the coordinator merge. An empty Sort
	// imposes the deterministic raw-ID row order, making LIMIT without
	// ORDER BY plan- and partitioning-independent.
	OpTopK
	// OpAggregate hash-groups rows on GroupCols and appends one COUNT
	// column per CountVars entry (GROUP BY … / COUNT).
	OpAggregate
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpScan:
		return "Scan"
	case OpFilter:
		return "Filter"
	case OpJoin:
		return "Join"
	case OpProject:
		return "Project"
	case OpDistinct:
		return "Distinct"
	case OpLeftJoin:
		return "LeftJoin"
	case OpUnion:
		return "Union"
	case OpTopK:
		return "TopK"
	case OpAggregate:
		return "Aggregate"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// SortKey is one ORDER BY key of a TopK node: the output column and
// its direction.
type SortKey struct {
	Col  string
	Desc bool
}

// JoinMethod is the physical strategy a Join node executes with.
type JoinMethod uint8

// Join methods.
const (
	// MethodAuto defers the choice to the engine's runtime rule (the
	// Catalyst-style broadcast threshold on actual sizes). Heuristic and
	// naive plans use it so the paper's behaviour is reproduced exactly.
	MethodAuto JoinMethod = iota
	// MethodBroadcast ships the smaller side to every worker.
	MethodBroadcast
	// MethodShuffle repartitions both sides on the join key.
	MethodShuffle
	// MethodCoPartitioned is a shuffle join whose sides are predicted to
	// already be partitioned on the join key, so no rows move.
	MethodCoPartitioned
	// MethodCartesian marks a join without shared variables.
	MethodCartesian
)

// String implements fmt.Stringer.
func (m JoinMethod) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodBroadcast:
		return "broadcast"
	case MethodShuffle:
		return "shuffle"
	case MethodCoPartitioned:
		return "co-partitioned"
	case MethodCartesian:
		return "cartesian"
	default:
		return fmt.Sprintf("JoinMethod(%d)", uint8(m))
	}
}

// Mode selects the planner variant.
type Mode uint8

// Planner modes.
const (
	// ModeCost is the cost-based planner (the default): join order and
	// physical methods chosen by estimated cardinality and priced time.
	// It additionally enumerates bushy shapes — independent connected
	// subtrees become sibling subplans joined at the top — and keeps the
	// bushy plan when its estimated critical path (max over parallel
	// branches, not their sum) is shorter than the left-deep chain's.
	ModeCost Mode = iota
	// ModeHeuristic keeps the paper's §3.3 priority ordering and the
	// engine's runtime join selection.
	ModeHeuristic
	// ModeNaive keeps the query's written pattern order (ablation A1).
	ModeNaive
	// ModeCostLeftDeep is the cost-based planner restricted to left-deep
	// chains — the PR 2 behaviour, kept as the ablation baseline the
	// bushy planner is measured against.
	ModeCostLeftDeep
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCost:
		return "cost"
	case ModeHeuristic:
		return "heuristic"
	case ModeNaive:
		return "naive"
	case ModeCostLeftDeep:
		return "cost-leftdeep"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ModeNames lists the values ParseMode accepts, in documentation order —
// the single source CLI flags and error messages quote, so an invalid
// -planner value always names every valid one.
func ModeNames() []string {
	return []string{"cost", "cost-leftdeep", "heuristic", "naive"}
}

// ParseMode maps a CLI flag or request parameter to a Mode. Unknown
// values are rejected with an error listing every valid mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "cost", "":
		return ModeCost, nil
	case "cost-leftdeep":
		return ModeCostLeftDeep, nil
	case "heuristic":
		return ModeHeuristic, nil
	case "naive":
		return ModeNaive, nil
	default:
		return 0, fmt.Errorf("core: unknown planner mode %q (valid modes: %s)",
			s, strings.Join(ModeNames(), ", "))
	}
}

// Node is one operator of a physical plan.
type Node struct {
	// ID is the node's stable index within its plan (preorder from the
	// root), assigned by Build. Observations record per-execution actual
	// cardinalities by ID, so cached plans shared across concurrent
	// executions are never mutated.
	ID int
	// Op is the operator kind.
	Op Op
	// Label is a short human-readable description (e.g. the leaf label
	// for scans, the join variables for joins).
	Label string
	// Vars is the operator's output schema, in the exact column order
	// the engine produces.
	Vars []string
	// Est is the estimated output cardinality (rows).
	Est float64
	// Actual is the observed output cardinality; -1 until stamped. Plans
	// returned by Build (and plans held in a cache) always carry -1:
	// execution records actuals into a per-execution Observation, and
	// Stamp produces a private copy with the actuals filled in.
	Actual int64
	// Attempts is the number of execution attempts the operator's task
	// took under fault injection (failed tries, the winning try and any
	// speculative duplicate all count). 0 or 1 — a clean first run —
	// renders nothing; recovery renders as " attempts=N" in EXPLAIN.
	// Like Actual it is stamped per execution, never onto cached plans.
	Attempts int
	// Children are the operator inputs (0 for Scan, 1 for
	// Filter/Project/Distinct, 2 for Join).
	Children []*Node

	// Leaf is the index of the Join Tree leaf a Scan reads.
	Leaf int
	// Filters are the indexes (into the builder's filter list) of the
	// predicates this Scan or Filter node applies.
	Filters []int
	// Method is the Join node's physical strategy.
	Method JoinMethod
	// JoinVars are the Join node's equi-join columns, in left-schema
	// order (the order the engine shuffles on).
	JoinVars []string
	// Keep, when non-nil, lists the output columns the Join retains —
	// fused column pruning of variables no later operator reads. Nil
	// keeps the full join output.
	Keep []string
	// Cols are the Project node's output columns.
	Cols []string
	// EstSource records what produced Est for Scan and Join nodes:
	// EstCSet (characteristic sets), EstSketch (pair join sketches),
	// EstIndep (the independence assumption), EstExtVP (a reduction's
	// exact size) or EstObserved (an earlier execution's count). Empty
	// for derivative operators (Filter/Project/Distinct inherit their
	// input's quality).
	EstSource string
	// Sort holds a TopK node's ORDER BY keys; empty means the
	// deterministic raw-ID row order (LIMIT without ORDER BY).
	Sort []SortKey
	// Limit and Offset bound a TopK node's output; Limit < 0 means no
	// limit (a plain ORDER BY).
	Limit  int
	Offset int
	// GroupCols are an Aggregate node's GROUP BY columns.
	GroupCols []string
	// CountVars are an Aggregate node's counted variables, one per
	// COUNT output column in schema order ("" = COUNT(*)).
	CountVars []string
	// CountCols marks, per output column of this node, which columns
	// hold raw counts instead of dictionary IDs. Set on Aggregate nodes
	// and propagated through downstream Project/TopK nodes so result
	// decoding and ORDER BY comparison treat count cells numerically.
	CountCols []bool
	// ExtVP, when non-nil, redirects a Scan to a workload-materialized
	// semi-join reduction of its predicate's VP table. Executors resolve
	// it against the live workload model and fall back to the full table
	// when the reduction has since been evicted (a superset, so results
	// are unchanged).
	ExtVP *ExtVPRef

	// PricedNetBytes and MeasuredNetBytes compare the cost model's
	// network charge for this operator's exchange against the bytes
	// measured on the wire in a distributed execution. Stamped per
	// execution (like Actual) when HasNetBytes is true; rendered as
	// " net=priced/measured" in EXPLAIN.
	PricedNetBytes   int64
	MeasuredNetBytes int64
	HasNetBytes      bool
}

// Plan is a complete physical plan for one query. A Plan is immutable
// once built (execution records actuals into an Observation, never onto
// the plan), so one Plan may be cached and executed by any number of
// concurrent queries.
type Plan struct {
	// Root is the plan's root operator.
	Root *Node
	// Mode is the planner variant that produced the plan.
	Mode Mode
	// Bushy reports whether ModeCost chose a bushy shape over the
	// left-deep chain (independent subtrees joined at the top).
	Bushy bool
	// EstCritPath is the builder's priced critical path of the join
	// tree: every node costs its own estimated time and completes at
	// max(children completions) + own time, so parallel branches price
	// as their max, not their sum. It is populated for every mode (the
	// cost modes use it to choose bushy vs left-deep; heuristic and
	// naive plans carry the best-alternative pricing for reference).
	EstCritPath time.Duration
	// Leaves are the scan descriptions the plan was built from, in
	// builder input order (Node.Leaf indexes into it).
	Leaves []Leaf
	// FilterLabels render the builder's filter specs for EXPLAIN.
	FilterLabels []string
	// Rewrites records every ExtVP scan-rewrite candidate the build's
	// workload pre-pass considered (applied and declined), for EXPLAIN.
	Rewrites []Rewrite

	nodeCount int
}

// NumNodes returns the number of operators in the plan; Node.ID values
// range over [0, NumNodes).
func (p *Plan) NumNodes() int { return p.nodeCount }

// assignIDs numbers the nodes preorder from the root.
func (p *Plan) assignIDs() {
	p.nodeCount = 0
	var walk func(n *Node)
	walk = func(n *Node) {
		n.ID = p.nodeCount
		p.nodeCount++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
}

// Observation is one execution's record of actual per-node output
// cardinalities, indexed by Node.ID. Each execution owns its
// Observation, so concurrent queries sharing a cached Plan never write
// to shared state.
type Observation struct {
	actual []int64
	// attempts holds per-node execution attempt counts, allocated only
	// when a fault-injected run records one — fault-free executions never
	// touch it.
	attempts []int32
}

// NewObservation returns an empty observation for the plan: every node
// is marked not-executed (-1).
func NewObservation(p *Plan) *Observation {
	o := &Observation{actual: make([]int64, p.NumNodes())}
	for i := range o.actual {
		o.actual[i] = -1
	}
	return o
}

// Record stores a node's observed output cardinality.
func (o *Observation) Record(n *Node, rows int64) {
	if o != nil && n.ID >= 0 && n.ID < len(o.actual) {
		o.actual[n.ID] = rows
	}
}

// Actual returns a node's observed cardinality, or -1 when the node did
// not execute under this observation.
func (o *Observation) Actual(n *Node) int64 {
	if o == nil || n.ID < 0 || n.ID >= len(o.actual) {
		return -1
	}
	return o.actual[n.ID]
}

// EnableAttempts allocates the per-node attempt slots. The
// fault-injected executor calls it once before concurrent tasks record;
// fault-free executions skip it and pay nothing.
func (o *Observation) EnableAttempts() {
	if o.attempts == nil {
		o.attempts = make([]int32, len(o.actual))
	}
}

// RecordAttempts stores a node's execution attempt count. A no-op
// unless EnableAttempts was called first.
func (o *Observation) RecordAttempts(n *Node, attempts int) {
	if o != nil && o.attempts != nil && n.ID >= 0 && n.ID < len(o.attempts) {
		o.attempts[n.ID] = int32(attempts)
	}
}

// AttemptsOf returns a node's recorded attempt count, or 0 when the
// execution never recorded one (fault-free runs record none).
func (o *Observation) AttemptsOf(n *Node) int {
	if o == nil || o.attempts == nil || n.ID < 0 || n.ID >= len(o.attempts) {
		return 0
	}
	return int(o.attempts[n.ID])
}

// Stamp returns a copy of the plan with the observation's actual
// cardinalities filled into the nodes — the per-execution view EXPLAIN
// renders. The receiver is not modified; nodes the observation never
// saw stay at -1 in the copy.
func (p *Plan) Stamp(o *Observation) *Plan {
	out := *p
	var clone func(n *Node) *Node
	clone = func(n *Node) *Node {
		c := *n
		c.Actual = o.Actual(n)
		c.Attempts = o.AttemptsOf(n)
		if len(n.Children) > 0 {
			c.Children = make([]*Node, len(n.Children))
			for i, ch := range n.Children {
				c.Children[i] = clone(ch)
			}
		}
		return &c
	}
	out.Root = clone(p.Root)
	return &out
}

// Scans returns the plan's Scan nodes in execution (left-deep) order.
func (p *Plan) Scans() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.Op == OpScan {
			out = append(out, n)
		}
	}
	walk(p.Root)
	return out
}

// String renders the plan as an indented operator tree with estimated
// and (when executed) actual cardinalities per node.
func (p *Plan) String() string {
	var sb strings.Builder
	shape := ""
	if p.Bushy {
		shape = ", bushy"
	}
	fmt.Fprintf(&sb, "Physical plan (%s planner%s):\n", p.Mode, shape)
	p.render(&sb, p.Root, "")
	return sb.String()
}

func (p *Plan) render(sb *strings.Builder, n *Node, indent string) {
	desc := n.Op.String()
	switch n.Op {
	case OpScan:
		desc = fmt.Sprintf("Scan %s", n.Label)
		if len(n.Filters) > 0 {
			desc += " [" + p.filterList(n.Filters) + "]"
		}
	case OpFilter:
		desc = "Filter [" + p.filterList(n.Filters) + "]"
	case OpJoin:
		desc = fmt.Sprintf("Join[%s] on %s", n.Method, varList(n.JoinVars))
		if n.Keep != nil {
			desc += " keep " + varList(n.Keep)
		}
	case OpProject:
		desc = "Project " + varList(n.Cols)
	case OpDistinct:
		desc = "Distinct"
	case OpLeftJoin:
		desc = fmt.Sprintf("LeftJoin on %s", varList(n.JoinVars))
	case OpUnion:
		desc = fmt.Sprintf("Union (%d branches)", len(n.Children))
	case OpTopK:
		keys := make([]string, 0, len(n.Sort))
		for _, k := range n.Sort {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys = append(keys, fmt.Sprintf("%s(?%s)", dir, k.Col))
		}
		order := strings.Join(keys, ",")
		if order == "" {
			order = "id-order"
		}
		desc = "TopK " + order
		if n.Limit >= 0 {
			desc += fmt.Sprintf(" limit=%d", n.Limit)
		}
		if n.Offset > 0 {
			desc += fmt.Sprintf(" offset=%d", n.Offset)
		}
	case OpAggregate:
		desc = "Aggregate group by " + varList(n.GroupCols)
		for _, v := range n.CountVars {
			if v == "" {
				desc += " count(*)"
			} else {
				desc += " count(?" + v + ")"
			}
		}
	}
	actual := "actual=?"
	if n.Actual >= 0 {
		actual = fmt.Sprintf("actual=%d", n.Actual)
	}
	if n.EstSource != "" {
		actual += " est-source=" + n.EstSource
	}
	if n.Attempts > 1 {
		actual += fmt.Sprintf(" attempts=%d", n.Attempts)
	}
	if n.HasNetBytes {
		actual += fmt.Sprintf(" net=%s priced / %s measured",
			humanBytes(n.PricedNetBytes), humanBytes(n.MeasuredNetBytes))
	}
	fmt.Fprintf(sb, "%s%-52s est=%-10.4g %s\n", indent, desc, n.Est, actual)
	child := indent + "  "
	for _, c := range n.Children {
		p.render(sb, c, child)
	}
}

// filterList renders the filter labels at the given indexes.
func (p *Plan) filterList(idx []int) string {
	parts := make([]string, 0, len(idx))
	for _, i := range idx {
		if i >= 0 && i < len(p.FilterLabels) {
			parts = append(parts, p.FilterLabels[i])
		} else {
			parts = append(parts, fmt.Sprintf("filter#%d", i))
		}
	}
	return strings.Join(parts, " && ")
}

// humanBytes renders a byte count with a binary-unit suffix, compact
// enough for the single EXPLAIN annotation line.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// varList renders variable names with SPARQL question marks.
func varList(vars []string) string {
	if len(vars) == 0 {
		return "()"
	}
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = "?" + v
	}
	return strings.Join(parts, ",")
}

// MaxErrorRatio returns the worst per-node estimation error of an
// executed plan — max over nodes of max(est,1)/max(actual,1) or its
// inverse, whichever exceeds 1 — plus the node it occurs at. Nodes
// that never executed (Actual still -1: a freshly built or cached
// plan, or operators skipped when execution aborted early) are
// excluded, so a partially executed plan never reports the bogus
// infinite/zero ratios a missing actual would imply. Plans with no
// executed nodes return (1, nil).
func (p *Plan) MaxErrorRatio() (float64, *Node) {
	return p.worstError(func(n *Node) bool { return n.Actual >= 0 })
}

// worstError returns the largest estimation-error factor —
// max(est,1)/max(actual,1) or its inverse, whichever exceeds 1 — among
// the executed nodes counts accepts, in preorder (the first node wins a
// tie), and that node; 1 and nil when it accepts none.
func (p *Plan) worstError(counts func(*Node) bool) (worst float64, at *Node) {
	worst = 1
	var walk func(n *Node)
	walk = func(n *Node) {
		if counts(n) {
			r := math.Max(n.Est, 1) / math.Max(float64(n.Actual), 1)
			if r < 1 {
				r = 1 / r
			}
			if at == nil || r > worst {
				worst, at = r, n
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return worst, at
}

// ErrorSummary renders MaxErrorRatio as the one-line EXPLAIN footer.
func (p *Plan) ErrorSummary() string {
	ratio, at := p.MaxErrorRatio()
	if at == nil {
		return "estimation error: plan not executed"
	}
	desc := at.Op.String()
	if at.Label != "" {
		desc += " " + at.Label
	}
	return fmt.Sprintf("estimation error: max ratio %.2fx (est=%.4g actual=%d at %s)",
		ratio, at.Est, at.Actual, desc)
}
