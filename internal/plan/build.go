package plan

import (
	"math"
	"time"

	"repro/internal/cluster"
)

// Leaf describes one translated Join Tree node as the planner sees it:
// its output schema (in the exact order the scan will produce), its
// statistics-estimated cardinality and per-variable distinct counts,
// and the partitioning its scan output will carry.
type Leaf struct {
	// Label is the Join Tree node's display name.
	Label string
	// Vars is the scan's output schema, in engine column order.
	Vars []string
	// Est is the estimated scan output cardinality before filters.
	Est float64
	// Dist estimates the distinct-value count per output variable.
	Dist map[string]float64
	// PartCols is the partitioning the scan output will be hashed on
	// (nil when arbitrary).
	PartCols []string
	// Anchor grades the leaf's constant constraints (2 = bound literal,
	// 1 = bound IRI object, 0 = none). Constant-anchored patterns are
	// more selective than the independence assumption credits (the
	// observation behind the paper's §3.3 priority boosts), so the
	// cost-based start prefers them within a bounded estimate window.
	Anchor int
	// Pats lists the leaf's triple patterns (predicate plus the
	// variables at each position), so sketch-based join estimation can
	// resolve the predicate pair behind a shared variable. Empty for
	// leaves without bound predicates.
	Pats []PatRef
	// EstSource records what produced Est (EstCSet for characteristic-
	// set-priced stars, EstSketch for pair-sketch-priced groups, EstIndep
	// otherwise; "" defaults to EstIndep).
	EstSource string
	// Reducible marks a single-pattern VP scan the workload rewrite
	// pre-pass may redirect to a materialized semi-join reduction.
	Reducible bool
	// ExtVP, when non-nil, is the reduction this leaf was rewritten to
	// scan (set by the pre-pass, never by the translator).
	ExtVP *ExtVPRef
}

// FilterSpec is one FILTER constraint as the planner sees it.
type FilterSpec struct {
	// Var is the constrained variable.
	Var string
	// Selectivity estimates the fraction of rows the predicate keeps.
	Selectivity float64
	// Label renders the constraint in EXPLAIN output.
	Label string
}

// Costs carries the cluster facts physical selection prices with.
type Costs struct {
	// Workers is the simulated worker count.
	Workers int
	// BroadcastThreshold enables broadcast-join candidates when
	// positive and disables them entirely when <= 0. Unlike the
	// engine's runtime rule it is NOT a hard build-side cap: the
	// pricing replaces the size threshold, so a build side above it
	// still broadcasts when shipping it prices clearly cheaper than
	// shuffling both inputs.
	BroadcastThreshold int64
	// BytesPerValue is the wire footprint of one encoded value.
	BytesPerValue int64
	// Model prices shuffle and broadcast exchanges.
	Model cluster.CostModel
	// JoinStats provides two-predicate join sketches for correlated-join
	// estimation (nil falls back to the independence assumption
	// everywhere). *stats.Collection implements it.
	JoinStats JoinStatsProvider
	// ExtVP resolves workload-materialized semi-join reductions for the
	// scan rewrite pre-pass (nil disables rewriting).
	ExtVP ExtVPProvider
}

// Build assembles a physical plan from the translated leaves.
//
// In ModeCost and ModeCostLeftDeep the leaves are reordered by greedy
// cost-based enumeration; in ModeHeuristic and ModeNaive the given
// order (the §3.3 priority order, or the query's written order) is
// kept. ModeCost additionally enumerates a bushy shape (greedy
// operator ordering over connected components, so independent subtrees
// — snowflake arms, multi-star branches — become sibling subplans
// joined at the top) and keeps it when its estimated critical path
// (max of parallel branches plus the joining spine, not the sum of all
// stages) beats the left-deep chain's. Filters are pushed into exactly
// one scan exposing their variable. Join methods are priced per join
// in the cost modes and left to the engine's runtime rule otherwise.
//
// obs, when non-nil, holds what earlier executions of the same query
// counted: every scan, chain, DP and GOO state whose key it holds is
// priced at the observation instead of its estimate (see Observed).
func Build(leaves []Leaf, filters []FilterSpec, projection []string, distinct bool, mode Mode, c Costs, obs Observed) *Plan {
	if len(leaves) == 0 {
		return nil
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.BytesPerValue <= 0 {
		c.BytesPerValue = 5
	}

	// Workload rewrite pre-pass: redirect eligible scans to materialized
	// semi-join reductions before ordering, so join enumeration prices
	// the reduced cardinalities.
	leaves, rewrites := rewriteLeaves(leaves, c)

	p := &Plan{Mode: mode, Leaves: leaves, Rewrites: rewrites}
	for _, f := range filters {
		p.FilterLabels = append(p.FilterLabels, f.Label)
	}

	// ModeCostLeftDeep is ModeCost's chain construction without the
	// bushy candidate; internal passes treat the two identically.
	effMode := mode
	if mode == ModeCostLeftDeep {
		effMode = ModeCost
	}

	order := make([]int, len(leaves))
	for i := range order {
		order[i] = i
	}
	if effMode == ModeCost {
		order = costOrder(leaves, filters, c, obs)
	}

	// Pass 1: push each filter into the earliest scan (in the final
	// order) exposing its variable, so it runs exactly once, during
	// that scan.
	pushed, residual := pushFilters(leaves, filters, order)

	// Pass 2: build the left-deep operator tree in the chosen order,
	// carrying estimated cardinality, per-variable distinct counts and
	// the predicted partitioning through every join.
	cur := buildChain(leaves, filters, order, pushed, projection, effMode, c, obs)

	// Pass 3 (ModeCost only): enumerate bushy candidates and keep the
	// best one when its priced critical path is strictly shorter than
	// the chain's — a tie keeps the chain, whose runtime behaviour is
	// better understood. Three candidate generators cover different
	// regimes:
	//
	//   - optimal bracketing of the chain order (an O(n³) DP over
	//     contiguous segments): keeps the cost-based join order and
	//     finds the parallel-arm split even when accurate sketch
	//     estimates make every join output small and the fixed
	//     per-exchange launches dominate the real cost;
	//   - GOO merging by smallest estimated join output (ties by priced
	//     time): the classic heuristic, effective when estimates are
	//     coarse and intermediate sizes dominate;
	//   - GOO merging by shortest merged critical path (ties by
	//     estimate): a shape-first variant that can escape the chain
	//     order entirely.
	if mode == ModeCost && len(leaves) > 2 {
		if dpCand := bushySequenceDP(leaves, filters, order, pushed, projection, c, obs); dpCand.crit < cur.crit {
			cur = dpCand // chain-order filters and residual still apply
			p.Bushy = true
		}
		bPushed, bResidual := pushFiltersBushy(leaves, filters)
		for _, byCrit := range []bool{false, true} {
			if bushy := buildBushy(leaves, filters, bPushed, projection, c, byCrit, obs); bushy.crit < cur.crit {
				cur = bushy
				residual = bResidual
				p.Bushy = true
			}
		}
	}
	p.EstCritPath = cur.crit

	p.Root = epilogue(cur, residual, filters, projection, distinct)
	p.assignIDs()
	return p
}

// pushFilters assigns each filter to the earliest leaf in execution
// order that exposes its variable. Filters no leaf exposes are returned
// as residual (defensive: validated queries cannot produce them).
func pushFilters(leaves []Leaf, filters []FilterSpec, order []int) (pushed [][]int, residual []int) {
	pushed = make([][]int, len(leaves))
	for fi, f := range filters {
		assigned := false
		for _, li := range order {
			if containsVar(leaves[li].Vars, f.Var) {
				pushed[li] = append(pushed[li], fi)
				assigned = true
				break
			}
		}
		if !assigned {
			residual = append(residual, fi)
		}
	}
	return pushed, residual
}

// pushFiltersBushy assigns each filter to the smallest exposing leaf —
// a bushy tree has no global execution order, so the most selective
// placement (cheapest scan shrinks further) stands in for "earliest".
func pushFiltersBushy(leaves []Leaf, filters []FilterSpec) (pushed [][]int, residual []int) {
	pushed = make([][]int, len(leaves))
	for fi, f := range filters {
		best := -1
		for li, l := range leaves {
			if !containsVar(l.Vars, f.Var) {
				continue
			}
			if best < 0 || l.Est < leaves[best].Est {
				best = li
			}
		}
		if best < 0 {
			residual = append(residual, fi)
			continue
		}
		pushed[best] = append(pushed[best], fi)
	}
	return pushed, residual
}

// buildChain constructs the left-deep join chain over the given order.
func buildChain(leaves []Leaf, filters []FilterSpec, order []int, pushed [][]int, projection []string, effMode Mode, c Costs, obs Observed) state {
	cur := scanState(leaves[order[0]], order[0], pushed[order[0]], filters, c, obs)
	for pos, li := range order[1:] {
		next := scanState(leaves[li], li, pushed[li], filters, c, obs)
		var retain map[string]bool
		if effMode == ModeCost {
			retain = retainSet(projection, leaves, order[pos+2:])
		}
		cur = joinStates(cur, next, effMode, c, retain)
	}
	return cur
}

// buildBushy is greedy operator ordering (GOO) over connected
// components: every leaf starts as its own component, and the best
// pair of connected components (bestGOOPair, selected by byCrit)
// merges until one component remains. Independent subtrees grow as siblings and meet at the top
// instead of being threaded through one chain, and each component's
// crit field prices the critical path of its subtree.
func buildBushy(leaves []Leaf, filters []FilterSpec, pushed [][]int, projection []string, c Costs, byCrit bool, obs Observed) state {
	comps := make([]state, len(leaves))
	leafSets := make([][]int, len(leaves))
	for i, l := range leaves {
		comps[i] = scanState(l, i, pushed[i], filters, c, obs)
		leafSets[i] = []int{i}
	}

	for len(comps) > 1 {
		bi, bj := bestGOOPair(comps, c, byCrit)

		retain := make(map[string]bool, len(projection))
		for _, v := range projection {
			retain[v] = true
		}
		for k := range comps {
			if k == bi || k == bj {
				continue
			}
			for _, li := range leafSets[k] {
				for _, v := range leaves[li].Vars {
					retain[v] = true
				}
			}
		}

		merged := joinStates(comps[bi], comps[bj], ModeCost, c, retain)
		comps[bi] = merged
		leafSets[bi] = append(leafSets[bi], leafSets[bj]...)
		comps = append(comps[:bj], comps[bj+1:]...)
		leafSets = append(leafSets[:bj], leafSets[bj+1:]...)
	}
	return comps[0]
}

// epilogue appends residual filters, the projection and DISTINCT on top
// of the finished join tree — the execution epilogue shared by every
// plan shape.
func epilogue(cur state, residual []int, filters []FilterSpec, projection []string, distinct bool) *Node {
	root := cur.node
	if len(residual) > 0 {
		sel := 1.0
		for _, fi := range residual {
			sel *= filters[fi].Selectivity
		}
		root = &Node{
			Op:       OpFilter,
			Vars:     cur.vars,
			Est:      cur.est * sel,
			Actual:   -1,
			Children: []*Node{root},
			Filters:  residual,
		}
		cur.est = root.Est
	}

	root = &Node{
		Op:       OpProject,
		Vars:     append([]string(nil), projection...),
		Cols:     append([]string(nil), projection...),
		Est:      cur.est,
		Actual:   -1,
		Children: []*Node{root},
	}
	if distinct {
		est := distinctEstimate(cur, projection)
		root = &Node{
			Op:       OpDistinct,
			Vars:     append([]string(nil), projection...),
			Est:      est,
			Actual:   -1,
			Children: []*Node{root},
		}
	}
	return root
}

// state tracks one subplan during construction: its root node, running
// estimates, predicted layout, and the priced critical path of its
// subtree.
type state struct {
	node     *Node
	vars     []string
	est      float64
	dist     map[string]float64
	partCols []string
	// pats accumulates the triple patterns of every leaf under the
	// subplan, so sketch lookups can resolve predicate pairs for any
	// later join variable.
	pats []PatRef
	// crit is the subtree's priced completion time under parallel
	// execution: own priced time plus max over the children's crit.
	crit time.Duration
	// obs is Build's observations, consulted by every estimate made for
	// the subplan or a join of it.
	obs Observed
}

// scanState builds the Scan node for one leaf with its pushed filters
// applied to the estimate, or at its observation.
func scanState(l Leaf, idx int, pushedFilters []int, filters []FilterSpec, c Costs, obs Observed) state {
	est := l.Est
	dist := make(map[string]float64, len(l.Dist))
	for v, d := range l.Dist {
		dist[v] = d
	}
	for _, fi := range pushedFilters {
		f := filters[fi]
		est *= f.Selectivity
		if d, ok := dist[f.Var]; ok {
			dist[f.Var] = math.Max(d*f.Selectivity, 1)
		}
	}
	src := l.EstSource
	if src == "" {
		src = EstIndep
	}
	n := &Node{
		Op:      OpScan,
		Label:   l.Label,
		Vars:    append([]string(nil), l.Vars...),
		Actual:  -1,
		Leaf:    idx,
		Filters: pushedFilters,
		ExtVP:   l.ExtVP,
	}
	est, n.EstSource = obs.seed(est, src, n)
	n.Est = est
	capDist(dist, est)
	s := state{
		node:     n,
		vars:     n.Vars,
		est:      est,
		dist:     dist,
		partCols: append([]string(nil), l.PartCols...),
		pats:     l.Pats,
		obs:      obs,
	}
	// Scans pipeline (no stage launch); their priced time is the raw
	// read before filtering plus per-row work, spread over the workers.
	// The pre-filter leaf size prices the read: filters drop rows after
	// they stream off disk.
	s.crit = c.Model.TaskTime(cluster.TaskStats{
		DiskBytes: estBytesFor(l.Est, len(l.Vars), c) / int64(c.Workers),
		Rows:      estRows(l.Est) / int64(c.Workers),
	})
	return s
}

// joinStates attaches right to left, estimating the join output,
// selecting the physical method, and extending the priced critical
// path (max of the two inputs plus this join's own priced time). A
// non-nil retain set enables fused column pruning: output variables
// absent from it (no later operator reads them) are dropped inside the
// join, shrinking every downstream exchange.
func joinStates(left, right state, mode Mode, c Costs, retain map[string]bool) state {
	shared := sharedVars(left.vars, right.vars)
	outVars := joinVars(left.vars, right.vars, shared)

	var est float64
	var ownTime time.Duration
	method := MethodAuto
	var partCols []string
	src := EstIndep
	var joinKeys map[string]float64
	if len(shared) == 0 {
		est, src = left.obs.seed(left.est*right.est, src, left.node, right.node)
		method = MethodCartesian
		ownTime = c.Model.ShuffleJoinTime(
			estBytes(left, c)+estBytes(right, c),
			estRows(left.est)+estRows(right.est)+estRows(est), c.Workers)
	} else {
		est, src, joinKeys = joinEstimate(left, right, shared, c)
		if mode == ModeCost {
			method, partCols, ownTime = selectMethod(left, right, shared, est, c)
		} else {
			// The engine's runtime rule decides; predict its layout as a
			// shuffle output so downstream co-partition detection stays
			// conservative but usable, and price the cheaper alternative.
			partCols = append([]string(nil), shared...)
			ownTime = joinTime(left, right, shared, est, c)
		}
	}

	var keep []string
	if retain != nil {
		pruned := make([]string, 0, len(outVars))
		for _, v := range outVars {
			if retain[v] {
				pruned = append(pruned, v)
			}
		}
		if len(pruned) < len(outVars) {
			keep = pruned
			outVars = pruned
			partCols = survivingPartCols(partCols, outVars)
		}
	}

	dist := mergeDist(left, right, outVars, est)
	capDistKeys(dist, joinKeys)

	n := &Node{
		Op:        OpJoin,
		Label:     varList(shared),
		Vars:      outVars,
		Est:       est,
		Actual:    -1,
		Children:  []*Node{left.node, right.node},
		Method:    method,
		JoinVars:  shared,
		Keep:      keep,
		EstSource: src,
	}
	crit := left.crit
	if right.crit > crit {
		crit = right.crit
	}
	pats := make([]PatRef, 0, len(left.pats)+len(right.pats))
	pats = append(append(pats, left.pats...), right.pats...)
	return state{node: n, vars: outVars, est: est, dist: dist, partCols: partCols, pats: pats, crit: crit + ownTime, obs: left.obs}
}

// mergeDist min-merges the per-variable distinct counts of two join
// inputs over the output schema, capped to the output estimate.
func mergeDist(left, right state, outVars []string, est float64) map[string]float64 {
	dist := make(map[string]float64, len(outVars))
	for _, v := range outVars {
		dl, okL := left.dist[v]
		dr, okR := right.dist[v]
		switch {
		case okL && okR:
			if dl < dr {
				dist[v] = dl
			} else {
				dist[v] = dr
			}
		case okL:
			dist[v] = dl
		case okR:
			dist[v] = dr
		}
	}
	capDist(dist, est)
	return dist
}

// retainSet is the set of variables later operators still need: the
// projection plus every variable of the leaves not yet joined.
func retainSet(projection []string, leaves []Leaf, future []int) map[string]bool {
	retain := make(map[string]bool, len(projection))
	for _, v := range projection {
		retain[v] = true
	}
	for _, li := range future {
		for _, v := range leaves[li].Vars {
			retain[v] = true
		}
	}
	return retain
}

// survivingPartCols keeps the predicted partitioning only when pruning
// retains every partition column.
func survivingPartCols(partCols, vars []string) []string {
	for _, c := range partCols {
		if !containsVar(vars, c) {
			return nil
		}
	}
	return partCols
}

// selectMethod prices the candidate physical joins on estimated input
// sizes and returns the cheapest, plus the output partitioning and the
// priced time it contributes to the critical path.
func selectMethod(left, right state, shared []string, outEst float64, c Costs) (JoinMethod, []string, time.Duration) {
	shufMethod := MethodShuffle
	if colsEqual(left.partCols, shared) && colsEqual(right.partCols, shared) {
		shufMethod = MethodCoPartitioned
	}
	partCols, chosen := methodTime(left, right, shared, outEst, shufMethod, c)
	method := shufMethod

	// A broadcast is considered whenever broadcasting is enabled at
	// all: the pricing itself replaces the global size threshold, so a
	// build side above the threshold still broadcasts when shipping it
	// is cheaper than shuffling both inputs. Forcing a broadcast on a
	// marginal price difference is not worth the estimate risk (the
	// shuffle path keeps the runtime's adaptive selection), so the
	// broadcast must win by a clear margin.
	if c.BroadcastThreshold > 0 {
		if bPart, bt := methodTime(left, right, shared, outEst, MethodBroadcast, c); bt < chosen*9/10 {
			method, partCols, chosen = MethodBroadcast, bPart, bt
		}
	}
	return method, partCols, chosen
}

// methodTime prices one join executed with a specific physical method
// on the candidate inputs, returning the predicted output partitioning
// and the priced time. It is the single pricing implementation behind
// selectMethod and the ordering passes, so they cannot drift apart.
func methodTime(left, right state, shared []string, outEst float64, method JoinMethod, c Costs) ([]string, time.Duration) {
	lBytes := estBytes(left, c)
	rBytes := estBytes(right, c)
	switch method {
	case MethodCartesian:
		return nil, c.Model.ShuffleJoinTime(
			lBytes+rBytes,
			estRows(left.est)+estRows(right.est)+estRows(outEst), c.Workers)
	case MethodBroadcast:
		buildBytes, probe := rBytes, left
		if lBytes < rBytes {
			buildBytes, probe = lBytes, right
		}
		bRows := estRows(probe.est) + estRows(outEst)
		return append([]string(nil), probe.partCols...),
			c.Model.BroadcastJoinTime(buildBytes, bRows, c.Workers)
	default: // MethodShuffle, MethodCoPartitioned, MethodAuto
		rows := estRows(left.est) + estRows(right.est) + estRows(outEst)
		var moved int64
		if !colsEqual(left.partCols, shared) {
			moved += lBytes
		}
		if !colsEqual(right.partCols, shared) {
			moved += rBytes
		}
		return append([]string(nil), shared...),
			c.Model.ShuffleJoinTime(moved, rows, c.Workers)
	}
}

// costOrder produces the cost-based greedy join order: start from the
// smallest filter-adjusted leaf, then repeatedly attach the connected
// leaf whose estimated join output is smallest, breaking ties by the
// priced join time (which prefers joins that avoid shuffles and cheap
// broadcasts). Cardinality propagation follows the same arithmetic as
// the §3.3 heuristic — per-variable distinct counts min-merged from
// the raw leaf statistics, with the independence-assumption
// denominator — so the enumeration differs from the heuristic in its
// start (filter-adjusted size instead of constant boosts) and its
// tie-breaking (priced time), never in the estimate formula.
// Disconnected leaves fall back to the smallest remaining (cartesian
// product either way).
func costOrder(leaves []Leaf, filters []FilterSpec, c Costs, obs Observed) []int {
	states := make([]state, len(leaves))
	for i, l := range leaves {
		var pushed []int
		for fi, f := range filters {
			if containsVar(l.Vars, f.Var) {
				pushed = append(pushed, fi)
			}
		}
		// For ordering purposes every exposing leaf is estimated as
		// filtered; the final single-site assignment happens after the
		// order is fixed.
		states[i] = scanState(l, i, pushed, filters, c, obs)
	}

	remaining := make([]int, len(leaves))
	for i := range remaining {
		remaining[i] = i
	}
	start := startLeaf(leaves, states, remaining)
	order := []int{remaining[start]}
	cur := states[remaining[start]]
	curSize := cur.est
	curDist := make(map[string]float64, len(cur.dist))
	for v, d := range cur.dist {
		curDist[v] = d
	}
	curPats := append([]PatRef(nil), cur.pats...)
	remaining = append(remaining[:start], remaining[start+1:]...)

	for len(remaining) > 0 {
		best := -1
		var bestTime time.Duration
		var bestEst float64
		// The running chain for estimation purposes: the heuristic's
		// min-merged distinct counts and propagated size, plus the
		// accumulated patterns sketch lookups resolve pairs from, and
		// the chain's node and observations an observed join is found by.
		running := state{node: cur.node, vars: cur.vars, est: curSize, dist: curDist, pats: curPats, obs: obs}
		for pos, li := range remaining {
			shared := sharedVars(cur.vars, states[li].vars)
			if len(shared) == 0 {
				continue
			}
			est, _, _ := joinEstimate(running, states[li], shared, c)
			t := joinTime(cur, states[li], shared, est, c)
			if best < 0 || est < bestEst || (est == bestEst && t < bestTime) {
				best, bestTime, bestEst = pos, t, est
			}
		}
		if best < 0 {
			// Disconnected BGP: take the smallest remaining leaf.
			best = 0
			for pos := 1; pos < len(remaining); pos++ {
				if states[remaining[pos]].est < states[remaining[best]].est {
					best = pos
				}
			}
			bestEst, _ = obs.seed(curSize*states[remaining[best]].est, "", cur.node, states[remaining[best]].node)
		}
		li := remaining[best]
		order = append(order, li)
		// Advance the running chain: the structural state (schema,
		// partitioning) comes from joinStates; the size and distinct
		// propagation follows the heuristic's arithmetic.
		cur = joinStates(cur, states[li], ModeCost, c, nil)
		if bestEst < 1 {
			bestEst = 1
		}
		curSize = bestEst
		cur.est = bestEst
		for v, d := range states[li].dist {
			if prev, ok := curDist[v]; !ok || d < prev {
				curDist[v] = d
			}
		}
		curPats = append(curPats, states[li].pats...)
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return order
}

// startLeaf picks the chain's first leaf: the smallest filter-adjusted
// estimate, except that a constant-anchored leaf (bound literal, then
// bound IRI) within twice the minimum estimate wins — constants are
// more selective than independence-based estimates credit, which is
// exactly why §3.3 boosts them.
func startLeaf(leaves []Leaf, states []state, remaining []int) int {
	minEst := states[remaining[0]].est
	for _, li := range remaining[1:] {
		if states[li].est < minEst {
			minEst = states[li].est
		}
	}
	best := -1
	bestAnchor := -1
	for pos, li := range remaining {
		if states[li].est > 2*minEst && states[li].est > minEst+1 {
			continue
		}
		a := leaves[li].Anchor
		if best < 0 || a > bestAnchor || (a == bestAnchor && states[li].est < states[remaining[best]].est) {
			best, bestAnchor = pos, a
		}
	}
	return best
}

// joinTime prices one candidate join: the time of the physical method
// selectMethod would choose. Ordering decisions and critical-path
// pricing therefore always use the single pricing implementation in
// selectMethod (including its clear-margin broadcast rule), so they
// can never drift from what execution will actually run.
func joinTime(left, right state, shared []string, outEst float64, c Costs) time.Duration {
	_, _, t := selectMethod(left, right, shared, outEst, c)
	return t
}

// distinctEstimate bounds a Distinct's output by the product of the
// projected columns' distinct counts, capped at the input estimate.
func distinctEstimate(in state, projection []string) float64 {
	prod := 1.0
	for _, v := range projection {
		d, ok := in.dist[v]
		if !ok || d < 1 {
			d = 1
		}
		prod *= d
		if prod >= in.est {
			return in.est
		}
	}
	return math.Min(prod, in.est)
}

// estBytes is a state's estimated wire footprint, clamped so that
// astronomically large estimates (cartesian chains) stay finite
// positive numbers instead of overflowing int64.
func estBytes(s state, c Costs) int64 {
	return estBytesFor(s.est, len(s.vars), c)
}

// estBytesFor sizes est rows of the given width in bytes, clamped to a
// finite positive range.
func estBytesFor(est float64, width int, c Costs) int64 {
	if width == 0 {
		width = 1
	}
	b := est * float64(width) * float64(c.BytesPerValue)
	if b < 0 {
		return 0
	}
	if b > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(b)
}

// estRows converts a cardinality estimate to a row count for pricing.
func estRows(est float64) int64 {
	if est < 0 {
		return 0
	}
	if est > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(est)
}

// capDist clamps distinct estimates to the row estimate: no variable
// can have more distinct values than the relation has rows.
func capDist(dist map[string]float64, est float64) {
	for v, d := range dist {
		if d > est {
			dist[v] = est
		}
		if dist[v] < 1 {
			dist[v] = 1
		}
	}
}

// sharedVars returns the variables present in both schemas, in a's
// order — the order the engine's shuffle hashes.
func sharedVars(a, b []string) []string {
	var out []string
	for _, v := range a {
		if containsVar(b, v) {
			out = append(out, v)
		}
	}
	return out
}

// joinVars is a's schema followed by b's non-shared columns — the
// engine's join output schema.
func joinVars(a, b, shared []string) []string {
	out := append([]string(nil), a...)
	for _, v := range b {
		if !containsVar(shared, v) {
			out = append(out, v)
		}
	}
	return out
}

// colsEqual reports whether two column sequences are identical.
func colsEqual(a, b []string) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// containsVar reports whether vars contains v.
func containsVar(vars []string, v string) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// bestGOOPair picks one GOO round's merge pair over the components.
// With byCrit false the best connected pair has the
// smallest estimated join output (ties by priced time, then input
// order); with byCrit true it has the shortest merged critical path
// (ties by estimate). A fully disconnected component set falls back to
// the two smallest components (cartesian product either way).
func bestGOOPair(comps []state, c Costs, byCrit bool) (bi, bj int) {
	bi, bj = -1, -1
	var bestEst float64
	var bestTime time.Duration
	var bestCrit time.Duration
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			shared := sharedVars(comps[i].vars, comps[j].vars)
			if len(shared) == 0 {
				continue
			}
			est, _, _ := joinEstimate(comps[i], comps[j], shared, c)
			t := joinTime(comps[i], comps[j], shared, est, c)
			crit := comps[i].crit
			if comps[j].crit > crit {
				crit = comps[j].crit
			}
			crit += t
			var better bool
			if byCrit {
				better = bi < 0 || crit < bestCrit || (crit == bestCrit && est < bestEst)
			} else {
				better = bi < 0 || est < bestEst || (est == bestEst && t < bestTime)
			}
			if better {
				bi, bj, bestEst, bestTime, bestCrit = i, j, est, t, crit
			}
		}
	}
	if bi < 0 {
		// Disconnected: cartesian-join the two smallest components.
		bi, bj = 0, 1
		if comps[1].est < comps[0].est {
			bi, bj = 1, 0
		}
		for k := 2; k < len(comps); k++ {
			if comps[k].est < comps[bi].est {
				bi, bj = k, bi
			} else if comps[k].est < comps[bj].est {
				bj = k
			}
		}
		if bi > bj {
			bi, bj = bj, bi
		}
	}
	return bi, bj
}

// bushySequenceDP finds the cheapest-critical-path binary bracketing
// of the chain order: every subtree covers a contiguous segment of the
// ordered leaves, so the cost-based join order survives while
// independent suffix segments (a second star, a snowflake arm) can
// split off into parallel arms instead of extending the spine. dp[i][j]
// holds the best subplan for order[i..j]; the recurrence tries every
// split point, pricing each join with the same estimator and method
// selection as the chain (ties broken toward the smaller estimate).
func bushySequenceDP(leaves []Leaf, filters []FilterSpec, order []int, pushed [][]int, projection []string, c Costs, obs Observed) state {
	n := len(order)
	dp := make([][]state, n)
	for i := range dp {
		dp[i] = make([]state, n)
		dp[i][i] = scanState(leaves[order[i]], order[i], pushed[order[i]], filters, c, obs)
	}
	// retain(i, j): the variables operators outside order[i..j] still
	// need — the projection plus every leaf not in the segment.
	retain := func(i, j int) map[string]bool {
		r := make(map[string]bool, len(projection))
		for _, v := range projection {
			r[v] = true
		}
		for pos, li := range order {
			if pos >= i && pos <= j {
				continue
			}
			for _, v := range leaves[li].Vars {
				r[v] = true
			}
		}
		return r
	}
	for span := 2; span <= n; span++ {
		for i := 0; i+span-1 < n; i++ {
			j := i + span - 1
			r := retain(i, j)
			best := state{}
			bestSet := false
			for k := i; k < j; k++ {
				cand := joinStates(dp[i][k], dp[k+1][j], ModeCost, c, r)
				if !bestSet || cand.crit < best.crit || (cand.crit == best.crit && cand.est < best.est) {
					best, bestSet = cand, true
				}
			}
			dp[i][j] = best
		}
	}
	return dp[0][n-1]
}
