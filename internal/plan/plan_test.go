package plan

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

func testCosts() Costs {
	return Costs{
		Workers:            4,
		BroadcastThreshold: 10 << 20,
		BytesPerValue:      5,
		Model:              cluster.DefaultCostModel(),
	}
}

// chainLeaves builds A(x,y) — B(y,z) — C(z): a linear join graph with
// descending sizes toward C.
func chainLeaves() []Leaf {
	return []Leaf{
		{Label: "A", Vars: []string{"x", "y"}, Est: 1000, Dist: map[string]float64{"x": 1000, "y": 100}, PartCols: []string{"x"}},
		{Label: "B", Vars: []string{"y", "z"}, Est: 100, Dist: map[string]float64{"y": 100, "z": 50}, PartCols: []string{"y"}},
		{Label: "C", Vars: []string{"z"}, Est: 10, Dist: map[string]float64{"z": 10}, PartCols: []string{"z"}},
	}
}

func scanLabels(p *Plan) []string {
	var out []string
	for _, sc := range p.Scans() {
		out = append(out, sc.Label)
	}
	return out
}

func TestCostOrderStartsAtSmallestLeaf(t *testing.T) {
	p := Build(chainLeaves(), nil, []string{"x"}, false, ModeCost, testCosts(), nil)
	got := scanLabels(p)
	want := []string{"C", "B", "A"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cost order = %v, want %v", got, want)
		}
	}
}

func TestHeuristicAndNaiveKeepGivenOrder(t *testing.T) {
	for _, mode := range []Mode{ModeHeuristic, ModeNaive} {
		p := Build(chainLeaves(), nil, []string{"x"}, false, mode, testCosts(), nil)
		got := scanLabels(p)
		want := []string{"A", "B", "C"}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v order = %v, want %v (input order)", mode, got, want)
			}
		}
	}
}

func TestFilterPushedOnceToEarliestExposingScan(t *testing.T) {
	filters := []FilterSpec{{Var: "y", Selectivity: 0.5, Label: "?y>5"}}
	p := Build(chainLeaves(), filters, []string{"x"}, false, ModeCost, testCosts(), nil)
	// Order is C,B,A; both B and A expose y, so the filter must sit on
	// B's scan — and only there.
	count := 0
	for _, sc := range p.Scans() {
		for range sc.Filters {
			count++
		}
		if len(sc.Filters) > 0 && sc.Label != "B" {
			t.Errorf("filter pushed to %s, want B", sc.Label)
		}
	}
	if count != 1 {
		t.Errorf("filter applied at %d scans, want exactly 1", count)
	}
	// The filtered scan's estimate reflects the selectivity.
	for _, sc := range p.Scans() {
		if sc.Label == "B" && sc.Est != 50 {
			t.Errorf("filtered scan est = %g, want 50", sc.Est)
		}
	}
}

func TestJoinEstimateIndependenceFormula(t *testing.T) {
	leaves := []Leaf{
		{Label: "A", Vars: []string{"x", "y"}, Est: 1000, Dist: map[string]float64{"x": 1000, "y": 100}},
		{Label: "B", Vars: []string{"y", "z"}, Est: 200, Dist: map[string]float64{"y": 50, "z": 200}},
	}
	p := Build(leaves, nil, []string{"x"}, false, ModeHeuristic, testCosts(), nil)
	join := p.Root.Children[0]
	if join.Op != OpJoin {
		t.Fatalf("expected join under project, got %v", join.Op)
	}
	// |A ⋈ B| = 1000·200 / max(100, 50) = 2000.
	if join.Est != 2000 {
		t.Errorf("join est = %g, want 2000", join.Est)
	}
	if len(join.JoinVars) != 1 || join.JoinVars[0] != "y" {
		t.Errorf("join vars = %v, want [y]", join.JoinVars)
	}
}

func TestPhysicalSelectionBroadcastForSmallBuildSide(t *testing.T) {
	leaves := []Leaf{
		{Label: "big", Vars: []string{"x", "y"}, Est: 5e6, Dist: map[string]float64{"x": 5e6, "y": 1000}},
		{Label: "small", Vars: []string{"y"}, Est: 10, Dist: map[string]float64{"y": 10}},
	}
	p := Build(leaves, nil, []string{"x"}, false, ModeCost, testCosts(), nil)
	join := p.Root.Children[0]
	if join.Method != MethodBroadcast {
		t.Errorf("method = %v, want broadcast (build side is tiny)", join.Method)
	}
}

func TestPhysicalSelectionCoPartitionedSkipsShuffle(t *testing.T) {
	// Both sides exceed the broadcast threshold and are already
	// partitioned on the join key.
	leaves := []Leaf{
		{Label: "L", Vars: []string{"s", "a"}, Est: 3e6, Dist: map[string]float64{"s": 1e6, "a": 3e6}, PartCols: []string{"s"}},
		{Label: "R", Vars: []string{"s", "b"}, Est: 3e6, Dist: map[string]float64{"s": 1e6, "b": 3e6}, PartCols: []string{"s"}},
	}
	p := Build(leaves, nil, []string{"a"}, false, ModeCost, testCosts(), nil)
	join := p.Root.Children[0]
	if join.Method != MethodCoPartitioned {
		t.Errorf("method = %v, want co-partitioned", join.Method)
	}
}

func TestPhysicalSelectionShuffleForLargeMisalignedSides(t *testing.T) {
	// With many workers a shuffle spreads its movement while a
	// broadcast ships the full build side to every worker, so two
	// large misaligned sides price cheaper as a shuffle.
	costs := testCosts()
	costs.Workers = 16
	leaves := []Leaf{
		{Label: "L", Vars: []string{"s", "a"}, Est: 3e6, Dist: map[string]float64{"s": 1e6, "a": 3e6}, PartCols: []string{"a"}},
		{Label: "R", Vars: []string{"s", "b"}, Est: 3e6, Dist: map[string]float64{"s": 1e6, "b": 3e6}, PartCols: []string{"b"}},
	}
	p := Build(leaves, nil, []string{"a"}, false, ModeCost, costs, nil)
	join := p.Root.Children[0]
	if join.Method != MethodShuffle {
		t.Errorf("method = %v, want shuffle (large misaligned sides, wide cluster)", join.Method)
	}
}

func TestPhysicalSelectionBroadcastAboveThresholdWhenPriced(t *testing.T) {
	// The build side exceeds the global threshold, but shipping it once
	// is still cheaper than shuffling the much larger probe side: the
	// pricing, not the threshold, decides.
	costs := testCosts()
	costs.BroadcastThreshold = 1 << 20
	leaves := []Leaf{
		{Label: "probe", Vars: []string{"y", "v"}, Est: 5e6, Dist: map[string]float64{"y": 1000, "v": 5e6}},
		{Label: "build", Vars: []string{"y"}, Est: 3e5, Dist: map[string]float64{"y": 3e5}},
	}
	if buildBytes := int64(3e5 * 1 * 5); buildBytes <= costs.BroadcastThreshold {
		t.Fatalf("fixture broken: build side %d under threshold %d", buildBytes, costs.BroadcastThreshold)
	}
	p := Build(leaves, nil, []string{"v"}, false, ModeCost, costs, nil)
	join := p.Root.Children[0]
	if join.Method != MethodBroadcast {
		t.Errorf("method = %v, want broadcast above threshold", join.Method)
	}
}

func TestCartesianForDisconnectedLeaves(t *testing.T) {
	leaves := []Leaf{
		{Label: "A", Vars: []string{"x"}, Est: 10, Dist: map[string]float64{"x": 10}},
		{Label: "B", Vars: []string{"y"}, Est: 20, Dist: map[string]float64{"y": 20}},
	}
	p := Build(leaves, nil, []string{"x", "y"}, false, ModeCost, testCosts(), nil)
	join := p.Root.Children[0]
	if join.Method != MethodCartesian {
		t.Errorf("method = %v, want cartesian", join.Method)
	}
	if join.Est != 200 {
		t.Errorf("cartesian est = %g, want 200", join.Est)
	}
}

func TestDistinctEstimateBoundedByProjectedDistincts(t *testing.T) {
	leaves := []Leaf{
		{Label: "A", Vars: []string{"x", "y"}, Est: 1000, Dist: map[string]float64{"x": 4, "y": 100}},
	}
	p := Build(leaves, nil, []string{"x"}, true, ModeCost, testCosts(), nil)
	if p.Root.Op != OpDistinct {
		t.Fatalf("root = %v, want Distinct", p.Root.Op)
	}
	if p.Root.Est != 4 {
		t.Errorf("distinct est = %g, want 4 (distinct x values)", p.Root.Est)
	}
}

func TestRenderingAndErrorSummary(t *testing.T) {
	filters := []FilterSpec{{Var: "y", Selectivity: 0.5, Label: "?y>5"}}
	p := Build(chainLeaves(), filters, []string{"x"}, true, ModeCost, testCosts(), nil)
	out := p.String()
	for _, want := range []string{"cost planner", "Scan C", "Join[", "Project ?x", "Distinct", "est=", "actual=?", "?y>5"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(p.ErrorSummary(), "not executed") {
		t.Errorf("unexecuted plan summary = %q", p.ErrorSummary())
	}

	// Simulate execution: fill actuals and check the worst ratio.
	var fill func(n *Node)
	fill = func(n *Node) {
		n.Actual = int64(n.Est) * 2
		for _, c := range n.Children {
			fill(c)
		}
	}
	fill(p.Root)
	ratio, at := p.MaxErrorRatio()
	if at == nil || ratio < 1.9 || ratio > 2.6 {
		t.Errorf("max error ratio = %g at %v, want ≈2x", ratio, at)
	}
	if !strings.Contains(p.ErrorSummary(), "max ratio") {
		t.Errorf("summary = %q", p.ErrorSummary())
	}
}

func TestEmptyLeavesReturnNilPlan(t *testing.T) {
	if p := Build(nil, nil, nil, false, ModeCost, testCosts(), nil); p != nil {
		t.Errorf("Build with no leaves returned %v", p)
	}
}

// snowflakeLeaves builds a hub H(a,b) with two independent two-leaf
// arms hanging off a and b — the shape where building the arms as
// sibling subtrees and joining them at the top shortens the critical
// path versus threading everything through one left-deep chain.
func snowflakeLeaves() []Leaf {
	return []Leaf{
		{Label: "H", Vars: []string{"a", "b"}, Est: 1e6, Dist: map[string]float64{"a": 5e4, "b": 5e4}, PartCols: []string{"a"}},
		{Label: "A1", Vars: []string{"a", "c"}, Est: 1e5, Dist: map[string]float64{"a": 5e4, "c": 500}, PartCols: []string{"a"}},
		{Label: "A2", Vars: []string{"c"}, Est: 10, Dist: map[string]float64{"c": 10}, PartCols: []string{"c"}},
		{Label: "B1", Vars: []string{"b", "d"}, Est: 1e5, Dist: map[string]float64{"b": 5e4, "d": 500}, PartCols: []string{"b"}},
		{Label: "B2", Vars: []string{"d"}, Est: 10, Dist: map[string]float64{"d": 10}, PartCols: []string{"d"}},
	}
}

// hasBushyJoin reports whether any join has a join on both sides —
// i.e. the tree is not a left-deep chain.
func hasBushyJoin(n *Node) bool {
	if n == nil {
		return false
	}
	if n.Op == OpJoin && n.Children[0].Op == OpJoin && n.Children[1].Op == OpJoin {
		return true
	}
	for _, c := range n.Children {
		if hasBushyJoin(c) {
			return true
		}
	}
	return false
}

// rightDeepJoin reports whether some join's right child is itself a
// join — impossible in a left-deep chain, where right inputs are
// always scans.
func rightDeepJoin(n *Node) bool {
	if n == nil {
		return false
	}
	if n.Op == OpJoin && n.Children[1].Op == OpJoin {
		return true
	}
	for _, c := range n.Children {
		if rightDeepJoin(c) {
			return true
		}
	}
	return false
}

func TestBushyPlanForSnowflake(t *testing.T) {
	bushy := Build(snowflakeLeaves(), nil, []string{"a"}, false, ModeCost, testCosts(), nil)
	if !bushy.Bushy {
		t.Fatalf("ModeCost did not choose a bushy shape:\n%s", bushy)
	}
	if !rightDeepJoin(bushy.Root) {
		t.Errorf("bushy plan has no sibling join subtree:\n%s", bushy)
	}
	ld := Build(snowflakeLeaves(), nil, []string{"a"}, false, ModeCostLeftDeep, testCosts(), nil)
	if ld.Bushy {
		t.Errorf("ModeCostLeftDeep produced a bushy plan")
	}
	if rightDeepJoin(ld.Root) {
		t.Errorf("left-deep plan has a join as a right input:\n%s", ld)
	}
	if bushy.EstCritPath >= ld.EstCritPath {
		t.Errorf("bushy critical path %v not shorter than left-deep %v", bushy.EstCritPath, ld.EstCritPath)
	}
	if !strings.Contains(bushy.String(), "bushy") {
		t.Errorf("bushy plan rendering does not say so:\n%s", bushy)
	}
}

func TestBushyNeverChosenWhenChainPricesEqual(t *testing.T) {
	// A pure chain has no independent subtrees: the bushy candidate
	// cannot beat the left-deep critical path, so the chain is kept.
	p := Build(chainLeaves(), nil, []string{"x"}, false, ModeCost, testCosts(), nil)
	if p.Bushy {
		t.Errorf("chain query chose a bushy plan:\n%s", p)
	}
}

func TestNodeIDsAreStablePreorder(t *testing.T) {
	p := Build(snowflakeLeaves(), nil, []string{"a"}, false, ModeCost, testCosts(), nil)
	seen := make(map[int]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.ID < 0 || n.ID >= p.NumNodes() {
			t.Errorf("node %s has out-of-range ID %d (NumNodes=%d)", n.Op, n.ID, p.NumNodes())
		}
		if seen[n.ID] {
			t.Errorf("duplicate node ID %d", n.ID)
		}
		seen[n.ID] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	if len(seen) != p.NumNodes() {
		t.Errorf("walked %d nodes, NumNodes=%d", len(seen), p.NumNodes())
	}
}

func TestObservationStampLeavesPlanUntouched(t *testing.T) {
	p := Build(chainLeaves(), nil, []string{"x"}, false, ModeCost, testCosts(), nil)
	obs := NewObservation(p)
	// Record actuals for the scans only: a partially executed query.
	for _, sc := range p.Scans() {
		obs.Record(sc, 7)
	}
	stamped := p.Stamp(obs)
	for _, sc := range stamped.Scans() {
		if sc.Actual != 7 {
			t.Errorf("stamped scan actual = %d, want 7", sc.Actual)
		}
	}
	if stamped.Root.Actual != -1 {
		t.Errorf("stamped root actual = %d, want -1 (never executed)", stamped.Root.Actual)
	}
	// The original plan (cache-shared) must stay pristine.
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Actual != -1 {
			t.Errorf("original plan node %s mutated: actual = %d", n.Op, n.Actual)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
}

// TestErrorRatioSkipsUnexecutedNodes is the satellite regression test:
// nodes that never executed must not contribute bogus ratios to
// MaxErrorRatio, and a fully unexecuted (e.g. cached, unstamped) plan
// reports "not executed".
func TestErrorRatioSkipsUnexecutedNodes(t *testing.T) {
	p := Build(chainLeaves(), nil, []string{"x"}, false, ModeCost, testCosts(), nil)
	if ratio, at := p.MaxErrorRatio(); at != nil || ratio != 1 {
		t.Errorf("unexecuted plan MaxErrorRatio = %g at %v, want (1, nil)", ratio, at)
	}
	obs := NewObservation(p)
	// Execute only the root-most scan exactly on-estimate; the huge
	// unexecuted joins above it must not dominate the ratio.
	sc := p.Scans()[0]
	obs.Record(sc, int64(sc.Est))
	stamped := p.Stamp(obs)
	ratio, at := stamped.MaxErrorRatio()
	if at == nil || at.Op != OpScan {
		t.Fatalf("MaxErrorRatio landed at %v, want the executed scan", at)
	}
	if ratio != 1 {
		t.Errorf("on-estimate partial execution ratio = %g, want 1", ratio)
	}
	if !strings.Contains(stamped.ErrorSummary(), "max ratio 1.00x") {
		t.Errorf("summary = %q", stamped.ErrorSummary())
	}
}

func TestModeCostLeftDeepString(t *testing.T) {
	if ModeCostLeftDeep.String() != "cost-leftdeep" {
		t.Errorf("ModeCostLeftDeep = %q", ModeCostLeftDeep.String())
	}
}
