package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

// replanCosts is a small fixed pricing for the correction tests.
func replanCosts() Costs {
	return Costs{
		Workers:            4,
		BroadcastThreshold: 10 << 20,
		BytesPerValue:      5,
		Model:              cluster.DefaultCostModel(),
	}
}

// randomChainQuery builds a random connected leaf set: leaf i shares
// variable v<i> with leaf i+1, plus occasional extra shared vars so
// bushy shapes and multi-column joins appear, and up to two filters on
// random variables so observation keys carry filter sets too.
func randomChainQuery(rng *rand.Rand, n int) ([]Leaf, []FilterSpec, []string) {
	leaves := make([]Leaf, n)
	for i := range leaves {
		vars := []string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)}
		if i > 1 && rng.Intn(3) == 0 {
			vars = append(vars, fmt.Sprintf("v%d", rng.Intn(i)))
		}
		est := float64(1 + rng.Intn(100_000))
		dist := map[string]float64{}
		for _, v := range vars {
			dist[v] = 1 + float64(rng.Intn(int(est)+1))
		}
		leaves[i] = Leaf{
			Label: fmt.Sprintf("leaf%d", i),
			Vars:  vars,
			Est:   est,
			Dist:  dist,
		}
	}
	var filters []FilterSpec
	for f := rng.Intn(3); f > 0; f-- {
		v := fmt.Sprintf("v%d", rng.Intn(n+1))
		filters = append(filters, FilterSpec{Var: v, Selectivity: 0.05 + 0.9*rng.Float64(), Label: "?" + v + "!=c"})
	}
	return leaves, filters, []string{"v0", fmt.Sprintf("v%d", n)}
}

// enumerationPaths builds the four candidate shapes Build chooses
// between — the left-deep chain over the cost order, its optimal
// bracketing (DP), and both GOO variants — under the given
// observations.
func enumerationPaths(leaves []Leaf, filters []FilterSpec, projection []string, c Costs, obs Observed) []state {
	order := costOrder(leaves, filters, c, obs)
	pushed, _ := pushFilters(leaves, filters, order)
	bPushed, _ := pushFiltersBushy(leaves, filters)
	return []state{
		buildChain(leaves, filters, order, pushed, projection, ModeCost, c, obs),
		bushySequenceDP(leaves, filters, order, pushed, projection, c, obs),
		buildBushy(leaves, filters, bPushed, projection, c, false, obs),
		buildBushy(leaves, filters, bPushed, projection, c, true, obs),
	}
}

// pathNames labels enumerationPaths' results in order.
var pathNames = []string{"chain", "DP", "GOO by estimate", "GOO by critical path"}

// estimatingNodes lists a subtree's Scan and Join nodes.
func estimatingNodes(n *Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Op == OpScan || n.Op == OpJoin {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// TestReplanNeverWorseThanStaticRemainder pins what a corrected cache
// entry is planned with: on every enumeration path (chain, DP, both GOO
// variants) every Scan and Join whose leaf-and-filter set an earlier
// execution observed is priced at that observation and says so
// (est-source=obs), and Build prices the plan it returns the same way.
// A correction can therefore never keep the estimate that missed.
func TestReplanNeverWorseThanStaticRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := replanCosts()
	seeded := 0
	for trial := 0; trial < 300; trial++ {
		leaves, filters, projection := randomChainQuery(rng, 3+rng.Intn(5))
		// Observe a random half of every key the unseeded paths produce,
		// at an arbitrary count.
		obs := Observed{}
		for _, st := range enumerationPaths(leaves, filters, projection, c, nil) {
			for _, n := range estimatingNodes(st.node) {
				if rng.Intn(2) == 0 {
					obs[obsKey(n)] = float64(rng.Intn(200_000))
				}
			}
		}
		check := func(path string, root *Node) {
			for _, n := range estimatingNodes(root) {
				want, ok := obs[obsKey(n)]
				if !ok {
					continue
				}
				seeded++
				if n.Est != want || n.EstSource != EstObserved {
					t.Fatalf("trial %d, %s: %s %s keyed %q priced %g (%s), observed %g",
						trial, path, n.Op, n.Label, obsKey(n), n.Est, n.EstSource, want)
				}
			}
		}
		for i, st := range enumerationPaths(leaves, filters, projection, c, obs) {
			check(pathNames[i], st.node)
		}
		check("Build", Build(leaves, filters, projection, rng.Intn(2) == 0, ModeCost, c, obs).Root)
	}
	if seeded == 0 {
		t.Fatal("no observed key was ever priced")
	}
}

// chainSketches is a JoinStatsProvider that prices every predicate pair
// with a fixed selectivity, ignoring positions: on an acyclic chain each
// join then multiplies in exactly its one edge's selectivity, so every
// enumeration site — the chain's ordering, the chain itself, DP and both
// GOO variants — estimates a given set of leaves identically.
type chainSketches struct{}

func (chainSketches) PairJoin(p1, p2 uint64, _ uint8) (join, keys float64, ok bool) {
	sel := 1 / (1000 + float64((min(p1, p2)*7919+max(p1, p2)*104729)%9000))
	return sel * 1e6 * 1e6, 100, true
}

func (chainSketches) PredTriples(uint64) float64 { return 1e6 }

// TestReplanAdoptionRequiresCharge pins that observations are only ever
// a source of numbers: seeding Build with observations equal to the
// estimates of the plan it builds unseeded gives back that very plan —
// same shape, methods, estimates and rendering — in every cost mode.
// The queries are chains priced from sketches, so that every place Build
// estimates a key agrees on the number (the independence estimate of a
// set of leaves depends on the order they were joined in, and an
// observation replaces every estimate of its key: a test whose "equal"
// observation differs from some site's own estimate would pin that
// site's arithmetic, not the observations).
func TestReplanAdoptionRequiresCharge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := replanCosts()
	c.JoinStats = chainSketches{}
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(4)
		leaves := make([]Leaf, n)
		for i := range leaves {
			s, o := fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)
			est := float64(10_000 + rng.Intn(90_000))
			leaves[i] = Leaf{
				Label: fmt.Sprintf("leaf%d", i),
				Vars:  []string{s, o},
				Est:   est,
				Dist:  map[string]float64{s: 1 + float64(rng.Intn(int(est))), o: 1 + float64(rng.Intn(int(est)))},
				Pats:  []PatRef{{Pred: uint64(i + 1), SVar: s, OVar: o}},
			}
		}
		// Filters only on the chain's ends: a variable exposed by one leaf
		// is filtered at that leaf on every path.
		var filters []FilterSpec
		for _, v := range []string{"v0", fmt.Sprintf("v%d", n)} {
			if rng.Intn(2) == 0 {
				filters = append(filters, FilterSpec{Var: v, Selectivity: 0.05 + 0.9*rng.Float64(), Label: "?" + v + "!=c"})
			}
		}
		projection := []string{"v0", fmt.Sprintf("v%d", n)}
		distinct := rng.Intn(2) == 0
		for _, mode := range []Mode{ModeCost, ModeCostLeftDeep} {
			unseeded := Build(leaves, filters, projection, distinct, mode, c, nil)
			obs := Observed{}
			for _, n := range estimatingNodes(unseeded.Root) {
				obs[obsKey(n)] = n.Est
			}
			if got, want := Build(leaves, filters, projection, distinct, mode, c, obs).String(), unseeded.String(); got != want {
				t.Fatalf("trial %d, %s: seeding the plan's own estimates changed it\ngot:\n%swant:\n%s", trial, mode, got, want)
			}
		}
	}
}
