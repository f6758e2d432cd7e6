package plan

import (
	"math"
	"strings"
	"testing"
)

// fakeSketches is a JoinStatsProvider over a hand-built pair table.
type fakeSketches struct {
	triples map[uint64]float64
	pairs   map[[3]uint64]PairSketchEntry
}

// PairSketchEntry is the fake's stored value.
type PairSketchEntry struct {
	Join, Keys float64
	Exact      bool // an entry with Join 0 and Exact means provably empty
}

// PairJoin honours the provider contract's positional symmetry: an
// s-s or o-o pair is order-independent, and OS(a,b) names the same
// sketch as SO(b,a) — exactly how stats.Collection normalizes keys.
func (f *fakeSketches) PairJoin(p1, p2 uint64, pos uint8) (float64, float64, bool) {
	lookups := [][3]uint64{{p1, p2, uint64(pos)}}
	switch PairPos(pos) {
	case PairSS, PairOO:
		lookups = append(lookups, [3]uint64{p2, p1, uint64(pos)})
	case PairSO:
		lookups = append(lookups, [3]uint64{p2, p1, uint64(PairOS)})
	case PairOS:
		lookups = append(lookups, [3]uint64{p2, p1, uint64(PairSO)})
	}
	for _, k := range lookups {
		if e, ok := f.pairs[k]; ok {
			return e.Join, e.Keys, true
		}
	}
	return 0, 0, false
}

func (f *fakeSketches) PredTriples(p uint64) float64 { return f.triples[p] }

// sketchLeaves is a two-leaf join on y: A's pattern has y at the
// object position, B's at the subject position.
func sketchLeaves() []Leaf {
	return []Leaf{
		{Label: "A", Vars: []string{"x", "y"}, Est: 1000,
			Dist: map[string]float64{"x": 1000, "y": 100},
			Pats: []PatRef{{Pred: 1, SVar: "x", OVar: "y"}}},
		{Label: "B", Vars: []string{"y", "z"}, Est: 200,
			Dist: map[string]float64{"y": 100, "z": 200},
			Pats: []PatRef{{Pred: 2, SVar: "y", OVar: "z"}}},
	}
}

// joinNode walks to the plan's (single) join.
func joinNode(t *testing.T, p *Plan) *Node {
	t.Helper()
	var join *Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Op == OpJoin {
			join = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	if join == nil {
		t.Fatalf("no join in plan:\n%s", p)
	}
	return join
}

func TestJoinEstimateUsesSketchSelectivity(t *testing.T) {
	c := testCosts()
	// Pair (1 object-side, 2 subject-side) = OS with join 5000 over
	// populations 1000×200: sel 1/40 → est 1000·200/40 = 5000, scaled
	// 1:1 since both leaves are at full population.
	c.JoinStats = &fakeSketches{
		triples: map[uint64]float64{1: 1000, 2: 200},
		pairs: map[[3]uint64]PairSketchEntry{
			{1, 2, uint64(PairOS)}: {Join: 5000, Keys: 60},
		},
	}
	p := Build(sketchLeaves(), nil, []string{"x", "z"}, false, ModeCost, c, nil)
	join := joinNode(t, p)
	if join.EstSource != EstSketch {
		t.Fatalf("join est-source = %q, want sketch:\n%s", join.EstSource, p)
	}
	if join.Est != 5000 {
		t.Errorf("join est = %g, want 5000 (sketch cardinality at full scale)", join.Est)
	}
	// Scan nodes default to indep, and the rendering shows the tags.
	for _, sc := range p.Scans() {
		if sc.EstSource != EstIndep {
			t.Errorf("scan %s est-source = %q, want indep", sc.Label, sc.EstSource)
		}
	}
	if s := p.String(); !strings.Contains(s, "est-source=sketch") || !strings.Contains(s, "est-source=indep") {
		t.Errorf("rendering lacks est-source tags:\n%s", s)
	}
}

func TestJoinEstimateScalesSketchToFilteredInputs(t *testing.T) {
	c := testCosts()
	c.JoinStats = &fakeSketches{
		triples: map[uint64]float64{1: 2000, 2: 200},
		pairs: map[[3]uint64]PairSketchEntry{
			{1, 2, uint64(PairOS)}: {Join: 4000, Keys: 60},
		},
	}
	// A carries 1000 of predicate 1's 2000 triples (a filtered leaf):
	// containment scaling halves the sketch join → 2000.
	p := Build(sketchLeaves(), nil, []string{"x", "z"}, false, ModeCost, c, nil)
	join := joinNode(t, p)
	if math.Abs(join.Est-2000) > 1e-6 {
		t.Errorf("join est = %g, want 2000 (4000 · 1000/2000 · 200/200)", join.Est)
	}
}

func TestJoinEstimateExactZeroPair(t *testing.T) {
	c := testCosts()
	// The pair exists in the provider with join 0: provably empty.
	c.JoinStats = &fakeSketches{
		triples: map[uint64]float64{1: 1000, 2: 200},
		pairs: map[[3]uint64]PairSketchEntry{
			{1, 2, uint64(PairOS)}: {Join: 0, Keys: 0, Exact: true},
		},
	}
	p := Build(sketchLeaves(), nil, []string{"x", "z"}, false, ModeCost, c, nil)
	join := joinNode(t, p)
	if join.Est != 0 || join.EstSource != EstSketch {
		t.Errorf("join est = %g source %q, want exact zero from the sketch", join.Est, join.EstSource)
	}
}

func TestJoinEstimateFallsBackToIndependence(t *testing.T) {
	// No provider, and a provider without the pair, must both reproduce
	// the pre-sketch estimate bit-for-bit.
	base := Build(sketchLeaves(), nil, []string{"x", "z"}, false, ModeCost, testCosts(), nil)
	want := joinNode(t, base).Est
	if want != 1000*200/100 {
		t.Fatalf("independence est = %g, want 2000", want)
	}
	c := testCosts()
	c.JoinStats = &fakeSketches{triples: map[uint64]float64{1: 1000, 2: 200}}
	p := Build(sketchLeaves(), nil, []string{"x", "z"}, false, ModeCost, c, nil)
	join := joinNode(t, p)
	if join.Est != want || join.EstSource != EstIndep {
		t.Errorf("uncovered pair: est = %g source %q, want %g indep", join.Est, join.EstSource, want)
	}
}

func TestJoinEstimateGeometricMeanOverCandidates(t *testing.T) {
	// Two patterns on the left expose y; their candidate pairs have
	// selectivities 1/40 and 1/160 — the estimate uses the geometric
	// mean 1/80.
	leaves := []Leaf{
		{Label: "A", Vars: []string{"x", "y"}, Est: 1000,
			Dist: map[string]float64{"x": 1000, "y": 100},
			Pats: []PatRef{
				{Pred: 1, SVar: "x", OVar: "y"},
				{Pred: 3, SVar: "x", OVar: "y"},
			}},
		{Label: "B", Vars: []string{"y", "z"}, Est: 200,
			Dist: map[string]float64{"y": 100, "z": 200},
			Pats: []PatRef{{Pred: 2, SVar: "y", OVar: "z"}}},
	}
	c := testCosts()
	c.JoinStats = &fakeSketches{
		triples: map[uint64]float64{1: 1000, 2: 200, 3: 1000},
		pairs: map[[3]uint64]PairSketchEntry{
			{1, 2, uint64(PairOS)}: {Join: 5000, Keys: 60}, // sel 1/40
			{3, 2, uint64(PairOS)}: {Join: 1250, Keys: 90}, // sel 1/160
		},
	}
	p := Build(leaves, nil, []string{"x", "z"}, false, ModeCost, c, nil)
	join := joinNode(t, p)
	want := 1000.0 * 200 / 80
	if math.Abs(join.Est-want) > 1e-6 {
		t.Errorf("join est = %g, want %g (geometric mean of candidate selectivities)", join.Est, want)
	}
}
