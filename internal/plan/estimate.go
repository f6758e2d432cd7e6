package plan

import (
	"math"
	"slices"
	"strconv"
	"strings"
)

// This file is the join-cardinality estimator. Every join estimate in
// the planner — chain ordering, bushy enumeration and physical
// selection — flows through joinEstimate, which applies the documented
// precedence:
//
//  0. An observation (Observed): the rows an earlier execution of the
//     same query counted for exactly this set of leaves and filters.
//     It replaces whatever the sources below would estimate.
//  1. Two-predicate join sketches (Costs.JoinStats): for a shared
//     variable exposed by a triple pattern on each side, the exact
//     leaf-level join cardinality of the predicate pair at its join
//     position, scaled to the actual input sizes under the containment
//     assumption. This prices correlated predicates (likes ⋈ likes
//     triangles) that the independence assumption misses by orders of
//     magnitude.
//  2. The textbook independence assumption |A ⋈ B| ≈ |A|·|B|/max(d)
//     for variables no sketch covers — the documented fallback when a
//     pair was trimmed by the sketch top-K bound, a predicate is
//     unknown, or join statistics were not collected.
//
// Characteristic sets are applied one layer up (internal/core prices
// star-shaped Property Table scans with them before the leaves reach
// Build); the est-source tags on plan nodes record which source
// produced each estimate for EXPLAIN.

// Estimate sources, rendered per node in EXPLAIN output.
const (
	// EstIndep is the independence assumption (the fallback).
	EstIndep = "indep"
	// EstCSet marks a scan priced from characteristic sets.
	EstCSet = "cset"
	// EstSketch marks an estimate priced from a pair join sketch.
	EstSketch = "sketch"
	// EstExtVP marks a scan rewritten to a materialized semi-join
	// reduction (workload-driven ExtVP table); its estimate is the
	// reduction's exact row count (scaled by the pattern's constant
	// selectivity when a position is bound).
	EstExtVP = "extvp"
	// EstObserved marks a cardinality an earlier execution counted: a
	// scan seeded from a previous execution of the same (predicate,
	// constant) subpattern — the workload model's cross-query feedback —
	// or a scan or join a corrected cache entry was re-planned with.
	EstObserved = "obs"
)

// PairPos identifies which position of each pattern in an ordered
// predicate pair carries the shared join variable. The numeric values
// match stats.JoinPos — the cross-package contract behind the
// JoinStatsProvider interface.
type PairPos uint8

// Pair positions.
const (
	// PairSS joins the subjects of both patterns.
	PairSS PairPos = iota
	// PairSO joins the left pattern's subject with the right's object.
	PairSO
	// PairOS joins the left pattern's object with the right's subject.
	PairOS
	// PairOO joins the objects of both patterns.
	PairOO
)

// String implements fmt.Stringer.
func (p PairPos) String() string {
	switch p {
	case PairSS:
		return "s-s"
	case PairSO:
		return "s-o"
	case PairOS:
		return "o-s"
	default:
		return "o-o"
	}
}

// JoinStatsProvider is the sketch lookup the estimator prices
// correlated joins with; *stats.Collection implements it. pos uses the
// PairPos encoding.
type JoinStatsProvider interface {
	// PairJoin returns the leaf-level join cardinality and the number
	// of distinct shared key values for the ordered predicate pair at
	// the given position. ok=false means "no sketch — fall back to
	// independence"; ok=true with a zero join is exact knowledge that
	// the pair never shares a key.
	PairJoin(p1, p2 uint64, pos uint8) (join, keys float64, ok bool)
	// PredTriples returns a predicate's total triple count — the
	// population its sketches were computed over, and therefore the
	// denominator that scales a sketch to filtered inputs.
	PredTriples(p uint64) float64
}

// PatRef ties one triple pattern of a leaf to the variables it exposes,
// so the estimator can find the predicate pair behind a join variable.
// Bound positions carry an empty variable name.
type PatRef struct {
	// Pred is the pattern's predicate ID (dictionary encoding).
	Pred uint64
	// SVar and OVar name the variables at the subject and object
	// positions ("" when the position is bound or absent).
	SVar, OVar string
}

// joinEstimate estimates |left ⋈ right| over the shared variables. Per
// shared variable it prefers a pair sketch — min over the candidate
// predicate pairs of join/(T1·T2), scaled by both input sizes — and
// falls back to the independence denominator max(d) over the remaining
// variables, reproducing the pre-sketch estimate bit-for-bit when no
// sketch applies. It returns the estimate, its source tag, and for
// sketch-covered variables the leaf-level shared-key count (an upper
// bound on the join output's distinct values for that variable).
func joinEstimate(left, right state, shared []string, c Costs) (float64, string, map[string]float64) {
	est := left.est * right.est
	restDenom := 1.0
	src := EstIndep
	var keys map[string]float64
	for _, v := range shared {
		if c.JoinStats != nil {
			if sel, k, ok := pairSelectivity(left.pats, right.pats, v, c.JoinStats); ok {
				est *= sel
				src = EstSketch
				if keys == nil {
					keys = make(map[string]float64, len(shared))
				}
				keys[v] = k
				continue
			}
		}
		d := math.Max(left.dist[v], right.dist[v])
		if d > restDenom {
			restDenom = d
		}
	}
	est, src = left.obs.seed(est/restDenom, src, left.node, right.node)
	return est, src, keys
}

// pairSelectivity combines every sketch-covered predicate pair
// exposing v on both sides into one selectivity: the geometric mean of
// the candidates' leaf-level selectivities join/(T1·T2). No single
// candidate is an upper or lower bound once the containment scaling is
// applied — positively correlated per-key degrees (popular products
// carry more likes AND more reviews AND more genres) make every
// pairwise product an underestimate of the multi-way output, while
// anti-correlated combinations make the largest candidate an
// overestimate — so log-averaging the pairwise evidence is the
// estimator the accuracy harness (accuracy_test.go) holds within its
// 4x q-error bound; min- and max-combining both break it. The returned
// key count is the smallest candidate's: the output's distinct v
// values lie in the intersection of every pair's shared-key set, so
// the minimum is always a valid upper bound.
func pairSelectivity(lpats, rpats []PatRef, v string, prov JoinStatsProvider) (sel, keys float64, ok bool) {
	logSum, n := 0.0, 0
	for _, lp := range lpats {
		for _, lSubj := range patPositions(lp, v) {
			for _, rp := range rpats {
				for _, rSubj := range patPositions(rp, v) {
					join, k, has := prov.PairJoin(lp.Pred, rp.Pred, uint8(pairPos(lSubj, rSubj)))
					if !has {
						continue
					}
					t1, t2 := prov.PredTriples(lp.Pred), prov.PredTriples(rp.Pred)
					if t1 <= 0 || t2 <= 0 || join == 0 {
						// A provably empty pair empties the join outright.
						return 0, 0, true
					}
					logSum += math.Log(join / (t1 * t2))
					n++
					if !ok || k < keys {
						keys, ok = k, true
					}
				}
			}
		}
	}
	if !ok {
		return 0, 0, false
	}
	return math.Exp(logSum / float64(n)), keys, true
}

// patPositions reports where a pattern exposes v: true for the subject
// position, false for the object position (both for ?v p ?v).
func patPositions(p PatRef, v string) []bool {
	var out []bool
	if p.SVar == v {
		out = append(out, true)
	}
	if p.OVar == v {
		out = append(out, false)
	}
	return out
}

// pairPos maps the (left-subject?, right-subject?) combination to the
// sketch position encoding.
func pairPos(lSubj, rSubj bool) PairPos {
	switch {
	case lSubj && rSubj:
		return PairSS
	case lSubj:
		return PairSO
	case rSubj:
		return PairOS
	default:
		return PairOO
	}
}

// capDistKeys bounds the join output's per-variable distinct counts by
// the sketch's shared-key counts: the join output can only contain key
// values both sides share at leaf level.
func capDistKeys(dist, keys map[string]float64) {
	for v, k := range keys {
		if d, in := dist[v]; in && k < d {
			dist[v] = math.Max(k, 1)
		}
	}
}

// Observed holds the cardinalities earlier executions of one query
// counted, keyed by obsKey: the set of leaves a Scan or Join covers and
// the set of filters applied at or below it. Build prices every chain,
// DP and GOO state whose key it holds at the observation.
type Observed map[string]float64

// seed returns the observation filed under the key of the given
// subplans taken together, tagged EstObserved, where there is one that
// differs from est; otherwise est and src unchanged.
func (o Observed) seed(est float64, src string, nodes ...*Node) (float64, string) {
	if o == nil {
		return est, src
	}
	if v, ok := o[obsKey(nodes...)]; ok && v != est {
		return v, EstObserved
	}
	return est, src
}

// obsKey renders the observation key of the given subplans taken
// together: their scanned leaf indexes, then the filter indexes their
// Scan and Filter nodes apply, each sorted. Where a filter applies is
// not part of the key — every placement yields the same rows.
func obsKey(nodes ...*Node) string {
	var leaves, filters []int
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.Op {
		case OpScan:
			leaves = append(leaves, n.Leaf)
			filters = append(filters, n.Filters...)
		case OpFilter:
			filters = append(filters, n.Filters...)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range nodes {
		walk(n)
	}
	slices.Sort(leaves)
	slices.Sort(filters)
	var sb strings.Builder
	for i, l := range leaves {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(l))
	}
	sb.WriteByte('|')
	for i, f := range slices.Compact(filters) {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(f))
	}
	return sb.String()
}

// observable reports whether an executed plan (stamped with actuals)
// counted n's own cardinality: an executed Scan or Join, except a scan
// that read an ExtVP reduction — it counted the reduction's rows, not
// its leaf's.
func observable(n *Node) bool {
	return n.Actual >= 0 && (n.Op == OpJoin || n.Op == OpScan && n.ExtVP == nil)
}

// WorstObservable returns the largest estimation-error factor among an
// executed plan's observable nodes, and the node it occurs at (1 and nil
// when none executed). Only an observable node can correct its own
// estimate, so only these decide whether a re-plan would learn anything.
func (p *Plan) WorstObservable() (float64, *Node) {
	return p.worstError(observable)
}

// Observations returns prior plus what an executed plan counted: the
// actual rows of every observable node, filed under the node's obsKey.
// prior is not modified.
func (p *Plan) Observations(prior Observed) Observed {
	obs := make(Observed, len(prior)+p.NumNodes())
	for k, v := range prior {
		obs[k] = v
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if observable(n) {
			obs[obsKey(n)] = float64(n.Actual)
		}
	}
	walk(p.Root)
	return obs
}
