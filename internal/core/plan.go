package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stats"
)

// Compile-time pin of the cross-package join-position encoding: the
// planner's PairPos values must equal the statistics package's JoinPos
// values — the JoinStatsProvider contract passes them as raw uint8.
// Reordering either enum makes one of these constant array indexes
// non-zero and fails the build.
var (
	_ = [1]struct{}{}[uint8(plan.PairSS)-uint8(stats.JoinSS)]
	_ = [1]struct{}{}[uint8(plan.PairSO)-uint8(stats.JoinSO)]
	_ = [1]struct{}{}[uint8(plan.PairOS)-uint8(stats.JoinOS)]
	_ = [1]struct{}{}[uint8(plan.PairOO)-uint8(stats.JoinOO)]
)

// Plan resolves the options and plans the query — plain or extended —
// exactly as QueryContext would on a plan-cache miss, without caching or
// executing it: the entry point for EXPLAIN and planner benchmarks.
func (s *Store) Plan(q *sparql.Query, opts QueryOptions) (*plan.Plan, error) {
	r, err := s.resolve(q, opts)
	if err != nil {
		return nil, err
	}
	_, pl, err := s.planQuery(s.curStats(), q, r)
	return pl, err
}

// planGroup plans one BGP group: translate it into a Join Tree (paper
// §3.2), keep the written order for the naive planner, describe the
// nodes to the planner as leaves and run the optimizer passes, recording
// estimate provenance for /stats. obs is what earlier executions of the
// query counted (nil but for a correction, Store.correct). Everything is
// read from the caller's statistics snapshot: a plan is always priced
// end to end from the same collection whose fingerprint keys it in the
// cache, even when a reload lands while planning runs.
func (s *Store) planGroup(st *stats.Collection, q *sparql.Query, r resolved, obs plan.Observed) ([]*Node, *plan.Plan, error) {
	tree, err := s.translateWith(st, q, r.strategy)
	if err != nil {
		return nil, nil, err
	}
	if r.mode == plan.ModeNaive {
		naiveOrder(tree, q)
	}
	leaves := s.planLeaves(st, tree)
	pl := plan.Build(leaves, filterSpecs(q, leaves), q.Projection(), q.Distinct, r.mode, s.planCosts(st, r), obs)
	if pl == nil {
		return nil, nil, fmt.Errorf("core: query has no patterns")
	}
	s.estSources.record(pl)
	return tree.Nodes, pl, nil
}

// planLeaves describes each Join Tree node to the planner: output
// schema in engine column order, statistics-based cardinality and
// distinct estimates, the triple patterns behind the scan (for sketch
// lookups), and the partitioning its scan will produce.
func (s *Store) planLeaves(st *stats.Collection, tree *JoinTree) []plan.Leaf {
	leaves := make([]plan.Leaf, len(tree.Nodes))
	for i, n := range tree.Nodes {
		size, dist, src := s.leafEstimate(st, n)
		// Schema and partitioning come from the functions of the node
		// the scan's resolver uses (nodescan.go), so a leaf's Vars and
		// the executed scan's schema cannot disagree.
		vars := nodeSchema(n)
		var partCols []string
		if c := nodePartCol(n, vars); c != "" {
			partCols = []string{c}
		}
		leaves[i] = plan.Leaf{
			Label:     n.Label(),
			Vars:      vars,
			Est:       size,
			Dist:      dist,
			PartCols:  partCols,
			Anchor:    leafAnchor(n),
			Pats:      leafPats(s.dict, n),
			EstSource: src,
			// Only VP scans can redirect to a semi-join reduction: the
			// reduced table is scanned through the same single-predicate
			// path, so the rewrite changes bytes read, nothing else.
			Reducible: n.Kind == NodeVP,
		}
	}
	return leaves
}

// leafEstimate prices one Join Tree node for the planner with the
// documented estimator precedence: characteristic sets for subject
// stars (Property Table nodes), pair sketches for two-pattern groups
// the csets cannot price (inverse-PT object stars, and PT pairs when
// csets are unavailable), and the per-predicate independence estimate
// otherwise. The translator's §3.3 ordering (nodeEstimate) is left
// untouched so the heuristic planner keeps reproducing the paper.
func (s *Store) leafEstimate(st *stats.Collection, n *Node) (float64, map[string]float64, string) {
	size, dist := s.nodeEstimate(st, n)
	if len(n.Patterns) < 2 {
		// Cross-query seeding: a previous execution of the same
		// (predicate, constant) subpattern recorded its exact
		// cardinality — use it over the independence guess, capping the
		// distinct counts (a scan cannot expose more distinct values
		// than rows).
		if rows, ok := s.observedScanEstimate(n); ok {
			for v := range dist {
				minDist(dist, v, float64(rows))
			}
			return float64(rows), dist, plan.EstObserved
		}
		return size, dist, plan.EstIndep
	}
	pids, boundSel, ok := s.groupPreds(st, n)
	if !ok {
		return size, dist, plan.EstIndep
	}
	switch n.Kind {
	case NodePT:
		if subj, rows, ok := st.StarEstimate(pids); ok {
			rows *= boundSel
			minDist(dist, n.Key, subj*boundSel)
			return rows, dist, plan.EstCSet
		}
		if rows, ok := pairLeafEstimate(st, pids, stats.JoinSS, boundSel, dist, n.Key); ok {
			return rows, dist, plan.EstSketch
		}
	case NodeIPT:
		if rows, ok := pairLeafEstimate(st, pids, stats.JoinOO, boundSel, dist, n.Key); ok {
			return rows, dist, plan.EstSketch
		}
	}
	return size, dist, plan.EstIndep
}

// pairLeafEstimate prices a two-pattern group from its pair sketch at
// the given join position, min-updating the key variable's distinct
// count with the sketch's shared-key count. ok is false for groups of
// another size or pairs the sketch cannot answer.
func pairLeafEstimate(st *stats.Collection, pids []rdf.ID, pos stats.JoinPos, boundSel float64, dist map[string]float64, key string) (float64, bool) {
	if len(pids) != 2 {
		return 0, false
	}
	join, keys, ok := st.PairJoin(uint64(pids[0]), uint64(pids[1]), uint8(pos))
	if !ok {
		return 0, false
	}
	minDist(dist, key, keys)
	return join * boundSel, true
}

// minDist lowers dist[v] to d when d is smaller (or v is absent).
func minDist(dist map[string]float64, v string, d float64) {
	if prev, in := dist[v]; !in || d < prev {
		dist[v] = d
	}
}

// groupPreds resolves a PT/IPT node's predicate IDs (pattern order,
// duplicates kept) and the combined selectivity of its bound value
// positions (1/distinct-objects per bound object under the subject
// key, 1/distinct-subjects per bound subject under the object key).
// ok is false when a predicate is variable or unknown, or when value
// variables repeat — shapes whose scan applies equality constraints
// the star statistics cannot see.
func (s *Store) groupPreds(st *stats.Collection, n *Node) (pids []rdf.ID, boundSel float64, ok bool) {
	boundSel = 1
	seenVars := map[string]bool{n.Key: true}
	for _, tp := range n.Patterns {
		if tp.P.IsVar() {
			return nil, 0, false
		}
		pid, found := s.dict.Lookup(tp.P.Term)
		if !found {
			return nil, 0, false
		}
		pids = append(pids, pid)
		ps := st.Predicate(pid)
		value := tp.O
		boundDistinct := float64(ps.DistinctObjects)
		if n.Kind == NodeIPT {
			value = tp.S
			boundDistinct = float64(ps.DistinctSubjects)
		}
		if value.IsVar() {
			if seenVars[value.Var] {
				return nil, 0, false
			}
			seenVars[value.Var] = true
			continue
		}
		if boundDistinct < 1 {
			boundDistinct = 1
		}
		boundSel /= boundDistinct
	}
	return pids, boundSel, true
}

// leafPats describes a node's bound-predicate patterns to the sketch
// estimator: predicate ID plus the variables at each position.
func leafPats(dict *rdf.Dictionary, n *Node) []plan.PatRef {
	var out []plan.PatRef
	for _, tp := range n.Patterns {
		if tp.P.IsVar() {
			continue
		}
		pid, ok := dict.Lookup(tp.P.Term)
		if !ok {
			continue
		}
		pr := plan.PatRef{Pred: uint64(pid)}
		if tp.S.IsVar() {
			pr.SVar = tp.S.Var
		}
		if tp.O.IsVar() {
			pr.OVar = tp.O.Var
		}
		out = append(out, pr)
	}
	return out
}

// leafAnchor grades a node's constant constraints for the planner's
// start selection, mirroring the §3.3 boosts: bound literals rank
// above bound IRI objects, which rank above unconstrained patterns.
func leafAnchor(n *Node) int {
	anchor := 0
	for _, tp := range n.Patterns {
		switch {
		case tp.HasLiteral():
			return 2
		case tp.HasBoundObject():
			anchor = 1
		}
	}
	return anchor
}

// filterSpecs estimates each FILTER's selectivity from the distinct
// counts of the leaves exposing its variable: equality keeps one of d
// values, inequality keeps the rest, and range comparisons use the
// standard one-third guess.
func filterSpecs(q *sparql.Query, leaves []plan.Leaf) []plan.FilterSpec {
	specs := make([]plan.FilterSpec, 0, len(q.Filters))
	for _, f := range q.Filters {
		d := 0.0
		for _, l := range leaves {
			dv, ok := l.Dist[f.Var]
			if !ok {
				continue
			}
			if d == 0 || dv < d {
				d = dv
			}
		}
		if d < 1 {
			d = 1
		}
		var sel float64
		switch f.Op {
		case sparql.OpEQ:
			sel = 1 / d
		case sparql.OpNE:
			sel = 1 - 1/d
		default:
			sel = 1.0 / 3
		}
		value := f.Value.Value
		if f.Value.IsIRI() {
			value = "<" + value + ">"
		}
		specs = append(specs, plan.FilterSpec{
			Var:         f.Var,
			Selectivity: sel,
			Label:       fmt.Sprintf("?%s%s%s", f.Var, f.Op, value),
		})
	}
	return specs
}

// planCosts bundles the cluster facts physical selection prices with,
// reading join sketches from the caller's statistics snapshot.
func (s *Store) planCosts(st *stats.Collection, r resolved) plan.Costs {
	c := plan.Costs{
		Workers:            s.cluster.Workers(),
		BroadcastThreshold: max(r.broadcast, 0), // 0: disabled
		BytesPerValue:      engine.BytesPerValue,
		Model:              s.cluster.Config().Cost,
		// The loader statistics implement the sketch lookup; with join
		// statistics disabled every lookup reports no sketch and the
		// estimator falls back to independence everywhere.
		JoinStats: st,
	}
	// The assignment is guarded so a plan that may not be rewritten
	// leaves the interface nil (a typed-nil provider would look non-nil
	// to the rewrite pre-pass).
	if r.extvp {
		c.ExtVP = extvpCosts{s}
	}
	return c
}
