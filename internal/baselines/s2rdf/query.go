package s2rdf

import (
	"fmt"
	"sort"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sparql"
	"repro/internal/stats"
)

// Query evaluates a SPARQL query: each triple pattern is answered from
// the smallest ExtVP reduction consistent with the query's join
// structure (falling back to the plain VP table), then joined on the
// Spark SQL engine with broadcast-join selection enabled.
func (s *Store) Query(q *sparql.Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	choices, err := s.choosePatternTables(q.Patterns)
	if err != nil {
		return nil, err
	}
	e := engine.NewExec(s.cluster, cluster.NewClock()) // warm Spark SQL session
	e.BroadcastThreshold = s.bcast
	return baselines.Evaluate(e, s.dict, q, "scan ", s.orderChoices(choices))
}

// choosePatternTables picks, for every pattern, the smallest table among
// the plain VP table and the ExtVP reductions induced by the query's
// variable correlations with other patterns (S2RDF's table selection).
func (s *Store) choosePatternTables(pats []sparql.TriplePattern) ([]baselines.Access, error) {
	choices := make([]baselines.Access, len(pats))
	for i, tp := range pats {
		if tp.P.IsVar() {
			return nil, fmt.Errorf("s2rdf: variable predicates are not supported (pattern %s)", tp)
		}
		choices[i] = baselines.Access{Pattern: tp, Label: "VP"}
		pid, ok := s.dict.Lookup(tp.P.Term)
		if !ok || s.vp[pid] == nil {
			continue
		}
		best, label := s.vp[pid], "VP"
		for j, other := range pats {
			if i == j || other.P.IsVar() {
				continue
			}
			qid, ok := s.dict.Lookup(other.P.Term)
			if !ok {
				continue
			}
			for _, corr := range correlations(tp, other) {
				if ext, ok := s.ext[extKey{p: pid, q: qid, kind: corr}]; ok && ext.Rows() < best.Rows() {
					best, label = ext, fmt.Sprintf("ExtVP_%s", corr)
				}
			}
		}
		choices[i].Table = best
		choices[i].Label = fmt.Sprintf("%s(%s)", label, baselines.PatternLabel(tp))
	}
	return choices, nil
}

// correlations lists the ExtVP kinds that connect pattern a to pattern
// b through shared variables (a's side first).
func correlations(a, b sparql.TriplePattern) []stats.JoinPos {
	var out []stats.JoinPos
	if a.S.IsVar() {
		if b.S.IsVar() && a.S.Var == b.S.Var {
			out = append(out, stats.JoinSS)
		}
		if b.O.IsVar() && a.S.Var == b.O.Var {
			out = append(out, stats.JoinSO)
		}
	}
	if a.O.IsVar() {
		if b.S.IsVar() && a.O.Var == b.S.Var {
			out = append(out, stats.JoinOS)
		}
		if b.O.IsVar() && a.O.Var == b.O.Var {
			out = append(out, stats.JoinOO)
		}
	}
	return out
}

// choiceEstimate returns a choice's estimated output rows after bound
// positions and the per-variable distinct-value estimates, based on the
// loader statistics — the inputs to S2RDF's cardinality-driven ordering.
func (s *Store) choiceEstimate(ch baselines.Access) (float64, map[string]float64) {
	dist := map[string]float64{}
	if ch.Table == nil {
		return 0, dist
	}
	rows := float64(ch.Table.Rows())
	var subjD, objD float64 = 1, 1
	if pid, ok := s.dict.Lookup(ch.Pattern.P.Term); ok {
		ps := s.stats.Predicate(pid)
		subjD = max(float64(ps.DistinctSubjects), 1)
		objD = max(float64(ps.DistinctObjects), 1)
	}
	if !ch.Pattern.O.IsVar() {
		rows /= objD
	}
	if !ch.Pattern.S.IsVar() {
		rows /= subjD
	}
	if ch.Pattern.S.IsVar() {
		dist[ch.Pattern.S.Var] = min(subjD, rows)
	}
	if ch.Pattern.O.IsVar() {
		dist[ch.Pattern.O.Var] = min(objD, rows)
	}
	return rows, dist
}

// orderChoices starts from the smallest estimated pattern and greedily
// appends the connected pattern minimizing the estimated join output
// under the independence assumption |A⋈B| ≈ |A|·|B|/max(d_A(v),d_B(v)).
func (s *Store) orderChoices(choices []baselines.Access) []baselines.Access {
	pending := make([]baselines.Access, len(choices))
	copy(pending, choices)
	sort.SliceStable(pending, func(i, j int) bool {
		ei, _ := s.choiceEstimate(pending[i])
		ej, _ := s.choiceEstimate(pending[j])
		return ei < ej
	})
	if len(pending) == 0 {
		return nil
	}

	var order []baselines.Access
	curDist := map[string]float64{}
	var curSize float64
	take := func(i int, joined float64) {
		ch := pending[i]
		order = append(order, ch)
		_, dist := s.choiceEstimate(ch)
		for v, d := range dist {
			if prev, ok := curDist[v]; !ok || d < prev {
				curDist[v] = d
			}
		}
		curSize = joined
		pending = append(pending[:i], pending[i+1:]...)
	}
	startSize, _ := s.choiceEstimate(pending[0])
	take(0, startSize)
	for len(pending) > 0 {
		best, bestEst := -1, 0.0
		for i, ch := range pending {
			size, dist := s.choiceEstimate(ch)
			denom := 0.0
			for v, d := range dist {
				if cd, ok := curDist[v]; ok {
					denom = max(denom, cd, d)
				}
			}
			if denom == 0 {
				continue
			}
			est := curSize * size / denom
			if best < 0 || est < bestEst {
				best, bestEst = i, est
			}
		}
		if best < 0 {
			size, _ := s.choiceEstimate(pending[0])
			take(0, curSize*size)
			continue
		}
		take(best, max(bestEst, 1))
	}
	return order
}
