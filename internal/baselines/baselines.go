// Package baselines is what the paper's three comparison systems —
// S2RDF, SPARQLGX and Rya, one subpackage each — have in common, so
// that each differs from PRoST only in what makes it that system.
//
// All three load from PRoST's one ingest: a loaded *core.Store hands
// them its dictionary, its deduplicated triples in input order, its
// statistics and the size of the file it read, so no baseline parses,
// encodes, deduplicates or counts anything. What a subpackage keeps is
// its own storage layout and size accounting (Table 1), its join-order
// rule, and its pricing. The two Spark systems evaluate through one
// left-deep scan → filter → join evaluator (Evaluate); SPARQLGX and Rya
// order patterns with one greedy loop (ConnectedOrder); and every
// FILTER, Rya's included, means what it means in PRoST
// (engine.FilterOp over engine.CompareTerms).
package baselines

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// LoadReport summarizes a baseline's loading run (its Table 1 row).
type LoadReport struct {
	// Triples is the dataset size after deduplication.
	Triples int64
	// SizeBytes is the stored size (Table 1 "Size").
	SizeBytes int64
	// LoadTime is the simulated loading duration (Table 1 "Time").
	LoadTime time.Duration
	// ExtVPTables is the number of materialized ExtVP reductions
	// (S2RDF; zero for the others).
	ExtVPTables int
}

// Result is a baseline's query answer.
type Result struct {
	Vars     []string
	Rows     [][]rdf.Term
	SimTime  time.Duration
	WallTime time.Duration
	Clock    *cluster.Clock
}

// Access is one triple pattern with the table a system picked for it.
type Access struct {
	Pattern sparql.TriplePattern
	// Table holds the (s,o) rows and the bytes a scan of them reads; nil
	// when the predicate does not occur, so the pattern matches nothing.
	Table *core.VPTable
	// Label names the pattern's stages.
	Label string
}

// Evaluate runs a validated BGP query left-deep over the accesses, in
// the order given: each table is scanned and shaped to its pattern's
// variables, every FILTER on a variable it binds is applied as its own
// stage, and the result is joined onto the running one; then project,
// DISTINCT, OFFSET/LIMIT and decode. Scan stages are named scanPrefix
// plus the access's label, join stages the label alone. The system's
// pricing is e's.
func Evaluate(e *engine.Exec, dict *rdf.Dictionary, q *sparql.Query, scanPrefix string, order []Access) (*Result, error) {
	start := time.Now()
	terms := dict.Snapshot()
	var current *engine.Relation
	for _, a := range order {
		rel, err := scan(e, dict, a, scanPrefix+a.Label)
		if err != nil {
			return nil, err
		}
		for _, f := range q.Filters {
			idx := rel.Schema().Index(f.Var)
			if idx < 0 {
				continue
			}
			op, err := engine.FilterOp(f.Op)
			if err != nil {
				return nil, err
			}
			value := f.Value
			if rel, err = e.Filter(rel, "?"+f.Var, func(r engine.Row) bool {
				return engine.CompareIDs(terms, r[idx], op, value)
			}); err != nil {
				return nil, err
			}
		}
		if current == nil {
			current = rel
			continue
		}
		if current, err = e.Join(current, rel, a.Label); err != nil {
			return nil, err
		}
	}
	if current == nil {
		return nil, fmt.Errorf("baselines: query has no patterns")
	}
	proj := q.Projection()
	current, err := e.Project(current, proj)
	if err != nil {
		return nil, err
	}
	if q.Distinct {
		if current, err = e.Distinct(current); err != nil {
			return nil, err
		}
	}
	blocks, err := e.Limit(current, q.Limit, q.Offset)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, b := range blocks {
		n += b.Len()
	}
	// One backing slice; each row is a capacity-clipped window of it.
	width := len(proj)
	cells := make([]rdf.Term, n*width)
	decoded := make([][]rdf.Term, 0, n)
	for _, b := range blocks {
		for i := 0; i < b.Len(); i++ {
			k := len(decoded) * width
			row := cells[k : k+width : k+width]
			terms.DecodeInto(row, b.Row(i))
			decoded = append(decoded, row)
		}
	}
	return &Result{Vars: proj, Rows: decoded, SimTime: e.Clock.Elapsed(), WallTime: time.Since(start), Clock: e.Clock}, nil
}

// scan reads an access's table (charging its bytes in full) and shapes
// it to the pattern: bound positions filtered, variables renamed, a
// repeated variable equated.
func scan(e *engine.Exec, dict *rdf.Dictionary, a Access, label string) (*engine.Relation, error) {
	tp := a.Pattern
	empty := func() *engine.Relation {
		return engine.NewBlockRelation(engine.Schema(tp.Vars()), make([]engine.Block, e.Cluster.DefaultPartitions()), "")
	}
	if a.Table == nil {
		return empty(), nil
	}
	rel, err := e.Scan(a.Table.Rel, label, a.Table.FileBytes)
	if err != nil {
		return nil, err
	}
	for col, pt := range []sparql.PatternTerm{tp.S, tp.O} {
		if pt.IsVar() {
			continue
		}
		id, ok := dict.Lookup(pt.Term)
		if !ok {
			return empty(), nil
		}
		if rel, err = e.Filter(rel, []string{"s=const", "o=const"}[col], func(r engine.Row) bool { return r[col] == id }); err != nil {
			return nil, err
		}
	}
	switch {
	case tp.S.IsVar() && tp.O.IsVar() && tp.S.Var == tp.O.Var:
		if rel, err = e.Filter(rel, "s=o", func(r engine.Row) bool { return r[0] == r[1] }); err != nil {
			return nil, err
		}
		if rel, err = e.Project(rel, []string{"s"}); err != nil {
			return nil, err
		}
		return e.Rename(rel, []string{tp.S.Var})
	case tp.S.IsVar() && tp.O.IsVar():
		return e.Rename(rel, []string{tp.S.Var, tp.O.Var})
	case tp.S.IsVar():
		if rel, err = e.Project(rel, []string{"s"}); err != nil {
			return nil, err
		}
		return e.Rename(rel, []string{tp.S.Var})
	case tp.O.IsVar():
		if rel, err = e.Project(rel, []string{"o"}); err != nil {
			return nil, err
		}
		return e.Rename(rel, []string{tp.O.Var})
	default:
		parts := make([]engine.Block, 1)
		if rel.NumRows() > 0 {
			parts[0] = engine.MakeBlock(0, 1, nil)
		}
		return engine.NewBlockRelation(engine.Schema{}, parts, ""), nil
	}
}

// ConnectedOrder is the greedy join order SPARQLGX and Rya share: sort
// the patterns by score, ascending and stably, then repeatedly take the
// first pattern sharing a variable with those already taken (the first
// one left when none does). Only the score is the system's own.
func ConnectedOrder(pats []sparql.TriplePattern, score func(sparql.TriplePattern) float64) []sparql.TriplePattern {
	pending := slices.Clone(pats)
	slices.SortStableFunc(pending, func(a, b sparql.TriplePattern) int { return cmp.Compare(score(a), score(b)) })
	order := make([]sparql.TriplePattern, 0, len(pending))
	bound := map[string]bool{}
	for len(pending) > 0 {
		i := max(0, slices.IndexFunc(pending, func(tp sparql.TriplePattern) bool {
			return slices.ContainsFunc(tp.Vars(), func(v string) bool { return bound[v] })
		}))
		for _, v := range pending[i].Vars() {
			bound[v] = true
		}
		order = append(order, pending[i])
		pending = slices.Delete(pending, i, i+1)
	}
	return order
}

// PatternLabel renders a pattern's predicate for stage names: the IRI's
// local name, or ?var.
func PatternLabel(tp sparql.TriplePattern) string {
	if tp.P.IsVar() {
		return "?" + tp.P.Var
	}
	v := tp.P.Term.Value
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] == '/' || v[i] == '#' {
			return v[i+1:]
		}
	}
	return v
}
