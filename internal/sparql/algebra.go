// Package sparql implements the subset of SPARQL 1.1 exercised by the
// PRoST paper and its production extensions: SELECT queries over Basic
// Graph Patterns with PREFIX declarations, DISTINCT, simple FILTER
// comparisons, OPTIONAL groups, UNION branches, ORDER BY, GROUP BY with
// COUNT aggregates, LIMIT and OFFSET. The package provides a lexer, a
// recursive-descent parser, the query algebra consumed by all engines
// in this repository, and a structural classifier that buckets queries
// into the WatDiv shapes (star / linear / snowflake / complex).
package sparql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// PatternTerm is one position of a triple pattern: either a variable or a
// concrete RDF term.
type PatternTerm struct {
	// Var is the variable name (without '?') when the position is a
	// variable; empty otherwise.
	Var string
	// Term is the concrete term when the position is bound; ignored when
	// Var is non-empty.
	Term rdf.Term
}

// IsVar reports whether the position is a variable.
func (p PatternTerm) IsVar() bool { return p.Var != "" }

// String renders the position in SPARQL surface syntax.
func (p PatternTerm) String() string {
	if p.IsVar() {
		return "?" + p.Var
	}
	return p.Term.String()
}

// Variable returns a PatternTerm for variable name (no '?').
func Variable(name string) PatternTerm { return PatternTerm{Var: name} }

// Bound returns a PatternTerm for a concrete term.
func Bound(t rdf.Term) PatternTerm { return PatternTerm{Term: t} }

// TriplePattern is one pattern of a Basic Graph Pattern.
type TriplePattern struct {
	S, P, O PatternTerm
}

// String renders the pattern in SPARQL surface syntax.
func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s", tp.S, tp.P, tp.O)
}

// Vars returns the distinct variable names used by the pattern, in S,P,O
// order.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar() && !seen[pt.Var] {
			seen[pt.Var] = true
			out = append(out, pt.Var)
		}
	}
	return out
}

// HasLiteral reports whether any position of the pattern is bound to a
// literal term. Patterns with literals receive the highest join priority
// in PRoST's statistics-based optimizer (paper §3.3).
func (tp TriplePattern) HasLiteral() bool {
	return (!tp.S.IsVar() && tp.S.Term.IsLiteral()) ||
		(!tp.O.IsVar() && tp.O.Term.IsLiteral())
}

// HasBoundObject reports whether the object position is a concrete term
// (IRI or literal). Bound objects are strong selectivity signals.
func (tp TriplePattern) HasBoundObject() bool { return !tp.O.IsVar() }

// CompareOp enumerates the comparison operators allowed in FILTER.
type CompareOp uint8

// Comparison operators.
const (
	OpEQ CompareOp = iota // =
	OpNE                  // !=
	OpLT                  // <
	OpLE                  // <=
	OpGT                  // >
	OpGE                  // >=
)

// String renders the operator in SPARQL surface syntax.
func (op CompareOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return fmt.Sprintf("CompareOp(%d)", uint8(op))
	}
}

// Filter is a simple comparison constraint "?var OP value". Conjunctions
// (FILTER(a && b)) are flattened into multiple Filter entries at parse
// time.
type Filter struct {
	Var   string
	Op    CompareOp
	Value rdf.Term
}

// String renders the filter in SPARQL surface syntax.
func (f Filter) String() string {
	return fmt.Sprintf("FILTER(?%s %s %s)", f.Var, f.Op, f.Value)
}

// GroupPattern is one UNION branch of a WHERE clause: a Basic Graph
// Pattern with its FILTERs plus any OPTIONAL sub-groups. The parser
// never nests OPTIONAL groups inside each other.
type GroupPattern struct {
	// Patterns is the required Basic Graph Pattern of the group.
	Patterns []TriplePattern
	// Filters holds the flattened FILTER constraints of the group.
	Filters []Filter
	// Optionals holds the OPTIONAL sub-groups, in source order. Each
	// becomes a left-outer join against the required part.
	Optionals []GroupPattern
}

// Vars returns the distinct variables bound by the group, including its
// OPTIONAL sub-groups, sorted.
func (g *GroupPattern) Vars() []string {
	seen := map[string]bool{}
	g.collectVars(seen)
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (g *GroupPattern) collectVars(seen map[string]bool) {
	for _, tp := range g.Patterns {
		for _, v := range tp.Vars() {
			seen[v] = true
		}
	}
	for i := range g.Optionals {
		g.Optionals[i].collectVars(seen)
	}
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	// Var is the sorted variable (without '?').
	Var string
	// Desc reports DESC(...) ordering; false means ASC.
	Desc bool
}

// CountSpec is one COUNT aggregate from the projection:
// (COUNT(?v) AS ?alias) or (COUNT(*) AS ?alias).
type CountSpec struct {
	// Var is the counted variable; empty means COUNT(*).
	Var string
	// Alias is the projected name of the count column.
	Alias string
}

// Query is a parsed SPARQL SELECT query.
type Query struct {
	// Name is an optional label (e.g. "S1") attached by the workload
	// generator; the parser leaves it empty.
	Name string
	// Vars is the projection list (variable names without '?'),
	// including COUNT aliases in SELECT order. Empty means SELECT *
	// (project every variable in the BGP).
	Vars []string
	// Distinct reports whether SELECT DISTINCT was used.
	Distinct bool
	// Patterns is the Basic Graph Pattern of the first UNION branch.
	// It always mirrors Branches[0].Patterns when Branches is set, so
	// single-BGP consumers keep working unchanged.
	Patterns []TriplePattern
	// Filters holds the flattened FILTER constraints of the first
	// branch (mirror of Branches[0].Filters when Branches is set).
	Filters []Filter
	// Branches holds the UNION branches of the WHERE clause. The
	// parser always fills it; programmatically built queries may leave
	// it empty, in which case Patterns/Filters form the single branch.
	Branches []GroupPattern
	// Order holds the ORDER BY keys, outermost first.
	Order []OrderKey
	// GroupBy holds the GROUP BY variables.
	GroupBy []string
	// Counts holds the COUNT aggregates of the projection.
	Counts []CountSpec
	// Limit caps the number of result rows; <0 means no limit.
	Limit int
	// Offset skips the first rows; 0 means none.
	Offset int
}

// BranchGroups returns the UNION branches of the query, synthesizing a
// single branch from Patterns/Filters for programmatically built
// queries that never populated Branches.
func (q *Query) BranchGroups() []GroupPattern {
	if len(q.Branches) > 0 {
		return q.Branches
	}
	return []GroupPattern{{Patterns: q.Patterns, Filters: q.Filters}}
}

// Extended reports whether the query uses any construct beyond a single
// conjunctive BGP with FILTERs: OPTIONAL, UNION, ORDER BY, GROUP BY,
// COUNT, or LIMIT/OFFSET (which executes as an explicit top-K operator
// with a deterministic total order).
func (q *Query) Extended() bool {
	if len(q.Branches) > 1 || len(q.Order) > 0 || len(q.GroupBy) > 0 || len(q.Counts) > 0 {
		return true
	}
	for i := range q.Branches {
		if len(q.Branches[i].Optionals) > 0 {
			return true
		}
	}
	return q.Limit >= 0 || q.Offset > 0
}

// CountAliases returns the set of projection names produced by COUNT
// aggregates rather than bound by the graph pattern.
func (q *Query) CountAliases() map[string]bool {
	if len(q.Counts) == 0 {
		return nil
	}
	m := make(map[string]bool, len(q.Counts))
	for _, c := range q.Counts {
		m[c.Alias] = true
	}
	return m
}

// AllVars returns every variable bound by the graph pattern (across all
// UNION branches and OPTIONAL groups), sorted. COUNT aliases are not
// included: they are projection names, not pattern bindings.
func (q *Query) AllVars() []string {
	seen := map[string]bool{}
	branches := q.BranchGroups()
	for i := range branches {
		branches[i].collectVars(seen)
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Projection returns the effective projection: Vars if present, otherwise
// all variables of the BGP.
func (q *Query) Projection() []string {
	if len(q.Vars) > 0 {
		return q.Vars
	}
	return q.AllVars()
}

// String renders the query in SPARQL surface syntax (without prefixes;
// all IRIs are absolute).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	aliases := map[string]string{} // alias -> rendered COUNT expression
	for _, c := range q.Counts {
		arg := "*"
		if c.Var != "" {
			arg = "?" + c.Var
		}
		aliases[c.Alias] = fmt.Sprintf("(COUNT(%s) AS ?%s)", arg, c.Alias)
	}
	if len(q.Vars) == 0 {
		sb.WriteString("*")
	} else {
		for i, v := range q.Vars {
			if i > 0 {
				sb.WriteByte(' ')
			}
			if expr, ok := aliases[v]; ok {
				sb.WriteString(expr)
			} else {
				sb.WriteString("?" + v)
			}
		}
	}
	sb.WriteString(" WHERE {\n")
	branches := q.BranchGroups()
	if len(branches) == 1 {
		writeGroupBody(&sb, &branches[0], "  ")
	} else {
		for i := range branches {
			if i > 0 {
				sb.WriteString("  UNION\n")
			}
			sb.WriteString("  {\n")
			writeGroupBody(&sb, &branches[i], "    ")
			sb.WriteString("  }\n")
		}
	}
	sb.WriteString("}")
	if len(q.GroupBy) > 0 {
		sb.WriteString("\nGROUP BY")
		for _, v := range q.GroupBy {
			sb.WriteString(" ?" + v)
		}
	}
	if len(q.Order) > 0 {
		sb.WriteString("\nORDER BY")
		for _, k := range q.Order {
			if k.Desc {
				sb.WriteString(" DESC(?" + k.Var + ")")
			} else {
				sb.WriteString(" ASC(?" + k.Var + ")")
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, "\nLIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&sb, "\nOFFSET %d", q.Offset)
	}
	return sb.String()
}

// writeGroupBody renders a group's patterns, filters, and OPTIONAL
// sub-groups with the given indentation.
func writeGroupBody(sb *strings.Builder, g *GroupPattern, indent string) {
	for _, tp := range g.Patterns {
		sb.WriteString(indent + tp.String() + " .\n")
	}
	for _, f := range g.Filters {
		sb.WriteString(indent + f.String() + "\n")
	}
	for i := range g.Optionals {
		sb.WriteString(indent + "OPTIONAL {\n")
		writeGroupBody(sb, &g.Optionals[i], indent+"  ")
		sb.WriteString(indent + "}\n")
	}
}

// Validate checks structural well-formedness: every branch has at least
// one pattern, predicates are IRIs or variables, subjects are not
// literals, filters reference variables bound by their own group, UNION
// branches bind identical variable sets, OPTIONAL groups share at least
// one variable with their required part, projected variables are bound
// (or COUNT aliases), ORDER BY keys are projected, and COUNT aggregates
// come with a GROUP BY.
func (q *Query) Validate() error {
	branches := q.BranchGroups()
	var branchVars []string
	for i := range branches {
		b := &branches[i]
		if len(b.Patterns) == 0 {
			return fmt.Errorf("sparql: query has no triple patterns")
		}
		baseVars, err := validateGroup(b)
		if err != nil {
			return err
		}
		for j := range b.Optionals {
			o := &b.Optionals[j]
			if len(o.Patterns) == 0 {
				return fmt.Errorf("sparql: OPTIONAL group has no triple patterns")
			}
			optVars, err := validateGroup(o)
			if err != nil {
				return err
			}
			shared := false
			for v := range optVars {
				if baseVars[v] {
					shared = true
					break
				}
			}
			if !shared {
				return fmt.Errorf("sparql: OPTIONAL group shares no variable with the required pattern")
			}
		}
		vars := b.Vars()
		if i == 0 {
			branchVars = vars
		} else if !equalStrings(branchVars, vars) {
			return fmt.Errorf("sparql: UNION branches bind different variables (%v vs %v)", branchVars, vars)
		}
	}
	bound := map[string]bool{}
	for _, v := range branchVars {
		bound[v] = true
	}
	aliases := map[string]bool{}
	for _, c := range q.Counts {
		if c.Alias == "" {
			return fmt.Errorf("sparql: COUNT aggregate missing alias")
		}
		if aliases[c.Alias] {
			return fmt.Errorf("sparql: duplicate COUNT alias ?%s", c.Alias)
		}
		if bound[c.Alias] {
			return fmt.Errorf("sparql: COUNT alias ?%s clashes with a pattern variable", c.Alias)
		}
		aliases[c.Alias] = true
		if c.Var != "" && !bound[c.Var] {
			return fmt.Errorf("sparql: counted variable ?%s not in BGP", c.Var)
		}
	}
	if len(q.Counts) > 0 && len(q.GroupBy) == 0 {
		return fmt.Errorf("sparql: COUNT aggregate requires GROUP BY")
	}
	grouped := map[string]bool{}
	for _, v := range q.GroupBy {
		if !bound[v] {
			return fmt.Errorf("sparql: GROUP BY variable ?%s not in BGP", v)
		}
		grouped[v] = true
	}
	for _, v := range q.Vars {
		if aliases[v] {
			// Each alias is projected once, by its own COUNT; a second
			// occurrence is a plain variable the pattern does not bind.
			aliases[v] = false
			continue
		}
		if !bound[v] {
			return fmt.Errorf("sparql: projected variable ?%s not in BGP", v)
		}
		if len(q.GroupBy) > 0 && !grouped[v] {
			return fmt.Errorf("sparql: projected variable ?%s is neither grouped nor aggregated", v)
		}
	}
	if len(q.GroupBy) > 0 && len(q.Vars) == 0 {
		return fmt.Errorf("sparql: SELECT * cannot be combined with GROUP BY")
	}
	proj := map[string]bool{}
	for _, v := range q.Projection() {
		proj[v] = true
	}
	for _, k := range q.Order {
		if !proj[k.Var] {
			return fmt.Errorf("sparql: ORDER BY key ?%s is not projected", k.Var)
		}
	}
	return nil
}

// validateGroup checks one group's term rules and filter scoping and
// returns the variables bound by its own patterns.
func validateGroup(g *GroupPattern) (map[string]bool, error) {
	vars := map[string]bool{}
	for _, tp := range g.Patterns {
		for _, v := range tp.Vars() {
			vars[v] = true
		}
		if !tp.P.IsVar() && !tp.P.Term.IsIRI() {
			return nil, fmt.Errorf("sparql: predicate %s is not an IRI", tp.P)
		}
		if !tp.S.IsVar() && tp.S.Term.IsLiteral() {
			return nil, fmt.Errorf("sparql: subject %s is a literal", tp.S)
		}
	}
	for _, f := range g.Filters {
		if !vars[f.Var] {
			return nil, fmt.Errorf("sparql: filtered variable ?%s not in BGP", f.Var)
		}
	}
	return vars, nil
}

// equalStrings reports element-wise equality of two sorted slices.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
