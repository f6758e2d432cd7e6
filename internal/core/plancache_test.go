package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/testenv"
	"repro/internal/watdiv"
)

// legacyPlanCacheKey is planCacheKey as it was rendered through
// fmt.Sprintf and strings.Builder — the reference the appended key must
// equal byte for byte.
func legacyPlanCacheKey(q *sparql.Query, r resolved, wlEpoch uint64) string {
	var sb strings.Builder
	sb.WriteString(r.mode.String())
	sb.WriteByte('|')
	sb.WriteString(r.strategy.String())
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatInt(r.broadcastOpt, 10))
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatUint(wlEpoch, 10))
	if r.extvp {
		sb.WriteString("+extvp")
	}
	sb.WriteByte('|')
	if q.Distinct {
		sb.WriteString("distinct")
	}
	sb.WriteByte('|')
	for i, v := range q.Projection() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(v)
	}
	sb.WriteByte('|')
	for _, tp := range q.Patterns {
		sb.WriteString(legacyPattern(tp))
		sb.WriteByte('\n')
	}
	sb.WriteByte('|')
	for _, f := range q.Filters {
		sb.WriteString(legacyFilter(f))
		sb.WriteByte('\n')
	}
	if q.Extended() {
		sb.WriteString("|ext|")
		sb.WriteString(legacyQuery(q))
	}
	return sb.String()
}

func legacyPattern(tp sparql.TriplePattern) string {
	return fmt.Sprintf("%s %s %s", tp.S, tp.P, tp.O)
}

func legacyFilter(f sparql.Filter) string {
	return fmt.Sprintf("FILTER(?%s %s %s)", f.Var, f.Op, f.Value)
}

// legacyQuery is the fmt-based Query.String the key used to embed.
func legacyQuery(q *sparql.Query) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	aliases := map[string]string{}
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
		legacyGroupBody(&sb, &branches[0], "  ")
	} else {
		for i := range branches {
			if i > 0 {
				sb.WriteString("  UNION\n")
			}
			sb.WriteString("  {\n")
			legacyGroupBody(&sb, &branches[i], "    ")
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

func legacyGroupBody(sb *strings.Builder, g *sparql.GroupPattern, indent string) {
	for _, tp := range g.Patterns {
		sb.WriteString(indent + legacyPattern(tp) + " .\n")
	}
	for _, f := range g.Filters {
		sb.WriteString(indent + legacyFilter(f) + "\n")
	}
	for i := range g.Optionals {
		sb.WriteString(indent + "OPTIONAL {\n")
		legacyGroupBody(sb, &g.Optionals[i], indent+"  ")
		sb.WriteString(indent + "}\n")
	}
}

// keyOptions are resolved options spelling every part of the key.
var keyOptions = []resolved{
	{mode: plan.ModeCost, strategy: StrategyMixed, broadcastOpt: 0, extvp: true},
	{mode: plan.ModeNaive, strategy: StrategyMixedIPT, broadcastOpt: -1},
	{mode: plan.ModeCostLeftDeep, strategy: StrategyVPOnly, broadcastOpt: 1 << 20},
}

const keyEpoch = 42

// TestPlanCacheKeyMatchesLegacyRendering: the key appended term by term
// is byte-identical to the old fmt rendering for every WatDiv and
// extended query — and for FILTERs over escaped, typed and tagged
// literals, nested OPTIONALs, UNION, COUNT(*) and SELECT * — under every
// resolved option the key spells.
func TestPlanCacheKeyMatchesLegacyRendering(t *testing.T) {
	queries := append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...)
	for i, text := range []string{
		`SELECT DISTINCT ?s ?o WHERE { ?s <http://ex.org/p> ?o . ?s <http://ex.org/q> "a \"quoted\"\nline\\" . FILTER(?o >= "7"^^<http://www.w3.org/2001/XMLSchema#integer>) FILTER(?s != "x"@en) }`,
		`SELECT ?s (COUNT(*) AS ?n) WHERE { { ?s <http://ex.org/p> ?o . OPTIONAL { ?o <http://ex.org/q> ?x . FILTER(?x < "3") } } UNION { ?s <http://ex.org/r> ?o . OPTIONAL { ?o <http://ex.org/q> ?x . } } } GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT 5 OFFSET 2`,
		`SELECT * WHERE { ?s ?p ?b . FILTER(?s = <http://ex.org/a>) }`,
	} {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		queries = append(queries, watdiv.Query{Name: fmt.Sprintf("query %d", i), Parsed: q})
	}
	for _, wq := range queries {
		for oi, r := range keyOptions {
			got, want := planCacheKey(wq.Parsed, r, keyEpoch), legacyPlanCacheKey(wq.Parsed, r, keyEpoch)
			if got != want {
				t.Fatalf("%s, options %d: key\n%q\nwant\n%q", wq.Name, oi, got, want)
			}
		}
	}
}

// TestPlanCacheKeyAllocatesOnce: building the key of any WatDiv or
// extended query allocates once — the key string.
func TestPlanCacheKeyAllocatesOnce(t *testing.T) {
	testenv.SkipUnderRace(t)
	for _, wq := range append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...) {
		for _, r := range keyOptions {
			var key string
			if a := testenv.AllocsPerRun(t, 10, func() { key = planCacheKey(wq.Parsed, r, keyEpoch) }); a > 1 {
				t.Errorf("%s: building its %d-byte key allocates %.0f times, want 1", wq.Name, len(key), a)
			}
		}
	}
}
