package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestParseSimpleBGP(t *testing.T) {
	q, err := Parse(`
		SELECT ?v0 ?v1 WHERE {
			?v0 <http://example.org/follows> ?v1 .
			?v1 <http://example.org/likes> <http://example.org/Product0> .
		}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(q.Patterns))
	}
	if got := q.Patterns[0].S; !got.IsVar() || got.Var != "v0" {
		t.Errorf("pattern 0 subject = %v", got)
	}
	if got := q.Patterns[1].O; got.IsVar() || got.Term.Value != "http://example.org/Product0" {
		t.Errorf("pattern 1 object = %v", got)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "v0" || q.Vars[1] != "v1" {
		t.Errorf("Vars = %v", q.Vars)
	}
	if q.Limit != -1 || q.Distinct {
		t.Errorf("unexpected modifiers: limit=%d distinct=%v", q.Limit, q.Distinct)
	}
}

func TestParsePrefixes(t *testing.T) {
	q, err := Parse(`
		PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
		PREFIX rev: <http://purl.org/stuff/rev#>
		SELECT * WHERE {
			?v0 wsdbm:follows ?v1 .
			?v1 rev:hasReview ?v2 .
		}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := q.Patterns[0].P.Term.Value; got != "http://db.uwaterloo.ca/~galuc/wsdbm/follows" {
		t.Errorf("expanded predicate = %q", got)
	}
	if got := q.Patterns[1].P.Term.Value; got != "http://purl.org/stuff/rev#hasReview" {
		t.Errorf("expanded predicate = %q", got)
	}
	// SELECT *: projection covers all BGP vars.
	proj := q.Projection()
	if len(proj) != 3 {
		t.Errorf("Projection() = %v, want 3 vars", proj)
	}
}

func TestParseAKeyword(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?s a <http://example.org/User> . }`)
	if got := q.Patterns[0].P.Term.Value; got != RDFType {
		t.Errorf("'a' expanded to %q, want rdf:type", got)
	}
}

func TestParseSemicolonAndComma(t *testing.T) {
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT * WHERE {
			?s ex:p1 ?a ;
			   ex:p2 ?b , ?c .
		}`)
	if len(q.Patterns) != 3 {
		t.Fatalf("patterns = %d, want 3", len(q.Patterns))
	}
	for i, tp := range q.Patterns {
		if !tp.S.IsVar() || tp.S.Var != "s" {
			t.Errorf("pattern %d subject = %v, want ?s", i, tp.S)
		}
	}
	if q.Patterns[1].O.Var != "b" || q.Patterns[2].O.Var != "c" {
		t.Errorf("comma list objects wrong: %v %v", q.Patterns[1].O, q.Patterns[2].O)
	}
	if q.Patterns[1].P.Term.Value != "http://example.org/p2" || q.Patterns[2].P.Term.Value != "http://example.org/p2" {
		t.Errorf("comma list predicates wrong")
	}
}

func TestParseLiterals(t *testing.T) {
	q := MustParse(`
		PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
		SELECT * WHERE {
			?s <http://p1> "plain" .
			?s <http://p2> "typed"^^xsd:string .
			?s <http://p3> "tagged"@en .
			?s <http://p4> 42 .
		}`)
	want := []rdf.Term{
		rdf.NewLiteral("plain"),
		rdf.NewTypedLiteral("typed", rdf.XSDString),
		rdf.NewLangLiteral("tagged", "en"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
	}
	for i, w := range want {
		if got := q.Patterns[i].O.Term; got != w {
			t.Errorf("pattern %d object = %v, want %v", i, got, w)
		}
	}
}

func TestParseDistinctLimitOffset(t *testing.T) {
	q := MustParse(`SELECT DISTINCT ?s WHERE { ?s <http://p> ?o . } LIMIT 10 OFFSET 5`)
	if !q.Distinct {
		t.Errorf("Distinct = false")
	}
	if q.Limit != 10 {
		t.Errorf("Limit = %d, want 10", q.Limit)
	}
	if q.Offset != 5 {
		t.Errorf("Offset = %d, want 5", q.Offset)
	}
}

func TestParseFilter(t *testing.T) {
	q := MustParse(`
		SELECT * WHERE {
			?s <http://p> ?o .
			FILTER(?o > 10 && ?o <= 100)
			FILTER(?s != <http://example.org/x>)
		}`)
	if len(q.Filters) != 3 {
		t.Fatalf("filters = %d, want 3", len(q.Filters))
	}
	f0 := q.Filters[0]
	if f0.Var != "o" || f0.Op != OpGT || f0.Value.Value != "10" {
		t.Errorf("filter 0 = %v", f0)
	}
	f1 := q.Filters[1]
	if f1.Var != "o" || f1.Op != OpLE || f1.Value.Value != "100" {
		t.Errorf("filter 1 = %v", f1)
	}
	f2 := q.Filters[2]
	if f2.Var != "s" || f2.Op != OpNE || !f2.Value.IsIRI() {
		t.Errorf("filter 2 = %v", f2)
	}
}

func TestParseFilterLessThanVsIRI(t *testing.T) {
	// '<' must lex as an operator inside FILTER but as an IRI opener in
	// pattern position.
	q := MustParse(`SELECT * WHERE { ?s <http://p> ?o . FILTER(?o < 5) }`)
	if len(q.Filters) != 1 || q.Filters[0].Op != OpLT {
		t.Fatalf("filters = %v", q.Filters)
	}
}

func TestParseComments(t *testing.T) {
	q := MustParse(`
		# leading comment
		SELECT * WHERE {
			?s <http://p> ?o . # trailing comment
		}`)
	if len(q.Patterns) != 1 {
		t.Errorf("patterns = %d, want 1", len(q.Patterns))
	}
}

func TestParseOptional(t *testing.T) {
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?s ?name WHERE {
			?s ex:follows ?f .
			OPTIONAL { ?s ex:name ?name . FILTER(?name != "x") }
		}`)
	if len(q.Branches) != 1 {
		t.Fatalf("branches = %d, want 1", len(q.Branches))
	}
	b := q.Branches[0]
	if len(b.Patterns) != 1 || len(b.Optionals) != 1 {
		t.Fatalf("base patterns = %d optionals = %d", len(b.Patterns), len(b.Optionals))
	}
	opt := b.Optionals[0]
	if len(opt.Patterns) != 1 || len(opt.Filters) != 1 {
		t.Errorf("optional group patterns = %d filters = %d", len(opt.Patterns), len(opt.Filters))
	}
	if !q.Extended() {
		t.Errorf("Extended() = false for OPTIONAL query")
	}
	// Patterns mirrors the first branch's required part.
	if len(q.Patterns) != 1 {
		t.Errorf("Patterns mirror = %d, want 1", len(q.Patterns))
	}
	if got := q.AllVars(); len(got) != 3 {
		t.Errorf("AllVars = %v, want 3 vars", got)
	}
}

func TestParseUnion(t *testing.T) {
	q := MustParse(`
		PREFIX ex: <http://example.org/>
		SELECT ?a ?b WHERE {
			{ ?a ex:p1 ?b . }
			UNION
			{ ?a ex:p2 ?b . }
			UNION
			{ ?a ex:p3 ?b . }
		}`)
	if len(q.Branches) != 3 {
		t.Fatalf("branches = %d, want 3", len(q.Branches))
	}
	for i, want := range []string{"p1", "p2", "p3"} {
		if got := q.Branches[i].Patterns[0].P.Term.Value; got != "http://example.org/"+want {
			t.Errorf("branch %d predicate = %q", i, got)
		}
	}
	if !q.Extended() {
		t.Errorf("Extended() = false for UNION query")
	}
}

func TestParseOrderByLimit(t *testing.T) {
	q := MustParse(`
		SELECT ?s ?o WHERE { ?s <http://p> ?o . }
		ORDER BY DESC(?o) ?s
		LIMIT 5 OFFSET 2`)
	if len(q.Order) != 2 {
		t.Fatalf("order keys = %d, want 2", len(q.Order))
	}
	if q.Order[0].Var != "o" || !q.Order[0].Desc {
		t.Errorf("order[0] = %+v, want DESC(?o)", q.Order[0])
	}
	if q.Order[1].Var != "s" || q.Order[1].Desc {
		t.Errorf("order[1] = %+v, want ASC ?s", q.Order[1])
	}
	if q.Limit != 5 || q.Offset != 2 {
		t.Errorf("limit=%d offset=%d", q.Limit, q.Offset)
	}
}

func TestParseGroupByCount(t *testing.T) {
	q := MustParse(`
		SELECT ?s (COUNT(?o) AS ?n) (COUNT(*) AS ?total) WHERE {
			?s <http://p> ?o .
		}
		GROUP BY ?s
		ORDER BY DESC(?n)`)
	if len(q.Counts) != 2 {
		t.Fatalf("counts = %d, want 2", len(q.Counts))
	}
	if q.Counts[0].Var != "o" || q.Counts[0].Alias != "n" {
		t.Errorf("counts[0] = %+v", q.Counts[0])
	}
	if q.Counts[1].Var != "" || q.Counts[1].Alias != "total" {
		t.Errorf("counts[1] = %+v, want COUNT(*)", q.Counts[1])
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "s" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
	if want := []string{"s", "n", "total"}; len(q.Vars) != 3 || q.Vars[0] != want[0] || q.Vars[1] != want[1] || q.Vars[2] != want[2] {
		t.Errorf("Vars = %v, want %v", q.Vars, want)
	}
	if !q.CountAliases()["n"] || !q.CountAliases()["total"] {
		t.Errorf("CountAliases = %v", q.CountAliases())
	}
}

func TestExtendedStringRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT ?s ?name WHERE { ?s <http://p> ?f . OPTIONAL { ?s <http://name> ?name . } } LIMIT 3`,
		`SELECT ?a ?b WHERE { { ?a <http://p1> ?b . } UNION { ?a <http://p2> ?b . } } ORDER BY ?a DESC(?b)`,
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <http://p> ?o . } GROUP BY ?s ORDER BY DESC(?n) LIMIT 10`,
	}
	for _, src := range srcs {
		q1 := MustParse(src)
		q2 := MustParse(q1.String())
		if q1.String() != q2.String() {
			t.Errorf("round trip mismatch:\n%s\nvs\n%s", q1.String(), q2.String())
		}
	}
}

// parseErrorCases are sources Parse must reject (FuzzParse seeds its
// corpus with them too).
var parseErrorCases = []struct {
	name string
	src  string
}{
	{"empty", ""},
	{"no where", "SELECT ?s"},
	{"no brace", "SELECT ?s WHERE ?s <http://p> ?o ."},
	{"unclosed brace", "SELECT ?s WHERE { ?s <http://p> ?o ."},
	{"undeclared prefix", "SELECT * WHERE { ?s ex:p ?o . }"},
	{"empty group", "SELECT ?s WHERE { }"},
	{"projected var missing", "SELECT ?zzz WHERE { ?s <http://p> ?o . }"},
	{"filtered var missing", "SELECT * WHERE { ?s <http://p> ?o . FILTER(?zzz = 1) }"},
	{"literal subject", `SELECT * WHERE { "lit" <http://p> ?o . }`},
	{"literal predicate", `SELECT * WHERE { ?s "lit" ?o . }`},
	{"no projection", "SELECT WHERE { ?s <http://p> ?o . }"},
	{"bad limit", "SELECT * WHERE { ?s <http://p> ?o . } LIMIT x"},
	{"trailing garbage", "SELECT * WHERE { ?s <http://p> ?o . } BOGUS"},
	{"filter missing paren", "SELECT * WHERE { ?s <http://p> ?o . FILTER ?o = 1 }"},
	{"empty var", "SELECT ? WHERE { ?s <http://p> ?o . }"},
	{"lone ampersand", "SELECT * WHERE { ?s <http://p> ?o . FILTER(?o = 1 & ?o = 2) }"},
	{"unclosed optional", "SELECT * WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?x . }"},
	{"optional missing brace", "SELECT * WHERE { ?s <http://p> ?o . OPTIONAL ?s <http://q> ?x . }"},
	{"empty optional", "SELECT * WHERE { ?s <http://p> ?o . OPTIONAL { } }"},
	{"nested optional", "SELECT * WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?x . OPTIONAL { ?x <http://r> ?y . } } }"},
	{"disjoint optional", "SELECT * WHERE { ?s <http://p> ?o . OPTIONAL { ?x <http://q> ?y . } }"},
	{"union single branch", "SELECT ?a WHERE { { ?a <http://p> ?b . } }"},
	{"union missing second brace", "SELECT ?a WHERE { { ?a <http://p> ?b . } UNION ?a <http://q> ?b . }"},
	{"union unclosed branch", "SELECT ?a WHERE { { ?a <http://p> ?b . } UNION { ?a <http://q> ?b . }"},
	{"union mismatched vars", "SELECT ?a WHERE { { ?a <http://p> ?b . } UNION { ?a <http://q> ?c . } }"},
	{"union brace inside plain group", "SELECT * WHERE { ?s <http://p> ?o . { ?s <http://q> ?x . } }"},
	{"count without group by", "SELECT (COUNT(?o) AS ?n) WHERE { ?s <http://p> ?o . }"},
	{"count missing as", "SELECT (COUNT(?o) ?n) WHERE { ?s <http://p> ?o . } GROUP BY ?s"},
	{"count missing alias", "SELECT (COUNT(?o) AS) WHERE { ?s <http://p> ?o . } GROUP BY ?s"},
	{"count bad argument", `SELECT (COUNT("x") AS ?n) WHERE { ?s <http://p> ?o . } GROUP BY ?s`},
	{"count alias clash", "SELECT ?s (COUNT(?o) AS ?o) WHERE { ?s <http://p> ?o . } GROUP BY ?s"},
	{"count alias also projected", "SELECT ?s ?n (COUNT(*) AS ?n) WHERE { ?s <http://p> ?o . } GROUP BY ?s"},
	{"ungrouped projection", "SELECT ?s ?o (COUNT(*) AS ?n) WHERE { ?s <http://p> ?o . } GROUP BY ?s"},
	{"group by unknown var", "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://p> ?o . } GROUP BY ?zzz"},
	{"group by no vars", "SELECT ?s WHERE { ?s <http://p> ?o . } GROUP BY"},
	{"order by bare desc", "SELECT ?s WHERE { ?s <http://p> ?o . } ORDER BY DESC ?s"},
	{"order by no keys", "SELECT ?s WHERE { ?s <http://p> ?o . } ORDER BY"},
	{"order by unprojected", "SELECT ?s WHERE { ?s <http://p> ?o . } ORDER BY ?o"},
	{"order by unclosed paren", "SELECT ?s WHERE { ?s <http://p> ?o . } ORDER BY ASC(?s"},
}

func TestParseErrors(t *testing.T) {
	for _, tt := range parseErrorCases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tt.src)
			}
		})
	}
}

func TestExtendedErrorsArePositioned(t *testing.T) {
	// Every new-syntax failure must surface as a *SyntaxError carrying a
	// source position, never a panic or an unpositioned error.
	tests := []struct {
		name     string
		src      string
		wantLine int
	}{
		{"unclosed optional", "SELECT * WHERE {\n  ?s <http://p> ?o .\n  OPTIONAL { ?s <http://q> ?x .\n}", 4},
		{"optional missing brace", "SELECT * WHERE {\n  ?s <http://p> ?o .\n  OPTIONAL ?s <http://q> ?x .\n}", 3},
		{"union single branch", "SELECT ?a WHERE {\n  { ?a <http://p> ?b . }\n}", 3},
		{"union missing brace", "SELECT ?a WHERE {\n  { ?a <http://p> ?b . }\n  UNION ?a <http://q> ?b .\n}", 3},
		{"count without group by", "SELECT (COUNT(?o) AS ?n) WHERE {\n  ?s <http://p> ?o .\n}", 3},
		{"order by bare desc", "SELECT ?s WHERE { ?s <http://p> ?o . }\nORDER BY DESC ?s", 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want positioned error")
			}
			se, ok := err.(*SyntaxError)
			if !ok {
				t.Fatalf("error %T (%v), want *SyntaxError", err, err)
			}
			if se.Line != tt.wantLine {
				t.Errorf("error line = %d, want %d (%v)", se.Line, tt.wantLine, se)
			}
		})
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("SELECT * WHERE {\n  ?s <http://p> ?o .\n  bogus\n}")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error %T, want *SyntaxError", err)
	}
	if se.Line != 3 {
		t.Errorf("error line = %d, want 3", se.Line)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT DISTINCT ?a ?b WHERE {
		?a <http://p1> ?b .
		?b <http://p2> "x" .
	} LIMIT 7`
	q1 := MustParse(src)
	q2 := MustParse(q1.String())
	if q1.String() != q2.String() {
		t.Errorf("String round trip mismatch:\n%s\nvs\n%s", q1.String(), q2.String())
	}
	if !strings.Contains(q1.String(), "LIMIT 7") {
		t.Errorf("String() lost LIMIT: %s", q1.String())
	}
}

func TestPatternHelpers(t *testing.T) {
	tp := TriplePattern{
		S: Variable("s"),
		P: Bound(rdf.NewIRI("http://p")),
		O: Bound(rdf.NewLiteral("x")),
	}
	if !tp.HasLiteral() {
		t.Errorf("HasLiteral() = false, want true")
	}
	if !tp.HasBoundObject() {
		t.Errorf("HasBoundObject() = false")
	}
	if vars := tp.Vars(); len(vars) != 1 || vars[0] != "s" {
		t.Errorf("Vars() = %v", vars)
	}
	tp2 := TriplePattern{S: Variable("x"), P: Variable("x"), O: Variable("y")}
	if vars := tp2.Vars(); len(vars) != 2 {
		t.Errorf("Vars() dedup failed: %v", vars)
	}
}
