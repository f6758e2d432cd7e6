package s2rdf

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stats"
)

const ns = "http://example.org/"

func fixtureGraph() *rdf.Graph {
	iri := func(s string) rdf.Term { return rdf.NewIRI(ns + s) }
	g := rdf.NewGraph(0)
	add := func(s, p string, o rdf.Term) { g.AddSPO(iri(s), iri(p), o) }
	// Follow chain u0→u1→…→u9→u0; only u1 likes anything, so the OS
	// reduction of follows against likes keeps 1 of 10 rows.
	users := []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9"}
	for i, u := range users {
		add(u, "follows", iri(users[(i+1)%len(users)]))
	}
	add("u1", "likes", iri("pA"))
	add("pA", "genre", iri("g1"))
	add("u0", "name", rdf.NewLiteral("alice"))
	add("u1", "name", rdf.NewLiteral("bob"))
	return g
}

func fixtureStore(t *testing.T) *Store {
	t.Helper()
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	st, err := core.Load(fixtureGraph(), core.Options{Cluster: c})
	if err != nil {
		t.Fatalf("core.Load: %v", err)
	}
	s, err := Load(st, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

func run(t *testing.T, s *Store, src string) ([]string, *Result) {
	t.Helper()
	res, err := s.Query(sparql.MustParse(src))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var rows []string
	for _, r := range res.Rows {
		var parts []string
		for _, term := range r {
			parts = append(parts, strings.TrimPrefix(term.Value, ns))
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sortStrings(rows)
	return rows, res
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestLoadMaterializesExtVP(t *testing.T) {
	s := fixtureStore(t)
	rep := s.LoadReport()
	if rep.Triples != 14 {
		t.Errorf("Triples = %d, want 14", rep.Triples)
	}
	if rep.ExtVPTables == 0 {
		t.Errorf("no ExtVP tables materialized")
	}
	if rep.SizeBytes <= 0 || rep.LoadTime <= 0 {
		t.Errorf("LoadReport = %+v", rep)
	}
	// The SS reduction follows⋉likes keeps only follows rows whose
	// subject likes something: u1 → 1 of 10 rows (selectivity 0.1).
	follows, _ := s.dict.Lookup(rdf.NewIRI(ns + "follows"))
	likes, _ := s.dict.Lookup(rdf.NewIRI(ns + "likes"))
	ext, ok := s.ext[extKey{p: follows, q: likes, kind: stats.JoinSS}]
	if !ok {
		t.Fatalf("ExtVP SS(follows|likes) not materialized")
	}
	if ext.Rows() != 1 {
		t.Errorf("ExtVP SS(follows|likes) rows = %d, want 1", ext.Rows())
	}
	// The reverse reduction likes⋉follows keeps all likes rows
	// (selectivity 1.0 > threshold): must NOT be materialized.
	if _, ok := s.ext[extKey{p: likes, q: follows, kind: stats.JoinSS}]; ok {
		t.Errorf("ExtVP SS(likes|follows) materialized despite selectivity 1.0")
	}
}

func TestExtVPLargerThanVPOnDisk(t *testing.T) {
	// The whole point of Table 1: S2RDF's database is much bigger than
	// plain VP because of the reductions.
	s := fixtureStore(t)
	vpBytes := s.fs.LogicalBytes("/s2rdf/vp/")
	extBytes := s.fs.LogicalBytes("/s2rdf/extvp/")
	if extBytes == 0 {
		t.Fatalf("no ExtVP bytes on HDFS")
	}
	if s.LoadReport().SizeBytes != vpBytes+extBytes {
		t.Errorf("SizeBytes %d != vp %d + extvp %d", s.LoadReport().SizeBytes, vpBytes, extBytes)
	}
}

func TestQueryUsesSmallestTable(t *testing.T) {
	s := fixtureStore(t)
	q := sparql.MustParse(`SELECT ?a ?p WHERE {
		?a <http://example.org/follows> ?b .
		?b <http://example.org/likes> ?p .
	}`)
	choices, err := s.choosePatternTables(q.Patterns)
	if err != nil {
		t.Fatalf("choosePatternTables: %v", err)
	}
	// Pattern 0 (follows) must pick the OS reduction (follows.o ∈
	// likes.s keeps rows pointing at likers) or the SS — whichever is
	// smaller — not the full VP of 10 rows.
	if choices[0].Table.Rows() >= 10 {
		t.Errorf("pattern 0 chose table with %d rows (%s); expected an ExtVP reduction", choices[0].Table.Rows(), choices[0].Label)
	}
	if !strings.Contains(choices[0].Label, "ExtVP") {
		t.Errorf("pattern 0 label = %q, want an ExtVP table", choices[0].Label)
	}
}

func TestQuerySemantics(t *testing.T) {
	s := fixtureStore(t)
	rows, _ := run(t, s, `SELECT ?a ?p WHERE {
		?a <http://example.org/follows> ?b .
		?b <http://example.org/likes> ?p .
	}`)
	want := []string{"u0|pA"}
	if strings.Join(rows, " ") != strings.Join(want, " ") {
		t.Errorf("rows = %v, want %v", rows, want)
	}
}

func TestQueryStarAndChain(t *testing.T) {
	s := fixtureStore(t)
	rows, _ := run(t, s, `SELECT ?n ?g WHERE {
		?u <http://example.org/name> ?n .
		?u <http://example.org/likes> ?p .
		?p <http://example.org/genre> ?g .
	}`)
	if len(rows) != 1 || rows[0] != "bob|g1" {
		t.Errorf("rows = %v, want [bob|g1]", rows)
	}
}

func TestQueryEmptyAndModifiers(t *testing.T) {
	s := fixtureStore(t)
	rows, _ := run(t, s, `SELECT ?u WHERE { ?u <http://example.org/nope> ?x . }`)
	if len(rows) != 0 {
		t.Errorf("rows = %v, want empty", rows)
	}
	rows, _ = run(t, s, `SELECT DISTINCT ?b WHERE { ?a <http://example.org/follows> ?b . } LIMIT 1`)
	if len(rows) != 1 || rows[0] != "u1" {
		t.Errorf("rows = %v, want [u1]", rows)
	}
}

func TestQueryUsesSQLStages(t *testing.T) {
	s := fixtureStore(t)
	_, res := run(t, s, `SELECT ?a WHERE {
		?a <http://example.org/follows> ?b .
		?b <http://example.org/likes> ?p .
	}`)
	rddSubmit := cluster.DefaultCostModel().RDDSubmit
	for _, st := range res.Clock.Stages() {
		if st.Launch >= rddSubmit {
			t.Errorf("S2RDF stage %q paid a spark-submit launch (%v); it runs in a warm SQL session", st.Name, st.Launch)
		}
	}
	if res.SimTime <= 0 {
		t.Errorf("SimTime = %v", res.SimTime)
	}
}

func TestVariablePredicateRejected(t *testing.T) {
	s := fixtureStore(t)
	if _, err := s.Query(sparql.MustParse(`SELECT ?p WHERE { <http://example.org/u0> ?p ?o . }`)); err == nil {
		t.Errorf("variable predicate accepted")
	}
}

func TestCorrelations(t *testing.T) {
	v := sparql.Variable
	b := func(s string) sparql.PatternTerm { return sparql.Bound(rdf.NewIRI(s)) }
	a := sparql.TriplePattern{S: v("x"), P: b("p1"), O: v("y")}
	tests := []struct {
		name  string
		other sparql.TriplePattern
		want  []stats.JoinPos
	}{
		{"ss", sparql.TriplePattern{S: v("x"), P: b("p2"), O: v("z")}, []stats.JoinPos{stats.JoinSS}},
		{"so", sparql.TriplePattern{S: v("z"), P: b("p2"), O: v("x")}, []stats.JoinPos{stats.JoinSO}},
		{"os", sparql.TriplePattern{S: v("y"), P: b("p2"), O: v("z")}, []stats.JoinPos{stats.JoinOS}},
		{"oo", sparql.TriplePattern{S: v("z"), P: b("p2"), O: v("y")}, []stats.JoinPos{stats.JoinOO}},
		{"none", sparql.TriplePattern{S: v("q"), P: b("p2"), O: v("z")}, nil},
		{"both", sparql.TriplePattern{S: v("x"), P: b("p2"), O: v("y")}, []stats.JoinPos{stats.JoinSS, stats.JoinOO}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := correlations(a, tt.other)
			if len(got) != len(tt.want) {
				t.Fatalf("correlations = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("correlations = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestLoadRequiresCluster(t *testing.T) {
	if _, err := Load(nil, Options{}); err == nil {
		t.Errorf("Load without a PRoST store succeeded")
	}
}
