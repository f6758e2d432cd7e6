package sparqlgx

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

const ns = "http://example.org/"

func fixtureGraph() *rdf.Graph {
	iri := func(s string) rdf.Term { return rdf.NewIRI(ns + s) }
	g := rdf.NewGraph(0)
	add := func(s, p string, o rdf.Term) { g.AddSPO(iri(s), iri(p), o) }
	add("u0", "follows", iri("u1"))
	add("u0", "follows", iri("u2"))
	add("u1", "follows", iri("u2"))
	add("u0", "likes", iri("pA"))
	add("u1", "likes", iri("pA"))
	add("u1", "likes", iri("pB"))
	add("u2", "likes", iri("pB"))
	add("pA", "genre", iri("g1"))
	add("pB", "genre", iri("g2"))
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
	s, err := Load(st)
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

func TestLoadReport(t *testing.T) {
	s := fixtureStore(t)
	rep := s.LoadReport()
	if rep.Triples != 11 {
		t.Errorf("Triples = %d, want 11", rep.Triples)
	}
	if rep.SizeBytes <= 0 || rep.LoadTime <= 0 {
		t.Errorf("LoadReport = %+v", rep)
	}
}

func TestQueryChain(t *testing.T) {
	s := fixtureStore(t)
	rows, _ := run(t, s, `SELECT ?u ?g WHERE {
		?u <http://example.org/likes> ?p .
		?p <http://example.org/genre> ?g .
	}`)
	want := []string{"u0|g1", "u1|g1", "u1|g2", "u2|g2"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, rows[i], want[i])
		}
	}
}

func TestQueryStarWithLiteral(t *testing.T) {
	s := fixtureStore(t)
	rows, _ := run(t, s, `SELECT ?u WHERE {
		?u <http://example.org/name> "bob" .
		?u <http://example.org/likes> ?p .
	}`)
	if len(rows) != 2 || rows[0] != "u1" || rows[1] != "u1" {
		t.Errorf("rows = %v, want [u1 u1]", rows)
	}
}

func TestQueryUsesRDDStagesAndNoBroadcast(t *testing.T) {
	s := fixtureStore(t)
	_, res := run(t, s, `SELECT ?u ?g WHERE {
		?u <http://example.org/likes> ?p .
		?p <http://example.org/genre> ?g .
	}`)
	stages := res.Clock.Stages()
	if len(stages) == 0 {
		t.Fatalf("no stages recorded")
	}
	for _, st := range stages {
		if strings.HasPrefix(st.Name, "broadcast join") {
			t.Errorf("SPARQLGX used a broadcast join: %q", st.Name)
		}
	}
	// Every query pays a fresh spark-submit.
	if submit := cluster.DefaultCostModel().RDDSubmit; res.SimTime < submit {
		t.Errorf("SimTime = %v, want at least the spark-submit cost %v", res.SimTime, submit)
	}
}

func TestQueryJoinsAlwaysShuffle(t *testing.T) {
	// Text storage gives no co-partitioning: a subject-subject join must
	// move bytes.
	s := fixtureStore(t)
	_, res := run(t, s, `SELECT ?u WHERE {
		?u <http://example.org/likes> ?p .
		?u <http://example.org/name> ?n .
	}`)
	var moved int64
	for _, st := range res.Clock.Stages() {
		moved += st.Stats.NetBytes
	}
	if moved == 0 {
		t.Errorf("subject-subject join moved no bytes; SPARQLGX must shuffle")
	}
}

func TestEmptyPredicate(t *testing.T) {
	s := fixtureStore(t)
	rows, _ := run(t, s, `SELECT ?u WHERE { ?u <http://example.org/nope> ?x . }`)
	if len(rows) != 0 {
		t.Errorf("rows = %v, want empty", rows)
	}
}

func TestVariablePredicateRejected(t *testing.T) {
	s := fixtureStore(t)
	_, err := s.Query(sparql.MustParse(`SELECT ?p WHERE { <http://example.org/u0> ?p ?o . }`))
	if err == nil {
		t.Errorf("variable predicate accepted")
	}
}

func TestFilterAndModifiers(t *testing.T) {
	s := fixtureStore(t)
	rows, _ := run(t, s, `SELECT DISTINCT ?p WHERE { ?u <http://example.org/likes> ?p . } LIMIT 1`)
	if len(rows) != 1 {
		t.Errorf("rows = %v, want exactly 1", rows)
	}
}

func TestBoundSubject(t *testing.T) {
	s := fixtureStore(t)
	rows, _ := run(t, s, `SELECT ?x WHERE { <http://example.org/u0> <http://example.org/follows> ?x . }`)
	if len(rows) != 2 || rows[0] != "u1" || rows[1] != "u2" {
		t.Errorf("rows = %v", rows)
	}
}

func TestLoadRequiresCluster(t *testing.T) {
	if _, err := Load(nil); err == nil {
		t.Errorf("Load without a PRoST store succeeded")
	}
}
