package core

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stats"
)

// testGraph builds a small social graph:
//
//	user0 follows user1, user2; likes prodA; age 25; name "alice"
//	user1 follows user2;        likes prodA, prodB; age 30; name "bob"
//	user2 likes prodB; age 25
//	prodA hasGenre g1; caption "letters"
//	prodB hasGenre g1, g2
const testNS = "http://example.org/"

func testGraph() *rdf.Graph {
	iri := func(s string) rdf.Term { return rdf.NewIRI(testNS + s) }
	lit := rdf.NewLiteral
	num := func(s string) rdf.Term { return rdf.NewTypedLiteral(s, rdf.XSDInteger) }

	g := rdf.NewGraph(0)
	add := func(s, p string, o rdf.Term) { g.AddSPO(iri(s), iri(p), o) }

	add("user0", "follows", iri("user1"))
	add("user0", "follows", iri("user2"))
	add("user0", "likes", iri("prodA"))
	add("user0", "age", num("25"))
	add("user0", "name", lit("alice"))

	add("user1", "follows", iri("user2"))
	add("user1", "likes", iri("prodA"))
	add("user1", "likes", iri("prodB"))
	add("user1", "age", num("30"))
	add("user1", "name", lit("bob"))

	add("user2", "likes", iri("prodB"))
	add("user2", "age", num("25"))

	add("prodA", "hasGenre", iri("g1"))
	add("prodA", "caption", lit("letters"))
	add("prodB", "hasGenre", iri("g1"))
	add("prodB", "hasGenre", iri("g2"))
	return g
}

func testStore(t *testing.T, inverse bool) *Store {
	t.Helper()
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	s, err := Load(testGraph(), Options{Cluster: c, BuildInversePT: inverse})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

// setStats gives a freshly loaded store statistics collected under cfg
// in place of the ones Load collected. Load sets a store's statistics
// once and nothing replaces them, so call it before the store's first
// query.
func setStats(s *Store, cfg stats.Config) {
	s.stats = stats.CollectJoinStats(s.triples, cfg)
}

// runQuery executes src under the given strategy and returns rendered
// sorted rows like "user0|user1".
func runQuery(t *testing.T, s *Store, src string, strategy Strategy) []string {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := s.Query(q, QueryOptions{Strategy: strategy})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	return renderRows(res)
}

func renderRows(res *Result) []string {
	var out []string
	for _, row := range res.SortedRows() {
		var parts []string
		for _, term := range row {
			v := term.Value
			v = strings.TrimPrefix(v, testNS)
			parts = append(parts, v)
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func eqStrings(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows %v, want %d rows %v", label, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

func TestLoadReport(t *testing.T) {
	s := testStore(t, false)
	rep := s.LoadReport()
	if rep.Triples != 16 {
		t.Errorf("Triples = %d, want 16", rep.Triples)
	}
	if rep.VPTables != 6 {
		t.Errorf("VPTables = %d, want 6 (follows,likes,age,name,hasGenre,caption)", rep.VPTables)
	}
	if rep.PTColumns != 6 {
		t.Errorf("PTColumns = %d, want 6", rep.PTColumns)
	}
	if rep.SizeBytes <= 0 {
		t.Errorf("SizeBytes = %d, want > 0", rep.SizeBytes)
	}
	if rep.LoadTime <= 0 {
		t.Errorf("LoadTime = %v, want > 0", rep.LoadTime)
	}
	if rep.InputBytes <= 0 {
		t.Errorf("InputBytes = %d", rep.InputBytes)
	}
	// HDFS holds both VP and PT files.
	if got := len(s.FS().ListPrefix("/prost/vp/")); got == 0 {
		t.Errorf("no VP files on HDFS")
	}
	if got := len(s.FS().ListPrefix("/prost/pt/")); got == 0 {
		t.Errorf("no PT files on HDFS")
	}
}

func TestLoadRequiresCluster(t *testing.T) {
	if _, err := Load(testGraph(), Options{}); err == nil {
		t.Errorf("Load without cluster succeeded")
	}
}

func TestLoadDeduplicates(t *testing.T) {
	g := testGraph()
	// Duplicate every triple.
	for _, tr := range append([]rdf.Triple(nil), g.Triples()...) {
		g.Add(tr)
	}
	c := cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: 2})
	s, err := Load(g, Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.LoadReport().Triples != 16 {
		t.Errorf("Triples = %d after dup load, want 16", s.LoadReport().Triples)
	}
}

func TestMultiValuedDetection(t *testing.T) {
	s := testStore(t, false)
	pt := s.PropertyTable()
	likes, _ := s.Dictionary().Lookup(rdf.NewIRI(testNS + "likes"))
	age, _ := s.Dictionary().Lookup(rdf.NewIRI(testNS + "age"))
	if !pt.MultiValued(likes) {
		t.Errorf("likes not detected as multi-valued")
	}
	if pt.MultiValued(age) {
		t.Errorf("age wrongly detected as multi-valued")
	}
	if pt.Rows() != 5 {
		t.Errorf("PT rows = %d, want 5 (user0..2, prodA, prodB)", pt.Rows())
	}
}

// Every query must return the same rows under VP-only and Mixed: the
// strategies differ in cost, never in semantics.
var semanticsQueries = []struct {
	name string
	src  string
	want []string
}{
	{
		"single pattern",
		`SELECT ?a ?b WHERE { ?a <http://example.org/follows> ?b . }`,
		[]string{"user0|user1", "user0|user2", "user1|user2"},
	},
	{
		"star two patterns",
		`SELECT ?u ?p WHERE { ?u <http://example.org/likes> ?p . ?u <http://example.org/age> "25"^^<http://www.w3.org/2001/XMLSchema#integer> . }`,
		[]string{"user0|prodA", "user2|prodB"},
	},
	{
		"star with literal",
		`SELECT ?u WHERE { ?u <http://example.org/name> "alice" . ?u <http://example.org/age> ?a . }`,
		[]string{"user0"},
	},
	{
		"linear chain",
		`SELECT ?a ?g WHERE { ?a <http://example.org/likes> ?p . ?p <http://example.org/hasGenre> ?g . }`,
		[]string{"user0|g1", "user1|g1", "user1|g1", "user1|g2", "user2|g1", "user2|g2"},
	},
	{
		"snowflake",
		`SELECT ?u ?n ?g WHERE {
			?u <http://example.org/likes> ?p .
			?u <http://example.org/name> ?n .
			?p <http://example.org/hasGenre> ?g .
			?p <http://example.org/caption> ?c .
		}`,
		[]string{"user0|alice|g1", "user1|bob|g1"},
	},
	{
		"bound subject",
		`SELECT ?x WHERE { <http://example.org/user0> <http://example.org/follows> ?x . }`,
		[]string{"user1", "user2"},
	},
	{
		"bound object IRI",
		`SELECT ?u WHERE { ?u <http://example.org/likes> <http://example.org/prodB> . }`,
		[]string{"user1", "user2"},
	},
	{
		"distinct",
		`SELECT DISTINCT ?g WHERE { ?p <http://example.org/hasGenre> ?g . }`,
		[]string{"g1", "g2"},
	},
	{
		"filter numeric",
		`SELECT ?u WHERE { ?u <http://example.org/age> ?a . FILTER(?a > 27) }`,
		[]string{"user1"},
	},
	{
		"filter on star",
		`SELECT ?u ?a WHERE { ?u <http://example.org/age> ?a . ?u <http://example.org/name> ?n . FILTER(?a <= 25) }`,
		[]string{"user0|25"},
	},
	{
		"triangle complex",
		`SELECT ?a ?b WHERE {
			?a <http://example.org/follows> ?b .
			?a <http://example.org/likes> ?p .
			?b <http://example.org/likes> ?p .
		}`,
		[]string{"user0|user1", "user1|user2"},
	},
	{
		"empty predicate",
		`SELECT ?a WHERE { ?a <http://example.org/nonexistent> ?b . }`,
		nil,
	},
	{
		"empty constant",
		`SELECT ?a WHERE { ?a <http://example.org/follows> <http://example.org/ghost> . }`,
		nil,
	},
	{
		"star same var twice",
		`SELECT ?u ?x WHERE { ?u <http://example.org/likes> ?x . ?u <http://example.org/follows> ?x . }`,
		nil,
	},
}

func TestQuerySemanticsAcrossStrategies(t *testing.T) {
	s := testStore(t, false)
	for _, tt := range semanticsQueries {
		t.Run(tt.name, func(t *testing.T) {
			mixed := runQuery(t, s, tt.src, StrategyMixed)
			vpOnly := runQuery(t, s, tt.src, StrategyVPOnly)
			eqStrings(t, mixed, tt.want, "mixed")
			eqStrings(t, vpOnly, tt.want, "vp-only")
		})
	}
}

func TestQuerySemanticsWithInversePT(t *testing.T) {
	s := testStore(t, true)
	for _, tt := range semanticsQueries {
		t.Run(tt.name, func(t *testing.T) {
			got := runQuery(t, s, tt.src, StrategyMixedIPT)
			eqStrings(t, got, tt.want, "mixed+ipt")
		})
	}
}

func TestObjectStarUsesIPT(t *testing.T) {
	s := testStore(t, true)
	// Two patterns sharing the object variable ?p.
	q := sparql.MustParse(`SELECT ?a ?b WHERE {
		?a <http://example.org/likes> ?p .
		?b <http://example.org/likes> ?p .
	}`)
	tree, err := s.Translate(q, StrategyMixedIPT)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	found := false
	for _, n := range tree.Nodes {
		if n.Kind == NodeIPT {
			found = true
		}
	}
	if !found {
		t.Errorf("object star not grouped into IPT node:\n%s", tree)
	}
	res, err := s.Query(q, QueryOptions{Strategy: StrategyMixedIPT})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Compare against Mixed (semantics must agree).
	res2, err := s.Query(q, QueryOptions{Strategy: StrategyMixed})
	if err != nil {
		t.Fatalf("Query mixed: %v", err)
	}
	a, b := renderRows(res), renderRows(res2)
	eqStrings(t, a, b, "ipt vs mixed")
}

func TestMixedIPTRequiresInverseTable(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <http://example.org/likes> ?p . ?b <http://example.org/likes> ?p . }`)
	if _, err := s.Query(q, QueryOptions{Strategy: StrategyMixedIPT}); err == nil {
		t.Errorf("MixedIPT on store without inverse PT succeeded")
	}
}

func TestTranslateGroupsStarIntoPTNode(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT * WHERE {
		?u <http://example.org/likes> ?p .
		?u <http://example.org/age> ?a .
		?u <http://example.org/name> ?n .
		?p <http://example.org/hasGenre> ?g .
	}`)
	tree, err := s.Translate(q, StrategyMixed)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	var pt, vp int
	for _, n := range tree.Nodes {
		switch n.Kind {
		case NodePT:
			pt++
			if len(n.Patterns) != 3 {
				t.Errorf("PT node has %d patterns, want 3", len(n.Patterns))
			}
			if n.Key != "u" {
				t.Errorf("PT node key = %q, want u", n.Key)
			}
		case NodeVP:
			vp++
		}
	}
	if pt != 1 || vp != 1 {
		t.Errorf("nodes = %d PT + %d VP, want 1 + 1:\n%s", pt, vp, tree)
	}

	// VP-only: 4 VP nodes.
	tree2, err := s.Translate(q, StrategyVPOnly)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if len(tree2.Nodes) != 4 {
		t.Errorf("VP-only tree has %d nodes, want 4", len(tree2.Nodes))
	}
	for _, n := range tree2.Nodes {
		if n.Kind != NodeVP {
			t.Errorf("VP-only tree contains %v node", n.Kind)
		}
	}
}

func TestLiteralPatternPrioritizedFirst(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT * WHERE {
		?a <http://example.org/follows> ?b .
		?b <http://example.org/name> "bob" .
	}`)
	tree, err := s.Translate(q, StrategyMixed)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	first := tree.Nodes[0]
	if !first.Patterns[0].HasLiteral() {
		t.Errorf("literal pattern not executed first:\n%s", tree)
	}
	if root := tree.Root(); root.Patterns[0].HasLiteral() {
		t.Errorf("literal pattern became the root:\n%s", tree)
	}
}

func TestRootIsLargestNode(t *testing.T) {
	s := testStore(t, false)
	// follows (3 tuples) vs hasGenre (3) vs likes (4): likes has the
	// most tuples and no constants anywhere, so a chain over them puts
	// the largest at the root. Use unconstrained chain:
	q := sparql.MustParse(`SELECT * WHERE {
		?u <http://example.org/likes> ?p .
		?p <http://example.org/hasGenre> ?g .
	}`)
	tree, err := s.Translate(q, StrategyMixed)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	root := tree.Root()
	if got := localName(root.Patterns[0].P.Term.Value); got != "likes" {
		t.Errorf("root = %s, want the largest table (likes):\n%s", got, tree)
	}
}

func TestNaiveOrderAblation(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT * WHERE {
		?a <http://example.org/follows> ?b .
		?b <http://example.org/name> "bob" .
	}`)
	res, err := s.Query(q, QueryOptions{Planner: plan.ModeNaive})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Naive order keeps written order: follows first.
	if got := localName(res.Tree.Nodes[0].Patterns[0].P.Term.Value); got != "follows" {
		t.Errorf("naive order first node = %s, want follows", got)
	}
	eqStrings(t, renderRows(res), []string{"user0|user1"}, "naive result")
}

func TestLimitAndOffset(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT ?a ?b WHERE { ?a <http://example.org/follows> ?b . } LIMIT 2`)
	res, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("LIMIT 2 returned %d rows", len(res.Rows))
	}
}

func TestSimTimePositiveAndTraced(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT ?u WHERE { ?u <http://example.org/likes> ?p . ?u <http://example.org/age> ?a . }`)
	res, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.SimTime <= 0 {
		t.Errorf("SimTime = %v", res.SimTime)
	}
	if len(res.Clock.Stages()) == 0 {
		t.Errorf("no stage trace recorded")
	}
	if !strings.Contains(res.Tree.String(), "PT(?u:") {
		t.Errorf("tree rendering missing PT node:\n%s", res.Tree)
	}
}

func TestVariablePredicateFallback(t *testing.T) {
	s := testStore(t, false)
	got := runQuery(t, s, `SELECT ?p WHERE { <http://example.org/prodA> ?p ?o . }`, StrategyMixed)
	eqStrings(t, got, []string{"caption", "hasGenre"}, "variable predicate")
}

func TestFullyBoundPatternActsAsExistenceCheck(t *testing.T) {
	s := testStore(t, false)
	got := runQuery(t, s, `SELECT ?x WHERE {
		<http://example.org/user0> <http://example.org/likes> <http://example.org/prodA> .
		?x <http://example.org/hasGenre> <http://example.org/g2> .
	}`, StrategyMixed)
	eqStrings(t, got, []string{"prodB"}, "existence check true")

	got = runQuery(t, s, `SELECT ?x WHERE {
		<http://example.org/user2> <http://example.org/likes> <http://example.org/prodA> .
		?x <http://example.org/hasGenre> <http://example.org/g2> .
	}`, StrategyMixed)
	eqStrings(t, got, nil, "existence check false")
}

func TestStrategyString(t *testing.T) {
	if StrategyMixed.String() != "mixed" || StrategyVPOnly.String() != "vp-only" || StrategyMixedIPT.String() != "mixed+ipt" {
		t.Errorf("strategy names wrong")
	}
	if NodeVP.String() != "VP" || NodePT.String() != "PT" || NodeIPT.String() != "IPT" || NodeTriples.String() != "TT" {
		t.Errorf("node kind names wrong")
	}
}

func TestMixedCostsLessThanVPOnlyOnStars(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT * WHERE {
		?u <http://example.org/likes> ?p .
		?u <http://example.org/age> ?a .
		?u <http://example.org/name> ?n .
	}`)
	mixed, err := s.Query(q, QueryOptions{Strategy: StrategyMixed})
	if err != nil {
		t.Fatalf("mixed: %v", err)
	}
	vp, err := s.Query(q, QueryOptions{Strategy: StrategyVPOnly})
	if err != nil {
		t.Fatalf("vp: %v", err)
	}
	if mixed.SimTime >= vp.SimTime {
		t.Errorf("star query: mixed (%v) not faster than vp-only (%v)", mixed.SimTime, vp.SimTime)
	}
}

// bigIntegerStore holds one ex:val integer literal per subject, among
// them values past int64 and values written with a sign and leading
// zeros.
func bigIntegerStore(t *testing.T) *Store {
	t.Helper()
	g := rdf.NewGraph(0)
	for s, v := range map[string]string{
		"neg":   "-5",
		"seven": "7",
		"plus7": "+007",
		"hund":  "100",
		"max":   "9223372036854775807",
		"wrapN": "18446744073709551615",
		"wrapP": "99999999999999999999",
	} {
		g.AddSPO(rdf.NewIRI(testNS+s), rdf.NewIRI(testNS+"val"), rdf.NewTypedLiteral(v, rdf.XSDInteger))
	}
	c := cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: 3})
	s, err := Load(g, Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

// TestIntegerFilterBeyondInt64: FILTER compares integer literals by
// value at any length — a 20-digit integer is above int64's maximum, not
// the int64 it wraps to — and "+007" equals 7; on both executors.
func TestIntegerFilterBeyondInt64(t *testing.T) {
	s := bigIntegerStore(t)
	for _, c := range []struct {
		filter string
		want   string
	}{
		{`FILTER(?v > "9223372036854775807"^^<` + rdf.XSDInteger + `>)`, "wrapN,wrapP"},
		{`FILTER(?v < "100000000000000000000"^^<` + rdf.XSDInteger + `>)`, "hund,max,neg,plus7,seven,wrapN,wrapP"},
		{`FILTER(?v = "7"^^<` + rdf.XSDInteger + `>)`, "plus7,seven"},
		{`FILTER(?v >= "+0007"^^<` + rdf.XSDInteger + `>) FILTER(?v <= "0100"^^<` + rdf.XSDInteger + `>)`, "hund,plus7,seven"},
	} {
		q, err := sparql.Parse(`SELECT ?s WHERE { ?s <` + testNS + `val> ?v . ` + c.filter + ` }`)
		if err != nil {
			t.Fatal(err)
		}
		for _, streaming := range []bool{false, true} {
			res, err := s.Query(q, QueryOptions{Streaming: streaming})
			if err != nil {
				t.Fatalf("%s: %v", c.filter, err)
			}
			var got []string
			for _, row := range res.SortedRows() {
				got = append(got, strings.TrimPrefix(row[0].Value, testNS))
			}
			if strings.Join(got, ",") != c.want {
				t.Errorf("%s (streaming %v): %v, want %s", c.filter, streaming, got, c.want)
			}
		}
	}
}

// TestIntegerOrderBeyondInt64: ORDER BY sorts integer literals by value
// at any length, ties ("+007" and "7") broken by the next key; on both
// executors.
func TestIntegerOrderBeyondInt64(t *testing.T) {
	s := bigIntegerStore(t)
	q, err := sparql.Parse(`SELECT ?s ?v WHERE { ?s <` + testNS + `val> ?v . } ORDER BY ?v ?s`)
	if err != nil {
		t.Fatal(err)
	}
	want := "neg,plus7,seven,hund,max,wrapN,wrapP"
	for _, streaming := range []bool{false, true} {
		res, err := s.Query(q, QueryOptions{Streaming: streaming})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, strings.TrimPrefix(row[0].Value, testNS))
		}
		if strings.Join(got, ",") != want {
			t.Errorf("streaming %v: ORDER BY ?v gave %v, want %s", streaming, got, want)
		}
	}
}
