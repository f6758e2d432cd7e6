package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// planFor translates and plans src without executing it.
func planFor(t *testing.T, s *Store, src string, opts QueryOptions) *plan.Plan {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pl, err := s.Plan(q, opts)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return pl
}

// TestEstimatorExactOnSinglePatterns checks the cardinality estimator
// against exact counts on the small test graph: unconstrained VP scans
// are estimated from per-predicate triple counts and must match the
// actual scan output exactly.
func TestEstimatorExactOnSinglePatterns(t *testing.T) {
	s := testStore(t, false)
	cases := []struct {
		src  string
		want float64
	}{
		// follows has 3 triples.
		{`SELECT * WHERE { ?a <http://example.org/follows> ?b . }`, 3},
		// likes has 4 triples.
		{`SELECT * WHERE { ?a <http://example.org/likes> ?b . }`, 4},
		// hasGenre has 3 triples.
		{`SELECT * WHERE { ?a <http://example.org/hasGenre> ?b . }`, 3},
		// likes with bound object prodB: 4 triples / 2 distinct objects.
		{`SELECT ?u WHERE { ?u <http://example.org/likes> <http://example.org/prodB> . }`, 2},
		// unseen predicate: empty.
		{`SELECT ?a WHERE { ?a <http://example.org/nonexistent> ?b . }`, 0},
	}
	for _, tt := range cases {
		pl := planFor(t, s, tt.src, QueryOptions{Strategy: StrategyVPOnly})
		scans := pl.Scans()
		if len(scans) != 1 {
			t.Fatalf("%s: %d scans, want 1", tt.src, len(scans))
		}
		if scans[0].Est != tt.want {
			t.Errorf("%s: scan est = %g, want %g", tt.src, scans[0].Est, tt.want)
		}
	}
}

// TestEstimatorActualsRecordedAndExactForScans executes a query and
// checks the plan carries actual cardinalities, with scans of single
// unfiltered patterns estimated exactly.
func TestEstimatorActualsRecordedAndExactForScans(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(`SELECT ?a ?g WHERE {
		?a <http://example.org/likes> ?p .
		?p <http://example.org/hasGenre> ?g .
	}`)
	res, err := s.Query(q, QueryOptions{Strategy: StrategyVPOnly})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Plan == nil {
		t.Fatalf("Result.Plan is nil")
	}
	for _, sc := range res.Plan.Scans() {
		if sc.Actual < 0 {
			t.Errorf("scan %s has no actual cardinality", sc.Label)
		}
		if sc.Est != float64(sc.Actual) {
			t.Errorf("scan %s: est %g != actual %d (single unfiltered patterns are exact)", sc.Label, sc.Est, sc.Actual)
		}
	}
	if res.Plan.Root.Actual != 6 {
		t.Errorf("root actual = %d, want 6 result rows", res.Plan.Root.Actual)
	}
	ratio, at := res.Plan.MaxErrorRatio()
	if at == nil || ratio < 1 {
		t.Errorf("MaxErrorRatio = %g at %v", ratio, at)
	}
	if !strings.Contains(res.Plan.ErrorSummary(), "max ratio") {
		t.Errorf("ErrorSummary = %q", res.Plan.ErrorSummary())
	}
}

// TestLeafEstimateJoinStats pins the estimator precedence on the small
// test graph with hand-computed exact values: a Property Table star is
// priced from the characteristic sets (user0: 1 like, user1: 2 likes,
// user2: 1 like, all with age → 4 rows exactly), an inverse-PT object
// pair from the o-o self-sketch of likes (prodA and prodB each liked
// twice → Σ deg² = 8), and the tags propagate into the plan.
func TestLeafEstimateJoinStats(t *testing.T) {
	s := testStore(t, true)

	star := planFor(t, s, `SELECT * WHERE {
		?u <http://example.org/likes> ?p .
		?u <http://example.org/age> ?a .
	}`, QueryOptions{Strategy: StrategyMixed})
	scans := star.Scans()
	if len(scans) != 1 {
		t.Fatalf("star: %d scans, want 1 PT scan:\n%s", len(scans), star)
	}
	if scans[0].Est != 4 || scans[0].EstSource != plan.EstCSet {
		t.Errorf("PT star est = %g (%s), want exactly 4 from csets:\n%s", scans[0].Est, scans[0].EstSource, star)
	}

	ipt := planFor(t, s, `SELECT ?a ?b WHERE {
		?a <http://example.org/likes> ?p .
		?b <http://example.org/likes> ?p .
	}`, QueryOptions{Strategy: StrategyMixedIPT})
	scans = ipt.Scans()
	if len(scans) != 1 {
		t.Fatalf("ipt: %d scans, want 1 IPT scan:\n%s", len(scans), ipt)
	}
	if scans[0].Est != 8 || scans[0].EstSource != plan.EstSketch {
		t.Errorf("IPT pair est = %g (%s), want exactly 8 from the o-o sketch:\n%s", scans[0].Est, scans[0].EstSource, ipt)
	}

	// Both estimates are exact: execution must observe the same counts.
	for _, tt := range []struct {
		src   string
		strat Strategy
		want  int64
	}{
		{`SELECT * WHERE { ?u <http://example.org/likes> ?p . ?u <http://example.org/age> ?a . }`, StrategyMixed, 4},
		{`SELECT ?a ?b WHERE { ?a <http://example.org/likes> ?p . ?b <http://example.org/likes> ?p . }`, StrategyMixedIPT, 8},
	} {
		q := sparql.MustParse(tt.src)
		res, err := s.Query(q, QueryOptions{Strategy: tt.strat})
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		for _, sc := range res.Plan.Scans() {
			if sc.Actual != tt.want {
				t.Errorf("scan %s actual = %d, want %d", sc.Label, sc.Actual, tt.want)
			}
		}
	}

	// A sketch-less store reports indep on the same leaves.
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	indep, err := Load(testGraph(), Options{Cluster: c, BuildInversePT: true, DisableJoinStats: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	star = planFor(t, indep, `SELECT * WHERE {
		?u <http://example.org/likes> ?p .
		?u <http://example.org/age> ?a .
	}`, QueryOptions{Strategy: StrategyMixed})
	if src := star.Scans()[0].EstSource; src != plan.EstIndep {
		t.Errorf("sketch-less PT star est-source = %q, want indep", src)
	}
}

// TestFilterOnSharedVariableAppliedOnce is the duplicate-filter
// regression test: a filter whose variable several nodes expose must be
// pushed to exactly one scan and still produce correct rows.
func TestFilterOnSharedVariableAppliedOnce(t *testing.T) {
	s := testStore(t, false)
	src := `SELECT * WHERE {
		?u <http://example.org/age> ?a .
		?v <http://example.org/age> ?a .
		FILTER(?a > 26)
	}`
	for _, mode := range []plan.Mode{plan.ModeCost, plan.ModeHeuristic, plan.ModeNaive} {
		pl := planFor(t, s, src, QueryOptions{Strategy: StrategyVPOnly, Planner: mode})
		applied := 0
		for _, sc := range pl.Scans() {
			applied += len(sc.Filters)
		}
		if applied != 1 {
			t.Errorf("planner %v: filter applied at %d scans, want exactly 1:\n%s", mode, applied, pl)
		}
		got := runQuery(t, s, src, StrategyVPOnly)
		// Only user1 has age 30 > 26; SELECT * projects a,u,v sorted.
		eqStrings(t, got, []string{"30|user1|user1"}, fmt.Sprintf("planner %v", mode))
	}
}

// TestPlannerModesByteIdenticalOnWatDiv is the plan-correctness
// property test: for every WatDiv query, under all three strategies,
// the cost-based and heuristic planners must return byte-identical
// sorted rows to the naive written-order execution.
func TestPlannerModesByteIdenticalOnWatDiv(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 120, Seed: 11})
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	s, err := Load(g, Options{Cluster: c, BuildInversePT: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	render := func(res *Result) string {
		var sb strings.Builder
		for _, row := range res.SortedRows() {
			for i, term := range row {
				if i > 0 {
					sb.WriteByte('\t')
				}
				sb.WriteString(term.String())
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	strategies := []Strategy{StrategyMixed, StrategyVPOnly, StrategyMixedIPT}
	for _, q := range watdiv.BasicQuerySet() {
		for _, strat := range strategies {
			baseline, err := s.Query(q.Parsed, QueryOptions{Strategy: strat, Planner: plan.ModeNaive})
			if err != nil {
				t.Fatalf("%s/%s naive: %v", q.Name, strat, err)
			}
			want := render(baseline)
			for _, mode := range []plan.Mode{plan.ModeCost, plan.ModeCostLeftDeep, plan.ModeHeuristic} {
				res, err := s.Query(q.Parsed, QueryOptions{Strategy: strat, Planner: mode})
				if err != nil {
					t.Fatalf("%s/%s %v: %v", q.Name, strat, mode, err)
				}
				if got := render(res); got != want {
					t.Errorf("%s/%s: %v planner rows differ from naive order\nplan:\n%s", q.Name, strat, mode, res.Plan)
				}
			}
		}
	}
}

// TestIPTLeafVarsMatchScanSchema guards the planner's schema-order
// contract: an inverse-PT leaf emits its key (the object variable)
// first, even though pattern order lists the subject first.
func TestIPTLeafVarsMatchScanSchema(t *testing.T) {
	s := testStore(t, true)
	pl := planFor(t, s, `SELECT ?a ?b WHERE {
		?a <http://example.org/likes> ?p .
		?b <http://example.org/likes> ?p .
	}`, QueryOptions{Strategy: StrategyMixedIPT})
	scans := pl.Scans()
	if len(scans) != 1 {
		t.Fatalf("%d scans, want 1 IPT scan:\n%s", len(scans), pl)
	}
	got := pl.Leaves[scans[0].Leaf].Vars
	want := []string{"p", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("IPT leaf vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IPT leaf vars = %v, want %v (key first)", got, want)
		}
	}
}

// TestPlannerModeParsing covers the CLI flag mapping.
func TestPlannerModeParsing(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want plan.Mode
	}{{"cost", plan.ModeCost}, {"", plan.ModeCost}, {"heuristic", plan.ModeHeuristic}, {"naive", plan.ModeNaive}, {"cost-leftdeep", plan.ModeCostLeftDeep}} {
		got, err := plan.ParseMode(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("plan.ParseMode(%q) = %v, %v", tt.in, got, err)
		}
	}
	// An invalid mode must be rejected with an error naming every
	// valid value (the CLI relies on this instead of silently falling
	// back).
	_, err := plan.ParseMode("bogus")
	if err == nil {
		t.Fatalf("plan.ParseMode(bogus) succeeded")
	}
	for _, name := range plan.ModeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid mode %q", err, name)
		}
	}
	if plan.ModeCost.String() != "cost" || plan.ModeHeuristic.String() != "heuristic" ||
		plan.ModeNaive.String() != "naive" || plan.ModeCostLeftDeep.String() != "cost-leftdeep" {
		t.Errorf("plan.Mode names wrong")
	}
}

// TestStrategyParsing covers the shared strategy flag mapping.
func TestStrategyParsing(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want Strategy
	}{{"mixed", StrategyMixed}, {"", StrategyMixed}, {"vp-only", StrategyVPOnly}, {"mixed+ipt", StrategyMixedIPT}} {
		got, err := ParseStrategy(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseStrategy(%q) = %v, %v", tt.in, got, err)
		}
	}
	_, err := ParseStrategy("bogus")
	if err == nil {
		t.Fatalf("ParseStrategy(bogus) succeeded")
	}
	for _, name := range StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid strategy %q", err, name)
		}
	}
}

// TestCostPlannerNotSlowerThanNaive sanity-checks the optimizer's
// reason to exist on a real dataset.
func TestCostPlannerNotSlowerThanNaive(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 120, Seed: 11})
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	s, err := Load(g, Options{Cluster: c, BuildInversePT: false})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var cost, naive int64
	for _, q := range watdiv.BasicQuerySet() {
		rc, err := s.Query(q.Parsed, QueryOptions{})
		if err != nil {
			t.Fatalf("%s cost: %v", q.Name, err)
		}
		rn, err := s.Query(q.Parsed, QueryOptions{Planner: plan.ModeNaive})
		if err != nil {
			t.Fatalf("%s naive: %v", q.Name, err)
		}
		cost += int64(rc.SimTime)
		naive += int64(rn.SimTime)
	}
	// Individual queries may regress by estimation luck; the total must
	// stay within a whisker of naive and normally beats it well.
	if float64(cost) > float64(naive)*1.01 {
		t.Errorf("cost-based total %d > naive total %d (+1%% slack)", cost, naive)
	}
}

// TestPlanMatchesExecutedPlan: Store.Plan — what /explain?analyze=0
// prints — is the plan Query runs, not yet executed: same operators,
// labels and estimates, every actual still unknown. It used to plan only
// the first branch's base BGP, so an OPTIONAL … ORDER BY … LIMIT query
// showed "Project → Scan" where execution ran
// "TopK → Project → LeftJoin → …".
func TestPlanMatchesExecutedPlan(t *testing.T) {
	s := watdivStreamStore(t)
	const prefixes = `PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
		PREFIX foaf: <http://xmlns.com/foaf/>
		`
	cases := []struct{ name, body, op string }{
		{"plain", `SELECT ?u ?f ?p WHERE { ?u wsdbm:follows ?f . ?f wsdbm:likes ?p . }`, "Join"},
		{"optional+order+limit", `SELECT ?u ?p ?a WHERE { ?u wsdbm:likes ?p . OPTIONAL { ?u foaf:age ?a . } } ORDER BY ?u LIMIT 5`, "LeftJoin"},
		{"union", `SELECT ?x WHERE { { ?x wsdbm:follows wsdbm:User0 . } UNION { ?x wsdbm:likes wsdbm:Product0 . } }`, "Union"},
		{"limit+offset", `SELECT ?u ?f WHERE { ?u wsdbm:follows ?f . ?f wsdbm:likes ?p . } LIMIT 7 OFFSET 3`, "TopK"},
		{"group+count", `SELECT ?u (COUNT(?p) AS ?n) WHERE { ?u wsdbm:likes ?p . } GROUP BY ?u ORDER BY DESC(?n) ?u LIMIT 8`, "Aggregate"},
	}
	for _, c := range cases {
		q := sparql.MustParse(prefixes + c.body)
		for _, strat := range streamStrategies {
			for _, mode := range streamPlanners {
				// Static and uncached: the executed plan is the planned
				// one, and planning it again prices it the same.
				opts := QueryOptions{Strategy: strat, Planner: mode, NoPlanCache: true}
				res, err := s.Query(q, opts)
				if err != nil {
					t.Fatalf("%s/%s/%v: Query: %v", c.name, strat, mode, err)
				}
				want := res.Plan.Stamp(plan.NewObservation(res.Plan)).String()
				pl, err := s.Plan(q, opts)
				if err != nil {
					t.Fatalf("%s/%s/%v: Plan: %v", c.name, strat, mode, err)
				}
				got := pl.String()
				if got != want {
					t.Errorf("%s/%s/%v: Store.Plan differs from the plan Query ran\ngot:\n%swant:\n%s", c.name, strat, mode, got, want)
				}
				if !strings.Contains(got, c.op) || strings.Contains(strings.ReplaceAll(got, "actual=?", ""), "actual=") {
					t.Errorf("%s/%s/%v: want a %s operator and no actuals in\n%s", c.name, strat, mode, c.op, got)
				}
			}
		}
	}
}
