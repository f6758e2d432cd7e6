package bench

import (
	"flag"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/watdiv"
)

// The shared fixture: one WatDiv dataset loaded into all four systems.
// Loading S2RDF's ExtVP family dominates, so it happens once.
var (
	fixtureOnce sync.Once
	fixture     *Systems
	fixtureErr  error
)

const fixtureScale = 400

// update makes the profile tests rewrite the BENCH_*.json trajectories
// committed at the repo root (go test ./internal/bench -update).
// Without it they write to a scratch directory, so a test run leaves
// the checkout as it found it.
var update = flag.Bool("update", false, "rewrite the tracked BENCH_*.json trajectory files")

// trajectoryPath is where a profile test writes the named trajectory.
func trajectoryPath(t *testing.T, name string) string {
	t.Helper()
	if *update {
		return filepath.Join("..", "..", name)
	}
	return filepath.Join(t.TempDir(), name)
}

func systems(t *testing.T) *Systems {
	t.Helper()
	fixtureOnce.Do(func() {
		g := watdiv.MustGenerate(watdiv.Config{Scale: fixtureScale, Seed: 42})
		// Extrapolate to the paper's 100M-triple dataset so the shape
		// assertions test the regime the paper measured.
		fixture, fixtureErr = LoadAll(g, LoadOptions{InversePT: true, ExtrapolateTriples: 100_000_000})
	})
	if fixtureErr != nil {
		t.Fatalf("LoadAll: %v", fixtureErr)
	}
	return fixture
}

func TestAllSystemsAgreeOnEveryQuery(t *testing.T) {
	s := systems(t)
	if err := s.VerifyAgreement(watdiv.BasicQuerySet()); err != nil {
		t.Fatalf("systems disagree: %v", err)
	}
	// One FILTER semantics: PRoST's compiled filters, the SQL
	// baselines' filter stages and Rya's test on decoded terms must keep
	// the same rows. Every query returns rows at the fixture (four of the
	// basic queries do not, and prove nothing).
	filters := filterQueries(t)
	if err := s.VerifyAgreement(filters); err != nil {
		t.Fatalf("systems disagree on FILTER: %v", err)
	}
	for _, q := range filters {
		out, err := s.RunOn(SysPRoST, q.Parsed)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if out.Rows == 0 {
			t.Errorf("%s returns no rows at the fixture", q.Name)
		}
	}
}

// filterQueries covers each kind of FILTER comparison: integers (< and
// >=), xsd:date literals, IRIs (= and !=), and a filtered variable that
// Rya's order binds in its first pattern (FR1: userId is smaller than
// follows) and in its last (FR2: the bound-object pattern goes first,
// then reviewer, then rating).
func filterQueries(t *testing.T) []watdiv.Query {
	t.Helper()
	raw := []struct{ name, body string }{
		{"FI1", `SELECT ?u ?a WHERE { ?u foaf:age ?a . ?u wsdbm:likes ?p . FILTER(?a < 25) }`},
		{"FI2", `SELECT ?r ?x WHERE { ?r rev:rating ?x . ?r rev:reviewer ?u . FILTER(?x >= 8) }`},
		{"FD1", `SELECT ?o ?d WHERE { ?o gr:validFrom ?d . FILTER(?d >= "2010-01-01"^^xsd:date) }`},
		{"FE1", `SELECT ?u ?p WHERE { ?u wsdbm:livesIn ?c . ?u wsdbm:likes ?p . FILTER(?c = wsdbm:City3) }`},
		{"FN1", `SELECT ?u ?c WHERE { ?u sorg:nationality ?c . ?u wsdbm:follows ?f . FILTER(?c != wsdbm:Country1) }`},
		{"FR1", `SELECT ?u ?id ?f WHERE { ?u wsdbm:userId ?id . ?u wsdbm:follows ?f . FILTER(?id < 50) }`},
		{"FR2", `SELECT ?r ?x ?u WHERE { ?r rev:rating ?x . ?r rev:reviewer ?u . ?u sorg:nationality wsdbm:Country2 . FILTER(?x > 5) }`},
	}
	const prologue = `
PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
PREFIX sorg: <http://schema.org/>
PREFIX rev: <http://purl.org/stuff/rev#>
PREFIX gr: <http://purl.org/goodrelations/>
PREFIX foaf: <http://xmlns.com/foaf/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
`
	var out []watdiv.Query
	for _, r := range raw {
		parsed, err := parseMust(prologue+r.body, r.name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, watdiv.Query{Name: r.name, Group: "FILTER", Text: prologue + r.body, Parsed: parsed})
	}
	return out
}

func TestTable1Shape(t *testing.T) {
	s := systems(t)
	size := map[string]int64{}
	load := map[string]time.Duration{}
	for _, row := range s.Loads() {
		size[row.System] = row.SizeBytes
		load[row.System] = row.LoadTime
	}
	// Size ordering (paper Table 1): SPARQLGX < PRoST < Rya < S2RDF.
	if !(size[SysSPARQLGX] < size[SysPRoST]) {
		t.Errorf("size: SPARQLGX (%d) not smaller than PRoST (%d)", size[SysSPARQLGX], size[SysPRoST])
	}
	if !(size[SysPRoST] < size[SysRya]) {
		t.Errorf("size: PRoST (%d) not smaller than Rya (%d)", size[SysPRoST], size[SysRya])
	}
	if !(size[SysRya] < size[SysS2RDF]) {
		t.Errorf("size: Rya (%d) not smaller than S2RDF (%d)", size[SysRya], size[SysS2RDF])
	}
	// Time ordering: SPARQLGX ≈ PRoST ≪ S2RDF; Rya between.
	if !(load[SysSPARQLGX] <= load[SysPRoST]) {
		t.Errorf("load time: SPARQLGX (%v) not ≤ PRoST (%v)", load[SysSPARQLGX], load[SysPRoST])
	}
	if !(load[SysPRoST] < load[SysS2RDF]) {
		t.Errorf("load time: PRoST (%v) not < S2RDF (%v)", load[SysPRoST], load[SysS2RDF])
	}
	if ratio := float64(load[SysS2RDF]) / float64(load[SysPRoST]); ratio < 2 {
		t.Errorf("load time: S2RDF/PRoST ratio = %.2f, want ≫ 1 (paper: ≈7.5)", ratio)
	}
	out := s.Table1().String()
	for _, name := range SystemNames() {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 output missing %s:\n%s", name, out)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	s := systems(t)
	queries := watdiv.BasicQuerySet()
	fig, err := s.Figure2(queries)
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	// Mixed must beat VP-only on every star query and on average
	// overall; linear queries may tie (paper §4.3).
	var vpTotal, mixedTotal time.Duration
	for i, label := range fig.Labels {
		vp, mixed := fig.Series[0].Values[i], fig.Series[1].Values[i]
		vpTotal += vp
		mixedTotal += mixed
		if strings.HasPrefix(label, "S") && mixed > vp {
			t.Errorf("%s: mixed (%v) slower than VP-only (%v) on a star query", label, mixed, vp)
		}
	}
	if mixedTotal >= vpTotal {
		t.Errorf("mixed total (%v) not faster than VP-only total (%v)", mixedTotal, vpTotal)
	}
	if !strings.Contains(fig.String(), "Figure 2") {
		t.Errorf("figure rendering lost its title")
	}
}

func TestFigure3AndTable2Shape(t *testing.T) {
	s := systems(t)
	queries := watdiv.BasicQuerySet()
	fig, err := s.Figure3(queries)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}

	prost := GroupAverages(fig, queries, SysPRoST)
	s2rdf := GroupAverages(fig, queries, SysS2RDF)
	rya := GroupAverages(fig, queries, SysRya)
	gx := GroupAverages(fig, queries, SysSPARQLGX)

	// Paper Table 2 orderings per group (paper-era PRoST):
	//   Complex:   S2RDF < PRoST ≪ SPARQLGX ≪ Rya
	//   Snowflake: S2RDF < PRoST ≪ SPARQLGX ≪ Rya
	//   Linear:    S2RDF < PRoST ≪ SPARQLGX ≪ Rya
	//   Star:      PRoST ≈ S2RDF ≪ SPARQLGX ≈ Rya (PRoST wins several)
	for _, g := range []string{"C", "F", "L"} {
		if !(prost[g] < gx[g]) {
			t.Errorf("group %s: PRoST (%v) not faster than SPARQLGX (%v)", g, prost[g], gx[g])
		}
		if !(gx[g] < rya[g]) {
			t.Errorf("group %s: SPARQLGX (%v) not faster than Rya (%v)", g, gx[g], rya[g])
		}
	}
	if !(prost["S"] < gx["S"]) {
		t.Errorf("star: PRoST (%v) not faster than SPARQLGX (%v)", prost["S"], gx["S"])
	}
	// The paper measured S2RDF ahead of PRoST on complex queries (its
	// ExtVP advantage). That held here until the DAG executor: PRoST
	// now runs independent join subtrees concurrently and its
	// complex-query critical path drops below S2RDF's sequential
	// execution, so the modern assertion is the reverse. S2RDF keeps
	// its paper position against the non-Spark-SQL systems.
	if !(prost["C"] < s2rdf["C"]) {
		t.Errorf("complex: PRoST with DAG executor (%v) not faster than S2RDF (%v)", prost["C"], s2rdf["C"])
	}
	if !(s2rdf["C"] < gx["C"]) {
		t.Errorf("complex: S2RDF (%v) not faster than SPARQLGX (%v)", s2rdf["C"], gx["C"])
	}
	// PRoST beats SPARQLGX by roughly an order of magnitude overall.
	var prostTotal, gxTotal time.Duration
	for _, g := range watdiv.Groups() {
		prostTotal += prost[g]
		gxTotal += gx[g]
	}
	if ratio := float64(gxTotal) / float64(prostTotal); ratio < 3 {
		t.Errorf("SPARQLGX/PRoST overall ratio = %.2f, want ≫ 1 (paper: ≈10)", ratio)
	}
	// Rya's average is the worst overall (paper: dominated by complex).
	var ryaTotal time.Duration
	for _, g := range watdiv.Groups() {
		ryaTotal += rya[g]
	}
	if ryaTotal <= gxTotal {
		t.Errorf("Rya total (%v) not slower than SPARQLGX total (%v)", ryaTotal, gxTotal)
	}

	tbl := Table2(fig, queries)
	out := tbl.String()
	for _, label := range []string{"Complex", "Snowflake", "Linear", "Star"} {
		if !strings.Contains(out, label) {
			t.Errorf("Table 2 missing group %s:\n%s", label, out)
		}
	}
}

func TestAblationJoinOrder(t *testing.T) {
	s := systems(t)
	queries := watdiv.BasicQuerySet()
	fig, err := s.AblationJoinOrder(queries)
	if err != nil {
		t.Fatalf("AblationJoinOrder: %v", err)
	}
	var stats, naive time.Duration
	for i := range fig.Labels {
		stats += fig.Series[0].Values[i]
		naive += fig.Series[1].Values[i]
	}
	if stats > naive {
		t.Errorf("stats ordering total (%v) slower than naive (%v)", stats, naive)
	}
}

func TestAblationPlanner(t *testing.T) {
	s := systems(t)
	queries := watdiv.BasicQuerySet()
	fig, err := s.AblationPlanner(queries)
	if err != nil {
		t.Fatalf("AblationPlanner: %v", err)
	}
	var costTotal, heurTotal time.Duration
	wins := 0
	for i, label := range fig.Labels {
		cost, heur := fig.Series[0].Values[i], fig.Series[1].Values[i]
		costTotal += cost
		heurTotal += heur
		if cost < heur {
			wins++
		}
		// No query may regress more than 5% against the §3.3 heuristic.
		if float64(cost) > float64(heur)*1.05 {
			t.Errorf("%s: cost planner (%v) regresses >5%% vs heuristic (%v)", label, cost, heur)
		}
	}
	if wins < 3 {
		t.Errorf("cost planner beats the heuristic on %d queries, want ≥ 3", wins)
	}
	if costTotal >= heurTotal {
		t.Errorf("cost planner total (%v) not faster than heuristic total (%v)", costTotal, heurTotal)
	}
}

func TestAblationBushy(t *testing.T) {
	s := systems(t)
	queries := watdiv.BasicQuerySet()
	fig, err := s.AblationBushy(queries)
	if err != nil {
		t.Fatalf("AblationBushy: %v", err)
	}
	var bushyTotal, ldTotal time.Duration
	wins := 0
	for i, label := range fig.Labels {
		bushy, ld := fig.Series[0].Values[i], fig.Series[1].Values[i]
		bushyTotal += bushy
		ldTotal += ld
		// The bushy win must come from the snowflake/complex families
		// — multi-arm shapes where sibling subtrees shorten the
		// critical path measurably (>2%).
		if (strings.HasPrefix(label, "F") || strings.HasPrefix(label, "C")) && float64(bushy) < float64(ld)*0.98 {
			wins++
		}
		// Zero regressions: the planner only keeps a bushy shape when
		// its priced critical path beats the chain, so no query may run
		// slower than left-deep beyond pricing noise (1%).
		if float64(bushy) > float64(ld)*1.01 {
			t.Errorf("%s: bushy (%v) regresses vs left-deep (%v)", label, bushy, ld)
		}
		t.Logf("%-4s bushy=%12v left-deep=%12v (%+.2f%%)", label, bushy, ld, 100*(float64(bushy)/float64(ld)-1))
	}
	if wins < 1 {
		t.Errorf("bushy execution shortens no snowflake/complex query by >2%%")
	}
	if bushyTotal > ldTotal {
		t.Errorf("bushy total (%v) slower than left-deep total (%v)", bushyTotal, ldTotal)
	}
}

// TestAblationAdaptive pins the A5 acceptance shape. Correction happens
// between executions, so every query's first execution runs exactly the
// static plan; no steady state is slower than the static plan (a
// correction re-plans from observed cardinalities, never from worse
// numbers); and at least one C-family query's steady state is more than
// 5% faster than its static plan — the under-estimated triangle join is
// re-planned from what the first execution counted.
func TestAblationAdaptive(t *testing.T) {
	s := systems(t)
	queries := watdiv.BasicQuerySet()
	fig, err := s.AblationAdaptive(queries)
	if err != nil {
		t.Fatalf("AblationAdaptive: %v", err)
	}
	cWins := 0
	var cSum time.Duration
	for i, label := range fig.Labels {
		first, corrected, static := fig.Series[0].Values[i], fig.Series[1].Values[i], fig.Series[2].Values[i]
		if first != static {
			t.Errorf("%s: first execution (%v) differs from the static plan (%v)", label, first, static)
		}
		if corrected > static {
			t.Errorf("%s: corrected steady state (%v) slower than the static plan (%v)", label, corrected, static)
		}
		if strings.HasPrefix(label, "C") {
			cSum += corrected
			if float64(corrected) < float64(static)*0.95 {
				cWins++
			}
		}
		t.Logf("%-4s first=%12v corrected=%12v static=%12v (corrected %+.2f%% vs static)",
			label, first, corrected, static, 100*(float64(corrected)/float64(static)-1))
	}
	t.Logf("C-family corrected steady-state sum %v", cSum)
	if cWins < 1 {
		t.Errorf("no C-family query's corrected steady state improves >5%% on the static plan")
	}
}

// TestAblationSketches pins the A6 acceptance shape: load-time
// join-graph statistics (characteristic sets + pair sketches) turn the
// independence estimator's first-execution mistakes into a static win.
// Concretely: C3's first execution with sketches beats the independence
// store's first execution outright; no query regresses more than 1%
// against it; the C-family first executions correct nothing (their
// worst estimation error sits below the 8x bound); and the estimator
// actually used csets and sketches (provenance counters). The corrected
// independence steady state is logged beside them: what repeated
// executions reach without sketches.
func TestAblationSketches(t *testing.T) {
	s := systems(t)
	queries := watdiv.BasicQuerySet()
	fig, err := s.AblationSketches(queries)
	if err != nil {
		t.Fatalf("AblationSketches: %v", err)
	}
	var sketchTotal, staticTotal time.Duration
	for i, label := range fig.Labels {
		sketch, corrected, static := fig.Series[0].Values[i], fig.Series[1].Values[i], fig.Series[2].Values[i]
		sketchTotal += sketch
		staticTotal += static
		if float64(sketch) > float64(static)*1.01 {
			t.Errorf("%s: sketches (%v) regress >1%% vs the independence first run (%v)", label, sketch, static)
		}
		if label == "C3" && sketch >= static {
			t.Errorf("C3: sketch first run (%v) does not beat the independence first run (%v)", sketch, static)
		}
		t.Logf("%-4s sketches=%12v indep-corrected=%12v indep-static=%12v (%+.2f%% vs static)",
			label, sketch, corrected, static, 100*(float64(sketch)/float64(static)-1))
	}
	if sketchTotal > staticTotal {
		t.Errorf("sketch total (%v) slower than independence first-run total (%v)", sketchTotal, staticTotal)
	}

	// The C-family estimation mistakes (269x/63x/57x under independence)
	// must shrink below the correction bound: nothing is corrected, and
	// the executed plans' worst error stays under 8x.
	for _, name := range []string{"C1", "C2", "C3"} {
		q, err := watdiv.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Replans) != 0 {
			t.Errorf("%s: %d correction(s) with sketches on; estimates should hold below the bound", name, len(res.Replans))
		}
		if ratio, at := res.Plan.MaxErrorRatio(); at != nil && ratio > core.CorrectionBound {
			t.Errorf("%s: worst estimation error %.1fx still above the %gx correction bound (at %s)",
				name, ratio, core.CorrectionBound, at.Label)
		}
	}

	// Provenance: the sketch store's plans must actually be priced from
	// csets and sketches, and the coverage summary must be available.
	em := s.PRoST.EstSourceMetrics()
	if em.CSet == 0 || em.Sketch == 0 {
		t.Errorf("estimate-source counters show no cset/sketch usage: %+v", em)
	}
	if js, ok := s.PRoST.Stats().JoinStatsSummary(); !ok || js.CSets == 0 || js.SketchPairs == 0 {
		t.Errorf("join-stats summary missing or empty: %+v (ok=%v)", js, ok)
	}
}

func TestAblationBroadcast(t *testing.T) {
	s := systems(t)
	queries := watdiv.BasicQuerySet()
	fig, err := s.AblationBroadcast(queries)
	if err != nil {
		t.Fatalf("AblationBroadcast: %v", err)
	}
	var on, off time.Duration
	for i := range fig.Labels {
		on += fig.Series[0].Values[i]
		off += fig.Series[1].Values[i]
	}
	if on >= off {
		t.Errorf("broadcast-on total (%v) not faster than broadcast-off (%v)", on, off)
	}
}

func TestExtensionInversePT(t *testing.T) {
	s := systems(t)
	queries := ObjectStarQueries()
	fig, err := s.ExtensionInversePT(queries)
	if err != nil {
		t.Fatalf("ExtensionInversePT: %v", err)
	}
	var mixed, ipt time.Duration
	for i := range fig.Labels {
		mixed += fig.Series[0].Values[i]
		ipt += fig.Series[1].Values[i]
	}
	if ipt >= mixed {
		t.Errorf("mixed+ipt total (%v) not faster than mixed (%v) on object stars", ipt, mixed)
	}
}

func TestRunOnUnknownSystem(t *testing.T) {
	s := systems(t)
	q := watdiv.BasicQuerySet()[0]
	if _, err := s.RunOn("NoSuchSystem", q.Parsed); err == nil {
		t.Errorf("RunOn with unknown system succeeded")
	}
}

func TestRenderHelpers(t *testing.T) {
	if got := formatBytes(2 << 30); got != "2.00 GiB" {
		t.Errorf("formatBytes = %q", got)
	}
	if got := formatDuration(25*time.Minute + 32*time.Second); got != "25m 32s" {
		t.Errorf("formatDuration = %q", got)
	}
	if got := formatDuration(3*time.Hour + 11*time.Minute + 44*time.Second); got != "3h 11m 44s" {
		t.Errorf("formatDuration = %q", got)
	}
	if got := formatMS(1195 * time.Millisecond); got != "1195.0ms" {
		t.Errorf("formatMS = %q", got)
	}
	tbl := Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	if !strings.Contains(tbl.String(), "bb") {
		t.Errorf("table render broken:\n%s", tbl)
	}
}
