package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// Table1 regenerates the paper's Table 1: per-system database size and
// loading time on the shared dataset.
func (s *Systems) Table1() Table {
	t := Table{
		Title:  "Table 1: Size and loading times",
		Header: []string{"System", "Size", "Time"},
	}
	for _, row := range s.loads {
		t.Rows = append(t.Rows, []string{row.System, formatBytes(row.SizeBytes), formatDuration(row.LoadTime)})
	}
	return t
}

// Figure2 regenerates the paper's Figure 2: per-query times for PRoST
// with Vertical Partitioning only versus the mixed strategy.
func (s *Systems) Figure2(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Figure 2: Querying time, VP-only vs mixed strategy (PRoST)",
		Series: []Series{
			{Name: "VP-only"},
			{Name: "Mixed"},
		},
	}
	for _, q := range queries {
		vp, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyVPOnly, BroadcastThreshold: s.BroadcastThreshold, NoPlanCache: true})
		if err != nil {
			return Figure{}, fmt.Errorf("bench: figure 2, %s vp-only: %w", q.Name, err)
		}
		mixed, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, NoPlanCache: true})
		if err != nil {
			return Figure{}, fmt.Errorf("bench: figure 2, %s mixed: %w", q.Name, err)
		}
		if len(vp.Rows) != len(mixed.Rows) {
			return Figure{}, fmt.Errorf("bench: figure 2, %s: vp-only %d rows vs mixed %d rows", q.Name, len(vp.Rows), len(mixed.Rows))
		}
		fig.Labels = append(fig.Labels, q.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, vp.SimTime)
		fig.Series[1].Values = append(fig.Series[1].Values, mixed.SimTime)
	}
	return fig, nil
}

// Figure3 regenerates the paper's Figure 3: per-query times for PRoST,
// S2RDF, Rya and SPARQLGX (the paper plots these on a log scale).
func (s *Systems) Figure3(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Figure 3: Querying time per query, all systems (log scale)",
	}
	for _, name := range SystemNames() {
		fig.Series = append(fig.Series, Series{Name: name})
	}
	for _, q := range queries {
		fig.Labels = append(fig.Labels, q.Name)
		var baseRows = -1
		for i, name := range SystemNames() {
			out, err := s.RunOn(name, q.Parsed)
			if err != nil {
				return Figure{}, fmt.Errorf("bench: figure 3, %s on %s: %w", q.Name, name, err)
			}
			if baseRows < 0 {
				baseRows = out.Rows
			} else if out.Rows != baseRows {
				return Figure{}, fmt.Errorf("bench: figure 3, %s: %s returned %d rows, expected %d", q.Name, name, out.Rows, baseRows)
			}
			fig.Series[i].Values = append(fig.Series[i].Values, out.SimTime)
		}
	}
	return fig, nil
}

// Table2 regenerates the paper's Table 2: average querying time per
// query family, computed from Figure 3's measurements.
func Table2(fig Figure, queries []watdiv.Query) Table {
	group := map[string]string{}
	for _, q := range queries {
		group[q.Name] = q.Group
	}
	sums := map[string]map[string]time.Duration{} // group → system → total
	counts := map[string]int{}
	for i, label := range fig.Labels {
		g := group[label]
		if sums[g] == nil {
			sums[g] = map[string]time.Duration{}
		}
		counts[g]++
		for _, s := range fig.Series {
			sums[g][s.Name] += s.Values[i]
		}
	}
	t := Table{
		Title:  "Table 2: Average querying time grouped by type of query",
		Header: append([]string{"Queries"}, seriesNames(fig.Series)...),
	}
	for _, g := range watdiv.Groups() {
		if counts[g] == 0 {
			continue
		}
		row := []string{watdiv.GroupLabel(g)}
		for _, s := range fig.Series {
			avg := sums[g][s.Name] / time.Duration(counts[g])
			row = append(row, formatMS(avg))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// GroupAverages extracts per-group mean times for one series of a
// figure, used by shape assertions in tests.
func GroupAverages(fig Figure, queries []watdiv.Query, system string) map[string]time.Duration {
	group := map[string]string{}
	for _, q := range queries {
		group[q.Name] = q.Group
	}
	var series *Series
	for i := range fig.Series {
		if fig.Series[i].Name == system {
			series = &fig.Series[i]
		}
	}
	if series == nil {
		return nil
	}
	sums := map[string]time.Duration{}
	counts := map[string]int{}
	for i, label := range fig.Labels {
		g := group[label]
		sums[g] += series.Values[i]
		counts[g]++
	}
	out := map[string]time.Duration{}
	for g, total := range sums {
		out[g] = total / time.Duration(counts[g])
	}
	return out
}

// AblationJoinOrder compares PRoST's statistics-guided node ordering
// against naive written-order execution (ablation A1 in DESIGN.md).
func (s *Systems) AblationJoinOrder(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Ablation A1: statistics-based join ordering",
		Series: []Series{
			{Name: "stats-order"},
			{Name: "naive-order"},
		},
	}
	for _, q := range queries {
		// plan.ModeHeuristic pins the paper's §3.3 statistics ordering this
		// ablation measures (the session default is the cost planner).
		withStats, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, Planner: plan.ModeHeuristic})
		if err != nil {
			return Figure{}, err
		}
		naive, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, Planner: plan.ModeNaive})
		if err != nil {
			return Figure{}, err
		}
		fig.Labels = append(fig.Labels, q.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, withStats.SimTime)
		fig.Series[1].Values = append(fig.Series[1].Values, naive.SimTime)
	}
	return fig, nil
}

// AblationPlanner compares the cost-based physical planner against the
// paper's §3.3 heuristic ordering (ablation A3): same storage, same
// engine, only join order and per-join physical selection differ —
// the plan cache is bypassed on both sides so the delta isolates the
// planner variable (A5 measures correction).
func (s *Systems) AblationPlanner(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Ablation A3: cost-based planner vs §3.3 heuristic",
		Series: []Series{
			{Name: "cost"},
			{Name: "heuristic"},
		},
	}
	for _, q := range queries {
		costRes, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, Planner: plan.ModeCost, NoPlanCache: true})
		if err != nil {
			return Figure{}, err
		}
		heurRes, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, Planner: plan.ModeHeuristic, NoPlanCache: true})
		if err != nil {
			return Figure{}, err
		}
		if len(costRes.Rows) != len(heurRes.Rows) {
			return Figure{}, fmt.Errorf("bench: planner ablation, %s: cost %d rows vs heuristic %d rows", q.Name, len(costRes.Rows), len(heurRes.Rows))
		}
		fig.Labels = append(fig.Labels, q.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, costRes.SimTime)
		fig.Series[1].Values = append(fig.Series[1].Values, heurRes.SimTime)
	}
	return fig, nil
}

// AblationBushy compares bushy DAG execution (plan.ModeCost, the
// default: independent subtrees become sibling subplans priced and run
// as parallel branches) against the same cost-based planner restricted
// to left-deep chains (ablation A4). Same storage, same engine, same
// join arithmetic, static plans on both sides — only the
// plan shape differs, so the delta is the critical-path saving of
// running snowflake arms concurrently.
func (s *Systems) AblationBushy(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Ablation A4: bushy DAG execution vs left-deep chains",
		Series: []Series{
			{Name: "bushy"},
			{Name: "left-deep"},
		},
	}
	for _, q := range queries {
		bushy, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, Planner: plan.ModeCost, NoPlanCache: true})
		if err != nil {
			return Figure{}, err
		}
		ld, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, Planner: plan.ModeCostLeftDeep, NoPlanCache: true})
		if err != nil {
			return Figure{}, err
		}
		if len(bushy.Rows) != len(ld.Rows) {
			return Figure{}, fmt.Errorf("bench: bushy ablation, %s: bushy %d rows vs left-deep %d rows", q.Name, len(bushy.Rows), len(ld.Rows))
		}
		fig.Labels = append(fig.Labels, q.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, bushy.SimTime)
		fig.Series[1].Values = append(fig.Series[1].Values, ld.SimTime)
	}
	return fig, nil
}

// AblationAdaptive compares the static cost plan with what correction
// between executions makes of it (ablation A5), Mixed strategy
// throughout. Three series per query:
//
//   - first: the query's first execution through the plan cache — the
//     static plan, run to completion. A run whose worst Scan or Join
//     missed its estimate by more than core.CorrectionBound re-plans its
//     cache entry from the cardinalities it observed.
//   - corrected: the steady state, once repeated executions stop
//     changing the simulated time (an entry that still misses by more
//     than the bound is corrected again, with more observations).
//   - static: the cost planner with the plan cache bypassed.
//
// A query whose estimates hold never corrects, so its three series are
// equal. A5 runs on an independence-only store (join-graph statistics
// off) loaded for the call, so every first execution meets an empty
// cache: on the default store the sketches fix the very estimation
// mistakes correction exists for (ablation A6's claim).
func (s *Systems) AblationAdaptive(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Ablation A5: corrected steady state vs static cost planner (independence estimator)",
		Series: []Series{
			{Name: "first"},
			{Name: "corrected"},
			{Name: "static"},
		},
	}
	indep, err := s.PRoSTIndep()
	if err != nil {
		return Figure{}, fmt.Errorf("bench: adaptive ablation: %w", err)
	}
	for _, q := range queries {
		base := core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold}

		staticOpts := base
		staticOpts.NoPlanCache = true
		static, err := indep.Query(q.Parsed, staticOpts)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: adaptive ablation, %s static: %w", q.Name, err)
		}
		first, err := indep.Query(q.Parsed, base)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: adaptive ablation, %s first: %w", q.Name, err)
		}
		corrected, err := steadyState(indep, q, base)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: adaptive ablation, %s: %w", q.Name, err)
		}

		if len(first.Rows) != len(static.Rows) || len(corrected.Rows) != len(static.Rows) {
			return Figure{}, fmt.Errorf("bench: adaptive ablation, %s: row counts diverge (static %d, first %d, corrected %d)",
				q.Name, len(static.Rows), len(first.Rows), len(corrected.Rows))
		}
		fig.Labels = append(fig.Labels, q.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, first.SimTime)
		fig.Series[1].Values = append(fig.Series[1].Values, corrected.SimTime)
		fig.Series[2].Values = append(fig.Series[2].Values, static.SimTime)
	}
	return fig, nil
}

// steadyState repeats q through the plan cache until its simulated time
// stops changing — a corrected entry may be corrected once more, when
// its re-plan exposes joins no execution observed yet — and returns the
// last execution.
func steadyState(store *core.Store, q watdiv.Query, opts core.QueryOptions) (*core.Result, error) {
	var res *core.Result
	prev := time.Duration(-1)
	for i := 0; i < 6; i++ {
		var err error
		if res, err = store.Query(q.Parsed, opts); err != nil {
			return nil, fmt.Errorf("cached run %d: %w", i, err)
		}
		if res.SimTime == prev {
			break
		}
		prev = res.SimTime
	}
	return res, nil
}

// AblationSketches measures the join-graph statistics (ablation A6):
// first-execution times on the default store (characteristic sets +
// pair sketches collected at load time) against the independence
// estimator, statically and once correction between executions has
// repaired its mistakes. Three series per query, Mixed strategy:
//
//   - sketches-1st: the default store, a fresh plan — the cost a *new*
//     query pays.
//   - indep-corrected: the sketch-less store's steady state through the
//     plan cache — what repeated executions of the query earn from
//     correcting its cache entry.
//   - indep-static: the sketch-less store, a fresh plan — the
//     uncorrected baseline.
//
// The A6 claim: sketches make a new query's first execution at least
// as good as the independence estimator's, with no correction firing;
// indep-corrected shows what repeated executions reach without them.
func (s *Systems) AblationSketches(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Ablation A6: join-graph statistics (csets + sketches) vs independence estimator",
		Series: []Series{
			{Name: "sketches-1st"},
			{Name: "indep-corrected"},
			{Name: "indep-static"},
		},
	}
	indep, err := s.PRoSTIndep()
	if err != nil {
		return Figure{}, fmt.Errorf("bench: sketch ablation: %w", err)
	}
	for _, q := range queries {
		base := core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold}
		fresh := base
		fresh.NoPlanCache = true

		sketch, err := s.PRoST.Query(q.Parsed, fresh)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: sketch ablation, %s sketches: %w", q.Name, err)
		}
		indepCorrected, err := steadyState(indep, q, base)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: sketch ablation, %s indep-corrected: %w", q.Name, err)
		}
		indepStatic, err := indep.Query(q.Parsed, fresh)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: sketch ablation, %s indep-static: %w", q.Name, err)
		}

		if len(sketch.Rows) != len(indepStatic.Rows) || len(indepCorrected.Rows) != len(indepStatic.Rows) {
			return Figure{}, fmt.Errorf("bench: sketch ablation, %s: row counts diverge (sketch %d, corrected %d, static %d)",
				q.Name, len(sketch.Rows), len(indepCorrected.Rows), len(indepStatic.Rows))
		}
		fig.Labels = append(fig.Labels, q.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, sketch.SimTime)
		fig.Series[1].Values = append(fig.Series[1].Values, indepCorrected.SimTime)
		fig.Series[2].Values = append(fig.Series[2].Values, indepStatic.SimTime)
	}
	return fig, nil
}

// AblationBroadcast compares PRoST with Catalyst-style broadcast joins
// enabled (default) and disabled (ablation A2 in DESIGN.md).
func (s *Systems) AblationBroadcast(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Ablation A2: broadcast join selection",
		Series: []Series{
			{Name: "broadcast-on"},
			{Name: "broadcast-off"},
		},
	}
	for _, q := range queries {
		on, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, NoPlanCache: true})
		if err != nil {
			return Figure{}, err
		}
		off, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: -1, NoPlanCache: true})
		if err != nil {
			return Figure{}, err
		}
		fig.Labels = append(fig.Labels, q.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, on.SimTime)
		fig.Series[1].Values = append(fig.Series[1].Values, off.SimTime)
	}
	return fig, nil
}

// ExtensionInversePT compares the mixed strategy against mixed+IPT on
// object-star queries (the paper's §5 future work). The systems must
// have been loaded with LoadOptions.InversePT.
func (s *Systems) ExtensionInversePT(queries []watdiv.Query) (Figure, error) {
	fig := Figure{
		Title: "Extension E1: inverse (object-keyed) Property Table",
		Series: []Series{
			{Name: "mixed"},
			{Name: "mixed+ipt"},
		},
	}
	for _, q := range queries {
		mixed, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, NoPlanCache: true})
		if err != nil {
			return Figure{}, err
		}
		ipt, err := s.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixedIPT, BroadcastThreshold: s.BroadcastThreshold, NoPlanCache: true})
		if err != nil {
			return Figure{}, err
		}
		if len(mixed.Rows) != len(ipt.Rows) {
			return Figure{}, fmt.Errorf("bench: extension, %s: mixed %d rows vs ipt %d rows", q.Name, len(mixed.Rows), len(ipt.Rows))
		}
		fig.Labels = append(fig.Labels, q.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, mixed.SimTime)
		fig.Series[1].Values = append(fig.Series[1].Values, ipt.SimTime)
	}
	return fig, nil
}

// ObjectStarQueries returns the extension experiment's workload: BGPs
// whose patterns share object variables, where the inverse PT saves
// joins. They follow the WatDiv vocabulary.
func ObjectStarQueries() []watdiv.Query {
	// Pure object stars: every subject variable occurs once, so the
	// Mixed strategy cannot group anything and pays a join per pattern,
	// while Mixed+IPT answers each star with one inverse-PT select.
	raw := []struct{ name, body string }{
		{"O1", `SELECT ?r ?r2 WHERE {
			?r rev:reviewer ?u .
			?r2 rev:reviewer ?u .
		}`},
		{"O2", `SELECT ?u ?v WHERE {
			?u wsdbm:livesIn ?c .
			?v wsdbm:livesIn ?c .
		}`},
		{"O3", `SELECT ?o ?u WHERE {
			?o sorg:eligibleRegion ?c .
			?u sorg:nationality ?c .
		}`},
	}
	prologueQ := `
PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
PREFIX sorg: <http://schema.org/>
PREFIX rev: <http://purl.org/stuff/rev#>
PREFIX gr: <http://purl.org/goodrelations/>
`
	var out []watdiv.Query
	for _, r := range raw {
		text := prologueQ + r.body
		parsed, err := parseMust(text, r.name)
		if err != nil {
			panic(err)
		}
		out = append(out, watdiv.Query{Name: r.name, Group: "O", Text: text, Parsed: parsed})
	}
	return out
}

func parseMust(text, name string) (*sparql.Query, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("bench: query %s: %w", name, err)
	}
	q.Name = name
	return q, nil
}
