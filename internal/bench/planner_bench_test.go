package bench

// Microbenchmarks of the physical planning layer: plan-construction
// cost (translate + estimate + order + physical selection, no
// execution) and end-to-end simulated time per WatDiv query shape for
// the cost-based planner vs the paper's §3.3 heuristic. Run with
//
//	go test ./internal/bench -bench Planner -benchmem
//
// SimTime is reported as the custom metric sim-ms/op; wall ns/op for
// the SimTime benchmarks measures the simulation itself and is not the
// interesting number.

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/watdiv"
)

// plannerFixture is a PRoST-only store priced at the paper's
// 100M-triple scale (same extrapolation as the Systems fixture,
// without loading the three baseline systems). indepStore lazily adds
// the same data without join-graph statistics — the estimator the
// correction benchmarks exercise and the sketch ablation measures
// against; benchmarks that never touch it never pay the extra load.
type plannerFixture struct {
	store *core.Store
	bcast int64
	graph *rdf.Graph

	indepOnce sync.Once
	indep     *core.Store
	indepErr  error

	extvpOnce sync.Once
	extvp     *core.Store
	extvpErr  error
}

// indepStore returns the fixture's independence-estimator store,
// loading it on first use.
func (f *plannerFixture) indepStore(b *testing.B) *core.Store {
	b.Helper()
	f.indepOnce.Do(func() {
		f.indep, f.indepErr = core.Load(f.graph, core.Options{Cluster: f.store.Cluster(), DisableJoinStats: true})
	})
	if f.indepErr != nil {
		b.Fatalf("loading independence fixture: %v", f.indepErr)
	}
	return f.indep
}

var (
	plannerOnce sync.Once
	plannerFix  *plannerFixture
	plannerErr  error
)

func plannerStore(b *testing.B) *plannerFixture {
	b.Helper()
	plannerOnce.Do(func() {
		g := watdiv.MustGenerate(watdiv.Config{Scale: fixtureScale, Seed: 42})
		factor := float64(100_000_000) / float64(g.Len())
		cfg := cluster.DefaultConfig()
		cfg.Cost = scaleCostModel(cfg.Cost, factor)
		c := cluster.MustNew(cfg)
		bcast := int64(float64(engine.DefaultBroadcastThreshold) / factor)
		if bcast < 1 {
			bcast = 1
		}
		store, err := core.Load(g, core.Options{Cluster: c})
		if err != nil {
			plannerErr = err
			return
		}
		plannerFix = &plannerFixture{store: store, bcast: bcast, graph: g}
	})
	if plannerErr != nil {
		b.Fatalf("loading planner fixture: %v", plannerErr)
	}
	return plannerFix
}

// plannerShapes picks one representative query per WatDiv family.
var plannerShapes = []struct{ shape, query string }{
	{"star", "S1"},
	{"linear", "L5"},
	{"snowflake", "F1"},
	{"complex", "C1"},
}

var plannerModes = []struct {
	name string
	mode plan.Mode
}{
	{"cost", plan.ModeCost},
	{"heuristic", plan.ModeHeuristic},
}

// BenchmarkPlannerConstruction measures pure planning cost: translate
// the BGP, estimate cardinalities, order the joins and select physical
// methods, without executing anything.
func BenchmarkPlannerConstruction(b *testing.B) {
	f := plannerStore(b)
	for _, sh := range plannerShapes {
		q, err := watdiv.QueryByName(sh.query)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range plannerModes {
			b.Run(sh.shape+"/"+m.name, func(b *testing.B) {
				opts := core.QueryOptions{Planner: m.mode, BroadcastThreshold: f.bcast}
				for i := 0; i < b.N; i++ {
					if _, err := f.store.Plan(q.Parsed, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlannerSimTime measures end-to-end execution under each
// planner, reporting the simulated cluster time as sim-ms/op.
func BenchmarkPlannerSimTime(b *testing.B) {
	f := plannerStore(b)
	for _, sh := range plannerShapes {
		q, err := watdiv.QueryByName(sh.query)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range plannerModes {
			b.Run(sh.shape+"/"+m.name, func(b *testing.B) {
				// The static plan: this benchmark isolates the planner
				// variable (AblationAdaptive measures correction).
				opts := core.QueryOptions{Planner: m.mode, BroadcastThreshold: f.bcast, NoPlanCache: true}
				var sim int64
				for i := 0; i < b.N; i++ {
					res, err := f.store.Query(q.Parsed, opts)
					if err != nil {
						b.Fatal(err)
					}
					sim += int64(res.SimTime)
				}
				b.ReportMetric(float64(sim)/float64(b.N)/1e6, "sim-ms/op")
			})
		}
	}
}
