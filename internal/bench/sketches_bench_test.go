package bench

// Microbenchmark of the join-graph statistics (ablation A6): the
// C-family queries executed as a first run (fresh plan, no cache) on
// the default store — characteristic sets + pair sketches collected at
// load time price the correlated joins statically — against the same
// first run on the independence-estimator store and that store's cached
// executions, whose entries correction repairs. Run with
//
//	go test ./internal/bench -bench AblationSketches
//
// SimTime is reported as the custom metric sim-ms/op.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/watdiv"
)

func BenchmarkAblationSketches(b *testing.B) {
	f := plannerStore(b)
	// Resolved up front so the lazy load never lands inside a timed
	// region.
	indep := f.indepStore(b)
	variants := []struct {
		name  string
		store *core.Store
		opts  func(core.QueryOptions) core.QueryOptions
	}{
		{"sketches-1st", f.store, func(o core.QueryOptions) core.QueryOptions {
			o.NoPlanCache = true
			return o
		}},
		{"indep-cached", indep, func(o core.QueryOptions) core.QueryOptions { return o }},
		{"indep-static", indep, func(o core.QueryOptions) core.QueryOptions {
			o.NoPlanCache = true
			return o
		}},
	}
	for _, name := range []string{"C1", "C2", "C3"} {
		q, err := watdiv.QueryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range variants {
			b.Run(name+"/"+v.name, func(b *testing.B) {
				opts := v.opts(core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: f.bcast})
				store := v.store
				var sim int64
				for i := 0; i < b.N; i++ {
					res, err := store.Query(q.Parsed, opts)
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
