package bench

// Microbenchmark of correction between executions (ablation A5): the
// C-family queries — where the independence assumption's triangle-join
// errors exceed the correction bound — executed with the static cost
// plan and through the plan cache, whose entry the first execution
// corrects from the cardinalities it observed. Run with
//
//	go test ./internal/bench -bench AblationAdaptive
//
// SimTime is reported as the custom metric sim-ms/op.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/watdiv"
)

func BenchmarkAblationAdaptive(b *testing.B) {
	// The independence-estimator store: with join-graph statistics on,
	// the C-family estimates hold and nothing is ever corrected (that is
	// BenchmarkAblationSketches' subject) — correction needs the
	// mis-estimates to exist. Resolved up front so the lazy load never
	// lands inside a timed region.
	f := plannerStore(b)
	indep := f.indepStore(b)
	variants := []struct {
		name string
		opts func(core.QueryOptions) core.QueryOptions
	}{
		{"static", func(o core.QueryOptions) core.QueryOptions {
			o.NoPlanCache = true
			return o
		}},
		{"cached", func(o core.QueryOptions) core.QueryOptions { return o }},
	}
	for _, name := range []string{"C1", "C2", "C3"} {
		q, err := watdiv.QueryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range variants {
			b.Run(name+"/"+v.name, func(b *testing.B) {
				opts := v.opts(core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: f.bcast})
				var sim int64
				for i := 0; i < b.N; i++ {
					res, err := indep.Query(q.Parsed, opts)
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
