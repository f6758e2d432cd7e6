package bench

// Microbenchmark of the workload-driven ExtVP semi-join tables
// (ablation A7): the C-family queries executed VP-only on the
// sketch store against the same queries on a store whose workload
// model has already mined the query mix and materialized its hot
// reductions — the steady state a repeated workload converges to. Run
// with
//
//	go test ./internal/bench -bench AblationExtVP
//
// SimTime is reported as the custom metric sim-ms/op.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/watdiv"
)

// extvpStore returns the fixture's workload-model store, loaded on
// first use and warmed outside any timed region: the basic query set
// runs three times, materializing every hot pair the mix surfaces, so
// the benchmark measures rewritten steady-state plans rather than
// mining.
func (f *plannerFixture) extvpStore(b *testing.B) *core.Store {
	b.Helper()
	f.extvpOnce.Do(func() {
		s, err := core.Load(f.graph, core.Options{Cluster: f.store.Cluster(),
			PathPrefix: "/prost-extvp-bench", ExtVPBudget: 1 << 30, ExtVPBuildAfter: 1})
		if err != nil {
			f.extvpErr = err
			return
		}
		opts := core.QueryOptions{Strategy: core.StrategyVPOnly, BroadcastThreshold: f.bcast,
			NoPlanCache: true}
		for i := 0; i < 3; i++ {
			for _, q := range watdiv.BasicQuerySet() {
				if _, f.extvpErr = s.Query(q.Parsed, opts); f.extvpErr != nil {
					return
				}
			}
		}
		f.extvp = s
	})
	if f.extvpErr != nil {
		b.Fatalf("loading extvp fixture: %v", f.extvpErr)
	}
	return f.extvp
}

func BenchmarkAblationExtVP(b *testing.B) {
	f := plannerStore(b)
	extvp := f.extvpStore(b)
	variants := []struct {
		name  string
		store *core.Store
	}{
		{"sketch-baseline", f.store},
		{"extvp-warm", extvp},
	}
	for _, name := range []string{"C1", "C2", "C3"} {
		q, err := watdiv.QueryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range variants {
			b.Run(name+"/"+v.name, func(b *testing.B) {
				opts := core.QueryOptions{Strategy: core.StrategyVPOnly, BroadcastThreshold: f.bcast,
					NoPlanCache: true}
				var sim int64
				for i := 0; i < b.N; i++ {
					res, err := v.store.Query(q.Parsed, opts)
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
