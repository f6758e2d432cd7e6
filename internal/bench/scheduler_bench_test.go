package bench

// Microbenchmarks of the concurrent execution path: bushy DAG plans vs
// left-deep chains on the snowflake/complex families, and server-style
// concurrent throughput at increasing in-flight client counts. Run with
//
//	go test ./internal/bench -bench 'Scheduler|Throughput'
//
// SimTime benchmarks report the simulated cluster time as sim-ms/op;
// the throughput benchmark reports real queries/sec, the number the
// prost-serve capacity planning cares about.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/watdiv"
)

// schedulerShapes are the multi-arm query shapes where bushy execution
// can shorten the critical path: the full snowflake (F) family per the
// scheduler ablation, plus the complex (C) family where the Mixed
// strategy leaves enough join-tree nodes for sibling subtrees.
var schedulerShapes = []string{"F1", "F2", "F3", "F4", "F5", "C1", "C2", "C3"}

// BenchmarkSchedulerBushyVsLeftDeep measures end-to-end simulated time
// of bushy DAG execution against the left-deep restriction, per query
// and strategy (VP-only keeps every pattern a separate leaf, so the F
// family exposes arm parallelism there even when PT grouping collapses
// it under Mixed).
func BenchmarkSchedulerBushyVsLeftDeep(b *testing.B) {
	f := plannerStore(b)
	strategies := []struct {
		name string
		s    core.Strategy
	}{
		{"mixed", core.StrategyMixed},
		{"vp-only", core.StrategyVPOnly},
	}
	modes := []struct {
		name string
		m    plan.Mode
	}{
		{"bushy", plan.ModeCost},
		{"left-deep", plan.ModeCostLeftDeep},
	}
	for _, name := range schedulerShapes {
		q, err := watdiv.QueryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range strategies {
			for _, m := range modes {
				b.Run(name+"/"+st.name+"/"+m.name, func(b *testing.B) {
					// The static plan: the benchmark isolates the
					// bushy-vs-left-deep plan shape.
					opts := core.QueryOptions{Strategy: st.s, Planner: m.m, BroadcastThreshold: f.bcast, NoPlanCache: true}
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
}

// BenchmarkConcurrentThroughput measures real queries/sec through
// Store.Query with 1, 8 and 32 in-flight clients cycling the basic
// WatDiv set — the server workload. The plan cache is warm after the
// first cycle, so this is the steady-state serving regime.
func BenchmarkConcurrentThroughput(b *testing.B) {
	f := plannerStore(b)
	queries := watdiv.BasicQuerySet()
	for _, clients := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			opts := core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: f.bcast}
			var next atomic.Int64
			start := time.Now()
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						q := queries[int(i)%len(queries)]
						if _, err := f.store.Query(q.Parsed, opts); err != nil {
							errs <- fmt.Errorf("%s: %w", q.Name, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/sec")
		})
	}
}
