// Package cliflag holds command-line bindings shared by the prost-*
// binaries, so a flag's name, default and help text — and what its value
// is turned into — are written once.
package cliflag

import (
	"flag"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
)

// Cluster registers -workers on fs and returns a function that, once fs
// is parsed, gives the simulated cluster's configuration: the default
// cost model, that many workers, two table partitions per worker.
func Cluster(fs *flag.FlagSet) func() cluster.Config {
	workers := fs.Int("workers", 9, "simulated worker machines (a prost-shard must be given its coordinator's value)")
	return func() cluster.Config {
		cfg := cluster.DefaultConfig()
		cfg.Workers = *workers
		cfg.DefaultPartitions = 2 * *workers
		return cfg
	}
}

// Query registers the flags a query's options are made of — -strategy,
// -planner, -streaming and the -fault-* set — and returns
// a function that, once fs is parsed, assembles them, refusing an
// unknown strategy or planner. prost-serve uses the result as its
// per-request default.
func Query(fs *flag.FlagSet) func() (core.QueryOptions, error) {
	var o core.QueryOptions
	strategy := fs.String("strategy", "mixed", "query strategy (prost-serve: the default, ?strategy= overrides per request): "+strings.Join(core.StrategyNames(), ", "))
	planner := fs.String("planner", "cost", "planner mode (prost-serve: the default, ?planner= overrides per request): "+strings.Join(plan.ModeNames(), ", "))
	fs.BoolVar(&o.Streaming, "streaming", false, "execute through the morsel-driven streaming pipelines instead of materialized stages (prost-serve: the default, ?streaming= overrides per request)")
	faults := FaultPlan(fs)
	return func() (core.QueryOptions, error) {
		var err error
		if o.Strategy, err = core.ParseStrategy(*strategy); err != nil {
			return o, err
		}
		o.Planner, err = plan.ParseMode(*planner)
		o.Faults = faults()
		return o, err
	}
}

// FaultPlan registers the -fault-* flags on fs and returns a function
// that, once fs is parsed, assembles the injected fault schedule — nil
// when no rate is set, which keeps execution on the fault-free path.
// The plan is not validated here: cluster.New (a cluster-wide plan) and
// Store.QueryContext (a per-query one) both refuse an invalid plan.
func FaultPlan(fs *flag.FlagSet) func() *cluster.FaultPlan {
	fp := &cluster.FaultPlan{}
	fs.Uint64Var(&fp.Seed, "fault-seed", 0, "seed for the deterministic fault schedule (fault injection is off unless a -fault-* rate is set)")
	fs.Float64Var(&fp.FailRate, "fault-fail-rate", 0, "probability a task attempt fails outright")
	fs.Float64Var(&fp.StragglerRate, "fault-straggler-rate", 0, "probability a task attempt straggles")
	fs.Float64Var(&fp.StragglerFactor, "fault-straggler-factor", 0, "slowdown multiple for straggling attempts (0 = default)")
	fs.Float64Var(&fp.CorruptRate, "fault-corrupt-rate", 0, "probability an exchange delivery is corrupted (detected by checksum, repaired from lineage)")
	return func() *cluster.FaultPlan {
		if !fp.Active() {
			return nil
		}
		return fp
	}
}
