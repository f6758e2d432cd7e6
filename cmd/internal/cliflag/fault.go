// Package cliflag holds command-line bindings shared by the prost-*
// binaries, so a flag's name, default and help text are written once.
package cliflag

import (
	"flag"

	"repro/internal/cluster"
)

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
