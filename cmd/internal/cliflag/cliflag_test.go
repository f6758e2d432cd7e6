package cliflag

import (
	"context"
	"flag"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/watdiv"
)

// parse binds the fault flags on a fresh flag set and parses args, the
// way both binaries do on flag.CommandLine.
func parse(t *testing.T, args ...string) *cluster.FaultPlan {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	plan := FaultPlan(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%v): %v", args, err)
	}
	return plan()
}

func TestFaultPlanNilWhenNoRateIsSet(t *testing.T) {
	if fp := parse(t); fp != nil {
		t.Errorf("no flags: plan %+v, want nil", fp)
	}
	if fp := parse(t, "-fault-seed", "7", "-fault-straggler-factor", "3"); fp != nil {
		t.Errorf("seed and factor only: plan %+v, want nil (no rate set)", fp)
	}
	want := &cluster.FaultPlan{Seed: 7, FailRate: 0.25, StragglerRate: 0.5, StragglerFactor: 3, CorruptRate: 0.125}
	got := parse(t, "-fault-seed", "7", "-fault-fail-rate", "0.25", "-fault-straggler-rate", "0.5",
		"-fault-straggler-factor", "3", "-fault-corrupt-rate", "0.125")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan = %+v, want %+v", got, want)
	}
}

// TestInvalidFaultFlagsRefusedOnBothPaths: an out-of-range plan used to
// stop prost-serve but run under prost-query, whose per-query plan went
// straight to the fault decisions — 1.5 acting as "always", 0.5
// silently becoming the default factor. Both binaries now refuse it at
// start-up (Query), and a query carrying it is refused with the same
// Validate error.
func TestInvalidFaultFlagsRefusedOnBothPaths(t *testing.T) {
	const wantMsg = "FaultPlan.FailRate = 1.5 out of [0,1]"
	args := []string{"-fault-fail-rate", "1.5", "-fault-straggler-factor", "0.5"}
	bad := parse(t, args...)
	if bad == nil {
		t.Fatal("active plan parsed as nil")
	}

	// Start-up: the flags are the binaries' per-query default.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	query := Query(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if _, err := query(); err == nil || !strings.Contains(err.Error(), wantMsg) {
		t.Errorf("Query with the invalid plan: %v, want %q", err, wantMsg)
	}

	// A query carrying the plan.
	g := watdiv.MustGenerate(watdiv.Config{Scale: 100, Seed: 1})
	store, err := core.Load(g, core.Options{Cluster: cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: 4})})
	if err != nil {
		t.Fatal(err)
	}
	q := watdiv.BasicQuerySet()[0].Parsed
	for _, streaming := range []bool{false, true} {
		_, err := store.QueryContext(context.Background(), q, core.QueryOptions{Faults: bad, Streaming: streaming})
		if err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Errorf("QueryContext(streaming=%v) with the invalid plan: %v, want %q", streaming, err, wantMsg)
		}
	}
	for _, fp := range []*cluster.FaultPlan{
		{FailRate: 0.5, StragglerFactor: 0.5},
		{FailRate: 0.5, StragglerFactor: math.Inf(1)},
	} {
		if _, err := store.Query(q, core.QueryOptions{Faults: fp}); err == nil {
			t.Errorf("QueryContext accepted %+v", fp)
		}
	}
	if m := store.ResilienceMetrics(); m != (cluster.Recovery{}) {
		t.Errorf("a refused plan still executed something: %+v", m)
	}

	// Non-finite and huge values parse as floats; a NaN rate, which
	// compares false with everything, must not turn the plan off.
	for _, args := range [][]string{
		{"-fault-fail-rate", "NaN"},
		{"-fault-straggler-rate", "NaN"},
		{"-fault-corrupt-rate", "Inf"},
		{"-fault-straggler-rate", "1", "-fault-straggler-factor", "NaN"},
		{"-fault-straggler-rate", "1", "-fault-straggler-factor", "+Inf"},
		{"-fault-straggler-rate", "1", "-fault-straggler-factor", "1e300"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		query := Query(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if _, err := query(); err == nil {
			t.Errorf("Query accepted %v", args)
		}
	}
}

// TestSharedFlagsMapAsTheBinariesDid: the flag sets more than one
// binary registers turn into the values each binary used to write out —
// two partitions per worker and a QueryOptions with the strategy and planner parsed (an unknown one
// refused, listing the valid names).
func TestSharedFlagsMapAsTheBinariesDid(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	clusterCfg, query := Cluster(fs), Query(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := cluster.DefaultConfig()
	want.Workers, want.DefaultPartitions = 9, 18
	if got := clusterCfg(); !reflect.DeepEqual(got, want) {
		t.Errorf("no flags: cluster config %+v, want %+v", got, want)
	}
	if q, err := query(); err != nil || !reflect.DeepEqual(q, core.QueryOptions{}) {
		t.Errorf("no flags: query options %+v, err %v; want the zero value", q, err)
	}

	args := []string{"-workers", "4", "-strategy", "mixed+ipt", "-planner", "heuristic",
		"-streaming", "-fault-seed", "3", "-fault-fail-rate", "0.5"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if cfg := clusterCfg(); cfg.Workers != 4 || cfg.DefaultPartitions != 8 {
		t.Errorf("-workers 4: %d workers, %d partitions; want 4 and 8", cfg.Workers, cfg.DefaultPartitions)
	}
	q, err := query()
	wantQ := core.QueryOptions{Strategy: core.StrategyMixedIPT, Planner: plan.ModeHeuristic, Streaming: true,
		Faults: &cluster.FaultPlan{Seed: 3, FailRate: 0.5}}
	if err != nil || !reflect.DeepEqual(q, wantQ) {
		t.Errorf("query options %+v, err %v; want %+v", q, err, wantQ)
	}
	for flagName, valid := range map[string]string{"-strategy": "vp-only", "-planner": "cost-leftdeep"} {
		if err := fs.Parse([]string{flagName, "bogus"}); err != nil {
			t.Fatal(err)
		}
		if _, err := query(); err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), valid) {
			t.Errorf("%s bogus: err %v, want a refusal listing the valid values", flagName, err)
		}
		if err := fs.Parse([]string{flagName, valid}); err != nil {
			t.Fatal(err)
		}
	}
}
