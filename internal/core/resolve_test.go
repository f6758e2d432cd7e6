package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// fakeDist is a DistRunner nothing can execute on: resolving and
// planning never open a session.
type fakeDist struct{ opened int }

func (d *fakeDist) Session(context.Context, *sparql.Query, *engine.Region) (DistSession, error) {
	d.opened++
	return nil, errors.New("fakeDist executes nothing")
}

const (
	resolvePlain = `SELECT ?u ?v WHERE {
		?u <http://example.org/follows> ?v .
		?v <http://example.org/likes> ?p .
	}`
	resolveExtended = resolvePlain + ` ORDER BY ?u LIMIT 2`
)

// TestResolveTable is the "feature X turns feature Y off" table of
// Store.resolve, row by row, on the resolver alone — nothing is
// executed. Each row states what the scattered code the resolver
// replaced computed for that combination (QueryContext's in-flight
// option rewriting, chunkSize(), offersExtVP, the fault-plan and
// broadcast-threshold defaulting), and the plan-cache key it looked the
// plan up under: the keys were recorded from a run of that code (the
// re-plan bound's segment is gone with the option, the statistics
// fingerprint's with statistics reloads) and must stay string-equal, so
// no cached plan is ever shared or split differently.
func TestResolveTable(t *testing.T) {
	queryFaults := &cluster.FaultPlan{Seed: 8, StragglerRate: 0.3}
	stores := map[string]Options{
		"plain":    {},
		"workload": {ExtVPBudget: 1 << 20},
	}
	// Keys shared by several rows.
	const (
		keyTail     = "||u,v|?u <http://example.org/follows> ?v\n?v <http://example.org/likes> ?p\n|"
		keyDefault  = "cost|mixed|0|0" + keyTail
		keyExtended = keyDefault + "|ext|SELECT ?u ?v WHERE {\n  ?u <http://example.org/follows> ?v .\n  ?v <http://example.org/likes> ?p .\n}\nORDER BY ASC(?u)\nLIMIT 2"
	)
	rows := []struct {
		name, store, query string
		opts               func(d DistRunner) QueryOptions
		// want edits the all-defaults resolved value of a local plain
		// query on a store with a plan cache and nothing else.
		want func(r *resolved)
		key  string // "" where none is computed (not cacheable)
	}{
		{"defaults", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{} },
			func(r *resolved) {}, keyDefault},

		// Dist: streaming off, ExtVP not offered; faults are priced on
		// the coordinator as for a local query.
		{"dist", "plain", resolvePlain, func(d DistRunner) QueryOptions { return QueryOptions{Dist: d} },
			func(r *resolved) {}, keyDefault},
		{"dist + streaming", "plain", resolvePlain, func(d DistRunner) QueryOptions { return QueryOptions{Dist: d, Streaming: true} },
			func(r *resolved) { r.downgraded = true }, keyDefault},
		{"dist + faults", "plain", resolvePlain, func(d DistRunner) QueryOptions { return QueryOptions{Dist: d, Faults: queryFaults} },
			func(r *resolved) { r.faults = queryFaults }, keyDefault},
		{"dist on a store with a workload model", "workload", resolvePlain, func(d DistRunner) QueryOptions { return QueryOptions{Dist: d} },
			func(r *resolved) {}, keyDefault},
		{"local on a store with a workload model", "workload", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{} },
			func(r *resolved) { r.extvp = true }, strings.Replace(keyDefault, "|0"+keyTail, "|0+extvp"+keyTail, 1)},

		// Planner modes and extended queries resolve as given; whether an
		// execution corrects its entry is decided after it ran.
		{"extended query", "plain", resolveExtended, func(DistRunner) QueryOptions { return QueryOptions{} },
			func(r *resolved) {}, keyExtended},
		{"heuristic planner", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Planner: plan.ModeHeuristic} },
			func(r *resolved) { r.mode = plan.ModeHeuristic }, strings.Replace(keyDefault, "cost|", "heuristic|", 1)},
		{"naive planner", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Planner: plan.ModeNaive} },
			func(r *resolved) { r.mode = plan.ModeNaive }, strings.Replace(keyDefault, "cost|", "naive|", 1)},
		{"left-deep cost planner", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Planner: plan.ModeCostLeftDeep} },
			func(r *resolved) { r.mode = plan.ModeCostLeftDeep }, strings.Replace(keyDefault, "cost|", "cost-leftdeep|", 1)},

		// The re-plan bound is no longer an option (CorrectionBound is a
		// constant): the combinations that used to set one resolve exactly
		// as without it, under one key.
		{"dist + explicit re-plan bound", "plain", resolvePlain, func(d DistRunner) QueryOptions { return QueryOptions{Dist: d} },
			func(r *resolved) {}, keyDefault},
		{"dist + negative re-plan bound", "plain", resolvePlain, func(d DistRunner) QueryOptions { return QueryOptions{Dist: d} },
			func(r *resolved) {}, keyDefault},
		{"extended query + explicit re-plan bound", "plain", resolveExtended, func(DistRunner) QueryOptions { return QueryOptions{} },
			func(r *resolved) {}, keyExtended},
		{"explicit re-plan bound", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{} },
			func(r *resolved) {}, keyDefault},
		{"negative re-plan bound", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{} },
			func(r *resolved) {}, keyDefault},

		// Faults: the query's active plan, else none. Never in the key.
		{"per-query fault plan", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Faults: queryFaults} },
			func(r *resolved) { r.faults = queryFaults }, keyDefault},
		{"inactive per-query plan is none", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Faults: &cluster.FaultPlan{Seed: 9}} },
			func(r *resolved) {}, keyDefault},
		{"per-query fault plan, streaming", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Faults: queryFaults, Streaming: true} },
			func(r *resolved) { r.faults, r.streaming = queryFaults, true }, keyDefault},

		// Broadcast threshold: the key spells the option, not the default.
		{"broadcast threshold set", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{BroadcastThreshold: 2048} },
			func(r *resolved) { r.broadcast, r.broadcastOpt = 2048, 2048 }, strings.Replace(keyDefault, "|mixed|0|", "|mixed|2048|", 1)},
		{"broadcast joins disabled", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{BroadcastThreshold: -1} },
			func(r *resolved) { r.broadcast, r.broadcastOpt = -1, -1 }, strings.Replace(keyDefault, "|mixed|0|", "|mixed|-1|", 1)},

		// Executor knobs: never in the key.
		{"chunk size set", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Streaming: true, chunkSize: 7} },
			func(r *resolved) { r.streaming, r.chunk = true, 7 }, keyDefault},
		{"negative chunk size", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{chunkSize: -5} },
			func(r *resolved) {}, keyDefault},

		// The plan cache: every store has one; NoPlanCache bypasses it.
		{"NoPlanCache", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{NoPlanCache: true} },
			func(r *resolved) { r.cacheable = false }, ""},

		// Strategy: resolved as given; the translator refuses it.
		{"mixed+ipt without the inverse PT", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Strategy: StrategyMixedIPT} },
			func(r *resolved) { r.strategy = StrategyMixedIPT }, strings.Replace(keyDefault, "|mixed|", "|mixed+ipt|", 1)},
		{"vp-only", "plain", resolvePlain, func(DistRunner) QueryOptions { return QueryOptions{Strategy: StrategyVPOnly} },
			func(r *resolved) { r.strategy = StrategyVPOnly }, strings.Replace(keyDefault, "|mixed|", "|vp-only|", 1)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			lopts := stores[row.store]
			lopts.Cluster = cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
			s, err := Load(testGraph(), lopts)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			q := sparql.MustParse(row.query)
			dist := &fakeDist{}
			opts := row.opts(dist)

			got, err := s.resolve(q, opts)
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			want := resolved{
				broadcast: engine.DefaultBroadcastThreshold,
				chunk:     DefaultChunkSize, cacheable: true,
			}
			row.want(&want)
			if want.faults != nil {
				want.faultSalt = queryFaultSalt(q)
			}
			want.dist = opts.Dist
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resolved\n got %+v\nwant %+v", got, want)
			}

			wantKey := row.key
			if key := planCacheKey(q, got, s.workloadEpoch()); got.cacheable && key != wantKey {
				t.Errorf("plan-cache key\n got %q\nwant %q", key, wantKey)
			}
			_, key, err := s.planEntry(q, got)
			if row.name == "mixed+ipt without the inverse PT" {
				if err == nil || err.Error() != "core: StrategyMixedIPT requires a store loaded with BuildInversePT" {
					t.Errorf("planning mixed+ipt without the inverse PT: %v", err)
				}
			} else if err != nil || key != wantKey {
				t.Errorf("planEntry: key %q, err %v; want key %q", key, err, wantKey)
			}
			// Resolving and planning have no side effect: the session is
			// the executor's to open.
			if _, err := s.Plan(q, opts); dist.opened != 0 {
				t.Errorf("resolve + Plan opened %d shard sessions (Plan: %v)", dist.opened, err)
			}
		})
	}

	// An invalid per-query fault plan is refused before anything else
	// happens — Dist or not.
	s := testStore(t, false)
	_, err := s.resolve(sparql.MustParse(resolvePlain), QueryOptions{Dist: &fakeDist{}, Faults: &cluster.FaultPlan{FailRate: 1.5}})
	if err == nil || !strings.Contains(err.Error(), "FaultPlan.FailRate = 1.5 out of [0,1]") {
		t.Errorf("invalid fault plan: err %v", err)
	}
}
