package core

import (
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// resolved is one query's options after resolution: every default
// applied and every "feature X turns feature Y off" rule decided, once,
// before anything is planned. Planning, both executors and result
// assembly read it; none of them sees QueryOptions.
type resolved struct {
	strategy Strategy
	mode     plan.Mode
	// broadcast is the broadcast joins' build-side cap in bytes, negative
	// when they are disabled; broadcastOpt is the option as given, which
	// is how the plan-cache key spells it.
	broadcast, broadcastOpt int64
	// chunk is the streaming rows per batch and per priced morsel.
	chunk int
	// faults is the active fault plan (nil: the fault-free hot path, no
	// recovery pricing, no attempt bookkeeping); faultSalt decorrelates
	// its schedule across queries.
	faults    *cluster.FaultPlan
	faultSalt uint64
	// dist is where a sharded query's kernels run — runMaterialized opens
	// the query's session on it; nil runs every kernel here.
	dist DistRunner
	// extvp: the planner is offered the store's semi-join reductions and
	// the executed join pairs are mined for the reduction builder.
	extvp bool
	// cacheable: the plan comes from and goes into the plan cache, and
	// an execution may correct it there (Store.correct).
	cacheable bool
	// streaming picks the morsel executor; downgraded reports that it was
	// asked for and the materialized scheduler runs instead.
	streaming, downgraded bool
}

// resolve turns a query's options into the resolved value. It is the
// only place an option is defaulted and the only place one feature turns
// another off:
//
//	when                                then
//	Dist is set                         kernels run on the shards through one session; streaming off
//	                                    (reported as a downgrade), ExtVP not offered (shards hold
//	                                    base tables), no join pairs mined (nothing would scan the
//	                                    reductions built)
//	Faults                              nil or inactive: none; active: priced on the coordinator,
//	                                    on every route and either executor
//	BroadcastThreshold                  0: engine.DefaultBroadcastThreshold; negative: no broadcasts
//	NoPlanCache                         planned fresh, not inserted, never corrected
//	no workload model                   ExtVP not offered, nothing mined
//
// Whether an execution corrects its cache entry is decided after it ran,
// by Store.correct: only cost-planned plain BGP queries do, on any route
// and either executor. An invalid per-query fault plan is refused here,
// before planning. Resolving has no side effect: Plan and QueryContext
// share it.
func (s *Store) resolve(q *sparql.Query, opts QueryOptions) (resolved, error) {
	if err := opts.Faults.Validate(); err != nil {
		return resolved{}, err
	}
	local := opts.Dist == nil
	r := resolved{
		strategy:     opts.Strategy,
		mode:         opts.Planner,
		broadcast:    opts.BroadcastThreshold,
		broadcastOpt: opts.BroadcastThreshold,
		chunk:        opts.chunkSize,
		faults:       opts.Faults,
		dist:         opts.Dist,
		extvp:        local && s.workload != nil,
		cacheable:    !opts.NoPlanCache,
		streaming:    local && opts.Streaming,
		downgraded:   !local && opts.Streaming,
	}
	if r.broadcast == 0 {
		r.broadcast = engine.DefaultBroadcastThreshold
	}
	if r.chunk <= 0 {
		r.chunk = DefaultChunkSize
	}
	if r.faults.Active() {
		r.faultSalt = queryFaultSalt(q)
	} else {
		r.faults = nil
	}
	return r, nil
}
