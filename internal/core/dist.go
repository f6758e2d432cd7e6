package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/wire"
)

// This file is the coordinator side of distributed execution. The
// coordinator runs the normal planning and scheduling path unchanged —
// plan cache, cost model, shuffle routing and stage pricing are all
// local — and delegates only the per-partition kernels (scans and
// exchange joins) to shard processes through a DistSession. A scan is
// resolved coordinator-side into the same NodeScan a local run reads
// (nodescan.go) and differs only in where its partitions' rows come
// from; kernels are deterministic functions of their fragments, and
// every stage's TaskStats derive from coordinator-known values, so
// results and SimTime are identical to single-process execution by
// construction.
//
// What a query gives up while a DistRunner is installed is decided in
// one place, Store.resolve (the first row of its table); beyond that,
// variable-predicate (raw-triples fallback) scans evaluate
// coordinator-side.

// DistRunner hands out per-query distributed sessions; internal/shard's
// Coordinator is the production implementation.
type DistRunner interface {
	// Session opens q's session; ctx is the query's context, and every
	// shard call the session makes is bounded by it. The rows the session
	// decodes from shard responses are carved from region, the query's,
	// which outlives the session.
	Session(ctx context.Context, q *sparql.Query, region *engine.Region) (DistSession, error)
}

// DistSession executes one query's shard work: scan kernels plus the
// engine's exchange kernels, with per-exchange byte and latency
// measurement.
type DistSession interface {
	engine.Exchanger
	// ScanNode evaluates a scan node's kernel shard-locally: every shard
	// scans its owned partitions of the node's table and returns the
	// filtered rows per (global) partition, plus per-partition processed
	// counts (keys examined, for PT scans; zero for VP scans, whose Rows
	// stat is the raw partition length the coordinator already knows).
	// planNode is the scan's plan node ID, for its ExchangeRecord;
	// filterIdx indexes the session query's FILTER list; label and
	// modeledBytes feed the calibration layer's leaf-pricing record.
	ScanNode(planNode int, n *Node, filterIdx []int, label string, modeledBytes int64) (parts []engine.Block, processed []int64, err error)
	// Records returns the session's exchange records in execution order.
	Records() []ExchangeRecord
	// Close releases the session.
	Close() error
}

// ExchangeRecord measures one wire exchange against its cost-model
// price — the calibration evidence /stats and /explain report.
type ExchangeRecord struct {
	// Node is the ID of the plan operator the exchange executed.
	Node int
	// Kind is the exchange flavor: "shuffle", "broadcast", "cartesian",
	// "distinct" or "scan".
	Kind string
	// Name labels the exchange (the join's right-child label, or the
	// scan label).
	Name string
	// PricedBytes is what the cost model charged for the exchange's
	// network movement (for scans: the calibrated leaf disk-bytes
	// price).
	PricedBytes int64
	// MeasuredBytes is the payload actually shuffled over the wire —
	// fragments that moved because the cost model says they move.
	// Colocated relay payload (an aligned side shipped only because the
	// relation lives coordinator-side) is excluded here and counted in
	// WireBytes, keeping the ratio comparable with the model.
	MeasuredBytes int64
	// WireBytes is the exchange's total on-wire traffic, both
	// directions, framing and relay included.
	WireBytes int64
	// Wall is the exchange's real round-trip latency (max over shards).
	Wall time.Duration
}

// NetworkStats aggregates a coordinator's exchange measurements for
// /stats.
type NetworkStats struct {
	// Exchanges counts wire exchanges (scans included).
	Exchanges int64
	// BytesSent and BytesReceived are total wire bytes coordinator →
	// shards and shards → coordinator.
	BytesSent, BytesReceived int64
	// ShardRTT reports per-shard round-trip latency quantiles.
	ShardRTT []ShardRTT
	// CalibrationError is the mean |log2(measured/priced)| over priced
	// shuffle exchanges — 0 means the cost model prices network
	// movement exactly; 1 means it is off by 2x on average.
	CalibrationError float64
	// CalibratedExchanges counts the exchanges the error averages over.
	CalibratedExchanges int64
}

// ShardRTT is one shard's request round-trip latency summary.
type ShardRTT struct {
	Addr  string
	Calls int64
	P50   time.Duration
	P99   time.Duration
}

// NetworkReporter is implemented by DistRunners that aggregate
// NetworkStats across sessions (shard.Coordinator); serve's /stats
// block type-asserts it.
type NetworkReporter interface {
	NetworkStats() NetworkStats
}

// wrapShardErr converts a shard-process failure into the typed
// *TaskFailedError of the PR 6 attempt machinery: a dead shard is a
// permanent worker outage from the query's point of view — there is no
// redundant replica to retry against — so the error carries a
// one-attempt trace with the worker-outage outcome and unwraps to the
// underlying *wire.ShardError.
func wrapShardErr(err error, t *execTask, completed, total int) error {
	var se *wire.ShardError
	if !errors.As(err, &se) {
		return err
	}
	return &TaskFailedError{
		Task: nodeDesc(t.node),
		Attempts: []cluster.Attempt{{
			Attempt: 1,
			Worker:  se.Shard,
			Start:   t.start,
			End:     t.start,
			Outcome: cluster.AttemptOutage,
		}},
		CompletedTasks: completed,
		TotalTasks:     total,
		Cause:          se,
	}
}

// annotateDistPlan stamps a sharded query's measured-vs-priced exchange
// bytes onto the executed plan for EXPLAIN (sess is nil for a local
// query): every record names the plan node that made it, so the match
// does not depend on the order the pool ran the exchanges in.
func annotateDistPlan(p *plan.Plan, sess DistSession) {
	if sess == nil {
		return
	}
	byNode := map[int]ExchangeRecord{}
	for _, r := range sess.Records() {
		if _, dup := byNode[r.Node]; !dup {
			byNode[r.Node] = r
		}
	}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if r, ok := byNode[n.ID]; ok {
			n.PricedNetBytes = r.PricedBytes
			n.MeasuredNetBytes = r.MeasuredBytes
			n.HasNetBytes = true
		}
	}
	walk(p.Root)
}
