package core

import (
	"context"
	"errors"
	"fmt"
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
// exchange joins) to shard processes through a DistSession. Kernels
// are deterministic functions of their fragments, and every stage's
// TaskStats derive from coordinator-known values, so results and
// SimTime are identical to single-process execution by construction.
//
// Restrictions while a DistRunner is installed (all documented in the
// README's "Distributed deployment" section): streaming, fault
// injection and adaptive re-planning are forced off, ExtVP rewrites
// are not taken, and variable-predicate (raw-triples fallback) scans
// evaluate coordinator-side.

// DistRunner hands out per-query distributed sessions; internal/shard's
// Coordinator is the production implementation.
type DistRunner interface {
	// Session opens q's session; ctx is the query's context, and every
	// shard call the session makes is bounded by it.
	Session(ctx context.Context, q *sparql.Query) (DistSession, error)
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
	// filterIdx indexes the session query's FILTER list; label and
	// modeledBytes feed the calibration layer's leaf-pricing record.
	ScanNode(n *Node, filterIdx []int, label string, modeledBytes int64) (parts [][]engine.Row, processed []int64, err error)
	// Records returns the session's exchange records in execution order.
	Records() []ExchangeRecord
	// Close releases the session.
	Close() error
}

// ExchangeRecord measures one wire exchange against its cost-model
// price — the calibration evidence /stats and /explain report.
type ExchangeRecord struct {
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

// CalibrationRatio is MeasuredBytes/PricedBytes, 0 when unpriced.
func (r ExchangeRecord) CalibrationRatio() float64 {
	if r.PricedBytes <= 0 || r.MeasuredBytes <= 0 {
		return 0
	}
	return float64(r.MeasuredBytes) / float64(r.PricedBytes)
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

// execDistScanNode evaluates one plan Scan operator with its kernel on
// the shards. The coordinator still resolves dictionary terms, prices
// the stage and shapes the output; only the filtered partition scan
// runs remotely. ExtVP rewrites are not taken here (shards hold the
// base tables), and variable-predicate fallback scans run locally.
func (s *Store) execDistScanNode(e *engine.Exec, sess DistSession, cn *Node, filterIdx []int, pushed []compiledFilter) (*engine.Relation, error) {
	switch cn.Kind {
	case NodeVP:
		tp := cn.Patterns[0]
		pid, ok := s.dict.Lookup(tp.P.Term)
		if !ok {
			return s.emptyRelation(tp.Vars()), nil
		}
		table := s.vp[pid]
		if table == nil {
			return s.emptyRelation(tp.Vars()), nil
		}
		// A bound term absent from the dictionary means an empty scan;
		// decided locally, no wire exchange.
		if _, ok, err := s.vpScanPred(tp, pushed); err != nil {
			return nil, err
		} else if !ok {
			return s.emptyRelation(tp.Vars()), nil
		}
		parts, _, err := sess.ScanNode(cn, filterIdx, cn.Label(), table.FileBytes)
		if err != nil {
			return nil, err
		}
		if len(parts) != table.Rel.Partitions() {
			return nil, fmt.Errorf("core: dist scan %s returned %d partitions, table has %d", cn.Label(), len(parts), table.Rel.Partitions())
		}
		rel, err := e.ScanGathered(table.Rel, "VP "+localName(tp.P.Term.Value), table.FileBytes, parts)
		if err != nil {
			return nil, err
		}
		return s.shapeVPScan(e, tp, rel)
	case NodePT, NodeIPT:
		pt := s.pt
		if cn.Kind == NodeIPT {
			if s.ipt == nil {
				return nil, fmt.Errorf("core: inverse property table not loaded")
			}
			pt = s.ipt
		}
		spec := s.ptNodeScan(pt, cn)
		if spec.empty {
			return s.emptyRelation(append([]string{cn.Key}, nodeValueVars(cn, pt.mode)...)), nil
		}
		scanBytes := pt.scanBytes(spec.preds)
		parts, processed, err := sess.ScanNode(cn, filterIdx, cn.Label(), scanBytes)
		if err != nil {
			return nil, err
		}
		if len(parts) != len(pt.parts) || len(processed) != len(pt.parts) {
			return nil, fmt.Errorf("core: dist scan %s returned %d/%d partitions, table has %d", cn.Label(), len(parts), len(processed), len(pt.parts))
		}
		perPartDisk := scanBytes / int64(len(pt.parts))
		err = s.cluster.RunStage(e.Clock, e.Launch(false), "scan "+cn.Label(), len(pt.parts), func(p int) (cluster.TaskStats, error) {
			return cluster.TaskStats{
				DiskBytes: perPartDisk,
				Rows:      processed[p] + int64(len(parts[p])),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		return engine.NewRelation(spec.schema, parts, cn.Key), nil
	default:
		// Raw-triples fallback (variable predicates): outside the WatDiv
		// workload; evaluated coordinator-side.
		return s.execNode(e, cn, pushed)
	}
}

// ScanNodeParts is the shard-server side of ScanNode in one call: it
// evaluates a scan node over the partitions owned(p) selects, returning
// filtered rows and processed key counts per (global) partition index,
// each partition in storage of its own.
func (s *Store) ScanNodeParts(n *Node, filters []sparql.Filter, owned func(p int) bool) (parts [][]engine.Row, processed []int64, err error) {
	ns, err := s.PrepareNodeScan(n, filters)
	if err != nil {
		return nil, nil, err
	}
	parts = make([][]engine.Row, ns.Partitions())
	processed = make([]int64, ns.Partitions())
	for p := range parts {
		if owned(p) {
			parts[p], processed[p] = ns.ScanPart(p, nil)
		}
	}
	return parts, processed, nil
}

// NodeScan is a scan node resolved against the store and ready to be
// evaluated one partition at a time — the unit a shard server works in.
// Shards and the coordinator load the same dataset deterministically, so
// dictionary IDs, partition placement and per-partition row sets match
// the coordinator's own tables exactly. Not safe for concurrent use.
type NodeScan struct {
	partitions int
	// A VP scan reads vp's partitions through pred (nil keeps every row);
	// a PT scan runs spec over pt's with rowPred. Neither table set
	// means the node has no answer: every partition is empty.
	vp      *engine.Relation
	pred    func(engine.Row) bool
	pt      *PropertyTable
	spec    ptNodeScan
	rowPred func(engine.Row) bool
	sc      ptScan
}

// PrepareNodeScan resolves a VP, PT or IPT scan node and the FILTERs
// pushed into it.
func (s *Store) PrepareNodeScan(n *Node, filters []sparql.Filter) (*NodeScan, error) {
	pushed, err := s.compileFilterList(filters)
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case NodeVP:
		tp := n.Patterns[0]
		pid, ok := s.dict.Lookup(tp.P.Term)
		if !ok || s.vp[pid] == nil {
			return &NodeScan{partitions: s.parts}, nil
		}
		rel := s.vp[pid].Rel
		pred, ok, err := s.vpScanPred(tp, pushed)
		if err != nil {
			return nil, err
		}
		if !ok {
			return &NodeScan{partitions: rel.Partitions()}, nil
		}
		return &NodeScan{partitions: rel.Partitions(), vp: rel, pred: pred}, nil
	case NodePT, NodeIPT:
		pt := s.pt
		if n.Kind == NodeIPT {
			if s.ipt == nil {
				return nil, fmt.Errorf("core: inverse property table not loaded")
			}
			pt = s.ipt
		}
		spec := s.ptNodeScan(pt, n)
		if spec.empty {
			return &NodeScan{partitions: len(pt.parts)}, nil
		}
		rowPred, err := rowPredicate(spec.schema, pushed)
		if err != nil {
			return nil, err
		}
		return &NodeScan{partitions: len(pt.parts), pt: pt, spec: spec, rowPred: rowPred}, nil
	default:
		return nil, fmt.Errorf("core: dist scan does not support node kind %v", n.Kind)
	}
}

// Partitions is the scanned table's partition count.
func (ns *NodeScan) Partitions() int { return ns.partitions }

// ScanPart evaluates the scan over partition p: the filtered rows and,
// for PT scans, the processed key count. With an arena the rows are
// emitted into it — it is Reset, and they are valid until its next use —
// so a caller scanning partition after partition allocates only when one
// outgrows the rest; nil allocates per partition. Either way an
// unfiltered VP scan returns the stored partition itself.
func (ns *NodeScan) ScanPart(p int, arena *engine.RowArena) (rows []engine.Row, processed int64) {
	switch {
	case ns.pt != nil:
		return ns.sc.rows(ns.pt.parts[p], ns.spec, ns.rowPred, arena)
	case ns.vp == nil:
		return nil, 0
	case ns.pred == nil:
		return ns.vp.Part(p), 0
	}
	if arena == nil {
		arena = new(engine.RowArena)
	}
	// Kept rows are references into the table: a row header each.
	arena.Reset(2, 0)
	for _, r := range ns.vp.Part(p) {
		if ns.pred(r) {
			arena.AppendRef(r)
		}
	}
	return arena.Rows(), 0
}

// wrapShardErr converts a shard-process failure into the typed
// *TaskFailedError of the PR 6 attempt machinery: a dead shard is a
// permanent worker outage from the query's point of view — there is no
// redundant replica to retry against — so the error carries a
// one-attempt trace with the worker-outage outcome and unwraps to the
// underlying *wire.ShardError.
func wrapShardErr(err error, task string, start time.Duration, completed, total int) error {
	var se *wire.ShardError
	if !errors.As(err, &se) {
		return err
	}
	return &TaskFailedError{
		Task: task,
		Attempts: []TaskAttempt{{
			Attempt: 1,
			Worker:  se.Shard,
			Start:   start,
			End:     start,
			Outcome: AttemptOutage,
		}},
		CompletedTasks: completed,
		TotalTasks:     total,
		Cause:          se,
	}
}

// exchangeClass folds a record kind into the operator class it
// annotates: scans, distincts, and everything else (the join flavors —
// shuffle, broadcast, cartesian, colocated).
func exchangeClass(kind string) string {
	switch kind {
	case "scan", "distinct":
		return kind
	default:
		return "join"
	}
}

// annotateDistPlan stamps measured-vs-priced exchange bytes onto the
// executed plan for EXPLAIN: records are matched to operators by
// (class, label) FIFO — scan records carry the leaf label, join
// records the join name (the right child's label), so a predicate
// scanned twice consumes two records in order.
func annotateDistPlan(p *plan.Plan, records []ExchangeRecord) {
	if p == nil || len(records) == 0 {
		return
	}
	byKey := map[string][]ExchangeRecord{}
	for _, r := range records {
		k := exchangeClass(r.Kind) + "|" + r.Name
		byKey[k] = append(byKey[k], r)
	}
	take := func(key string) (ExchangeRecord, bool) {
		q := byKey[key]
		if len(q) == 0 {
			return ExchangeRecord{}, false
		}
		byKey[key] = q[1:]
		return q[0], true
	}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		for _, c := range n.Children {
			walk(c)
		}
		var key string
		switch n.Op {
		case plan.OpScan:
			key = "scan|" + n.Label
		case plan.OpJoin:
			key = "join|" + n.Children[1].Label
		case plan.OpDistinct:
			key = "distinct|distinct"
		default:
			return
		}
		if r, ok := take(key); ok {
			n.PricedNetBytes = r.PricedBytes
			n.MeasuredNetBytes = r.MeasuredBytes
			n.HasNetBytes = true
		}
	}
	walk(p.Root)
}
