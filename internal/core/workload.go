package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file wires the cross-query workload model (internal/workload)
// into the store: the Builder callback that materializes one ExtVP
// semi-join reduction on the goroutine of the query that earned it, the
// plan.ExtVPProvider the planner's rewrite pre-pass probes, the
// execution-time resolution of a rewritten scan back to its table
// (with full-table fallback when the reduction was evicted), the
// post-execution mining hook that feeds executed joins and scan
// cardinalities back into the model, and the deletion of the files of
// every reduction the model drops.

// Workload returns the store's workload model, or nil when the store
// was loaded without an ExtVP budget (Options.ExtVPBudget).
func (s *Store) Workload() *workload.Model { return s.workload }

// WorkloadMetrics snapshots the workload model's counters; all zero
// when the subsystem is disabled.
func (s *Store) WorkloadMetrics() workload.Metrics {
	if s.workload == nil {
		return workload.Metrics{}
	}
	return s.workload.Metrics()
}

// workloadEpoch is the plan-cache key segment tying cached plans to
// the workload state (live tables, observed cardinalities) they were
// priced against.
func (s *Store) workloadEpoch() uint64 {
	if s.workload == nil {
		return 0
	}
	return s.workload.Epoch()
}

// reduction is the handle buildExtVPTable gives the workload model: the
// reduced table and the HDFS directory holding its file.
type reduction struct {
	*VPTable
	dir string
}

// buildExtVPTable is the workload model's Builder callback: it
// materializes the semi-join reduction of pred's VP table against
// partner at pos — the rows of pred whose join-position value occurs
// anywhere in partner's full table — re-partitioned by subject and
// written to HDFS under a generation-stamped path, so a build racing a
// statistics reload never collides with the next generation's files.
// It runs on the goroutine of the query whose mining crossed the build
// threshold, concurrently with other queries and builds; everything it
// reads (the VP relations, the dictionary) is immutable after Load.
func (s *Store) buildExtVPTable(pred, partner uint64, pos uint8, gen uint64) (workload.Table, bool) {
	base := s.vp[rdf.ID(pred)]
	other := s.vp[rdf.ID(partner)]
	if base == nil || other == nil {
		return workload.Table{}, false
	}
	predCol, partnerCol := stats.JoinPos(pos).Cols()
	rows := base.SemiJoin(predCol, other.Keys(partnerCol))
	// An empty reduction is useless to scan, and one as large as its
	// source saves nothing — neither is worth budget bytes.
	if rows.Len() == 0 || rows.Len() >= base.Rel.NumRows() {
		return workload.Table{}, false
	}
	rel, err := engine.PartitionBlock(nil, engine.Schema{"s", "o"}, rows, "s", s.parts)
	if err != nil {
		return workload.Table{}, false
	}
	// The in-memory relation keeps the cluster's partition count so
	// joins stay co-partitioned with the full VP tables, but the HDFS
	// layout is coalesced into a single columnar file: a reduction is
	// usually far smaller than its source, and per-partition file
	// overhead plus cross-partition term-dictionary duplication would
	// swallow most of the byte savings the scan price is based on.
	dir := fmt.Sprintf("%s/extvp/g%d/p%d_p%d_%d", s.opts.PathPrefix, gen, pred, partner, pos)
	fileBytes, err := WriteVPFiles(s.fs, s.dict, dir, []engine.Block{rows})
	if err != nil {
		return workload.Table{}, false
	}
	t := &reduction{&VPTable{Pred: rdf.ID(pred), Rel: rel, FileBytes: fileBytes}, dir}
	return workload.Table{Rows: int64(rows.Len()), Bytes: fileBytes, Data: t}, true
}

// dropExtVP deletes the files of reductions the workload model dropped,
// so the file system holds exactly the live reductions.
func (s *Store) dropExtVP(dropped []workload.Table) {
	for _, t := range dropped {
		for _, path := range s.fs.ListPrefix(t.Data.(*reduction).dir + "/") {
			_ = s.fs.Delete(path) // listed just now; no one else deletes it
		}
	}
}

// extvpCosts implements plan.ExtVPProvider over the store's live
// workload model — the rewrite pre-pass probes it per candidate.
type extvpCosts struct{ s *Store }

// ExtVPTable implements plan.ExtVPProvider.
func (p extvpCosts) ExtVPTable(pred, partner uint64, pos uint8) (int64, int64, bool) {
	t, ok := p.s.workload.Peek(pred, partner, pos)
	if !ok {
		return 0, 0, false
	}
	base := p.s.vp[rdf.ID(pred)]
	if base == nil {
		return 0, 0, false
	}
	return t.Rows, int64(base.Rows()), true
}

// extvpTable resolves a rewritten scan's reduction against the live
// model at execution time, counting the hit. ok=false — the table was
// evicted or invalidated after planning — sends the scan back to the
// full VP table, a superset, so results are unchanged either way.
func (s *Store) extvpTable(ref *plan.ExtVPRef) (*VPTable, string, bool) {
	if s.workload == nil {
		return nil, "", false
	}
	t, ok := s.workload.Lookup(ref.Pred, ref.Partner, uint8(ref.Pos))
	if !ok {
		return nil, "", false
	}
	label := "ExtVP " + localName(s.dict.Term(rdf.ID(ref.Pred)).Value) +
		"<-" + localName(s.dict.Term(rdf.ID(ref.Partner)).Value)
	return t.Data.(*reduction).VPTable, label, true
}

// mineWorkload feeds one executed (stamped) plan into the workload
// model: every observed join contributes its predicate pairs weighted
// by actual output rows — unless the query's planner is not offered the
// reductions those pairs get built into (a sharded query: the builder
// would fill the budget with tables nothing scans) — and every clean
// single-constant VP scan — filter-free and not itself rewritten, so its
// actual is the full subpattern cardinality — records the exact count
// for cross-query estimate seeding. nodes is the plan's Join Tree node list
// (Node.Leaf indexes into it). A join observation that crosses the build
// threshold builds its reductions here, before the query returns, so
// they are live for the next query.
func (s *Store) mineWorkload(p *plan.Plan, nodes []*Node, r resolved) {
	if s.workload == nil || p == nil {
		return
	}
	if r.extvp {
		for _, jo := range p.JoinObservations() {
			s.dropExtVP(s.workload.ObserveJoin(jo.P1, jo.P2, uint8(jo.Pos), jo.Rows))
		}
	}
	for _, n := range p.Scans() {
		if n.Actual < 0 || len(n.Filters) > 0 || n.ExtVP != nil {
			continue
		}
		if n.Leaf < 0 || n.Leaf >= len(nodes) {
			continue
		}
		cn := nodes[n.Leaf]
		if cn.Kind != NodeVP || len(cn.Patterns) != 1 {
			continue
		}
		if pid, cid, subjBound, ok := s.scanObsKey(cn.Patterns[0]); ok {
			s.workload.ObserveScan(pid, cid, subjBound, n.Actual)
		}
	}
}

// scanObsKey resolves a pattern's (predicate, constant) observation
// key: a bound predicate with exactly one of subject/object bound to a
// term the dictionary knows, the other position a variable.
func (s *Store) scanObsKey(tp sparql.TriplePattern) (pred, constID uint64, subjBound, ok bool) {
	if tp.P.IsVar() || tp.S.IsVar() == tp.O.IsVar() {
		return 0, 0, false, false
	}
	pid, found := s.dict.Lookup(tp.P.Term)
	if !found {
		return 0, 0, false, false
	}
	bound := tp.S
	subjBound = true
	if tp.S.IsVar() {
		bound = tp.O
		subjBound = false
	}
	cid, found := s.dict.Lookup(bound.Term)
	if !found {
		return 0, 0, false, false
	}
	return uint64(pid), uint64(cid), subjBound, true
}

// observedScanEstimate prices a single-pattern VP node from a
// previously recorded execution of the same (predicate, constant)
// subpattern — the cross-query seed consumed by leafEstimate.
func (s *Store) observedScanEstimate(n *Node) (int64, bool) {
	if s.workload == nil || n.Kind != NodeVP || len(n.Patterns) != 1 {
		return 0, false
	}
	pid, cid, subjBound, ok := s.scanObsKey(n.Patterns[0])
	if !ok {
		return 0, false
	}
	return s.workload.LookupObserved(pid, cid, subjBound)
}
