package core

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// This file is the access path of a Join Tree node: the paper's "a
// sub-query answered from one storage structure" (§3.2) resolved, once
// per execution, into a NodeScan. Every route — the materialized
// scheduler, the streaming pipelines, the coordinator and the shard
// server — scans through the same resolved value and differs only in
// how it iterates the partitions; which table is read, what its rows are
// tested with, what shape comes out and what the scan is charged are
// decided here and nowhere else.

// scanKind is what a resolved node reads.
type scanKind uint8

const (
	// scanEmpty is a node a dictionary miss or a missing table makes
	// unanswerable: no rows, and no stage is charged for it.
	scanEmpty scanKind = iota
	// scanVP emits r[lo:hi] of every stored (s,o) row passing pred.
	scanVP
	// scanVPExist is a fully-bound pattern: an existence test emitting
	// one width-0 row when any stored row passes pred.
	scanVPExist
	// scanPT runs spec over the (inverse) Property Table's partitions.
	scanPT
	// scanTriples answers a variable-predicate pattern from the raw
	// triples — the fallback outside the WatDiv workload, always
	// evaluated in the process that plans the query.
	scanTriples
)

// errNoInversePT reports an inverse-PT node on a store loaded without
// Options.BuildInversePT.
var errNoInversePT = errors.New("core: inverse property table not loaded")

// NodeScan is a Join Tree node resolved against the store: everything a
// route needs to evaluate the node, one partition at a time or as a
// stream of batches. Shards and the coordinator load the same dataset
// deterministically, so dictionary IDs, partition placement and
// per-partition row sets match exactly and a shard resolving a shipped
// node reads what the coordinator would have. The value is read-only
// apart from ScanPart's scratch, which makes ScanPart (alone) unsafe for
// concurrent use.
type NodeScan struct {
	kind scanKind

	// The output: its columns, the column it is hash-partitioned on (""
	// when on none), and the bytes one scan is charged, spread evenly
	// over the parts partitions scanned. A VP scan emits r[lo:hi] of the
	// stored (s,o) row under vars[lo:hi]; the other kinds emit cols. The
	// VP names sit in a fixed array, not behind cols, because a resolve
	// must not allocate and a slice of the value's own array would pin it
	// to the heap: schema and storedSchema are the only readers of both.
	vars      [2]string
	lo, hi    int
	cols      engine.Schema
	partCol   string
	parts     int
	diskBytes int64

	// What the scan reads, partition by partition. label names a VP
	// scan's table when it is a live semi-join reduction ("" for the
	// predicate's own); tp is the pattern the triples fallback matches
	// (its rows are tested with rowPred).
	partScan
	label string
	tp    *sparql.TriplePattern

	// sc is ScanPart's PT scan scratch, reused from partition to partition.
	sc ptScan
}

// partScan is the part of a NodeScan that evaluating one partition
// reads: the table and what its rows must pass. It is kept small enough
// for the partition tasks of a stage to carry it by value.
type partScan struct {
	// VP: the table read and the fused row predicate (nil keeps every
	// row).
	table *VPTable
	pred  func(engine.Row) bool
	// PT/IPT: the table, the scan recipe and the pushed filters over its
	// output rows (nil when nothing was pushed).
	pt      *PropertyTable
	spec    ptNodeScan
	rowPred func(engine.Row) bool
}

// vpShape is the output shape of a VP scan, stated once: of the stored
// (s,o) row the scan emits r[lo:hi], under the names vars[lo:hi]. A bound
// position is checked by the scan predicate and dropped; ?u p ?u keeps
// the subject; lo == hi is the fully-bound existence test.
func vpShape(tp sparql.TriplePattern) (vars [2]string, lo, hi int) {
	vars = [2]string{tp.S.Var, tp.O.Var}
	switch {
	case !tp.S.IsVar() && !tp.O.IsVar():
		return vars, 0, 0
	case !tp.S.IsVar():
		return vars, 1, 2
	case !tp.O.IsVar() || tp.O.Var == tp.S.Var:
		return vars, 0, 1
	}
	return vars, 0, 2
}

// ptSchema is the output schema of a PT/IPT select: the key column, then
// the value variables in pattern order, each once.
func ptSchema(n *Node) engine.Schema {
	mode := keyOnSubject
	if n.Kind == NodeIPT {
		mode = keyOnObject
	}
	schema := make(engine.Schema, 1, 1+len(n.Patterns))
	schema[0] = n.Key
	for _, tp := range n.Patterns {
		if v := valueTerm(tp, mode); v.IsVar() && !schema.Contains(v.Var) {
			schema = append(schema, v.Var)
		}
	}
	return schema
}

// nodeSchema is a node's output schema in the exact column order its
// scan produces — a pure function of the node, which the planner's
// leaves and the resolver both take it from.
func nodeSchema(n *Node) engine.Schema {
	switch n.Kind {
	case NodeVP:
		vars, lo, hi := vpShape(n.Patterns[0])
		return vars[lo:hi]
	case NodePT, NodeIPT:
		return ptSchema(n)
	default:
		return n.Vars()
	}
}

// nodePartCol names the column a node's scan output is hash-partitioned
// on, given its schema: always the first — the PT key, the VP subject
// (VP tables are stored subject-partitioned), the fallback's first
// variable — and none when a VP scan's subject is bound.
func nodePartCol(n *Node, schema engine.Schema) string {
	if len(schema) == 0 || (n.Kind == NodeVP && !n.Patterns[0].S.IsVar()) {
		return ""
	}
	return schema[0]
}

// resolveScan resolves a node, the FILTERs pushed into it and the
// reduction the planner may have rewritten it to into its access path.
// Dictionary misses and missing tables (an empty scan, no error), the
// inverse-PT check, the fallback from an evicted reduction to the full
// table (a superset, so results are unchanged) and filter compilation
// (a pushed filter whose variable the scan does not expose is an error)
// are all decided here, before any row is produced.
func (s *Store) resolveScan(n *Node, pushed []compiledFilter, ref *plan.ExtVPRef) (NodeScan, error) {
	ns := NodeScan{parts: s.parts}
	switch n.Kind {
	case NodeVP:
		tp := n.Patterns[0]
		ns.vars, ns.lo, ns.hi = vpShape(tp)
		ns.partCol = nodePartCol(n, ns.vars[ns.lo:ns.hi])
		pid, ok := s.dict.Lookup(tp.P.Term)
		if !ok || s.vp[pid] == nil {
			return ns, nil
		}
		table, label := s.vp[pid], ""
		if ref != nil {
			if t, l, ok := s.extvpTable(ref); ok {
				table, label = t, l
			}
		}
		pred, ok, err := s.vpScanPred(tp, pushed)
		if err != nil || !ok {
			return ns, err
		}
		ns.kind = scanVP
		if ns.lo == ns.hi {
			ns.kind = scanVPExist
		}
		ns.table, ns.label, ns.pred = table, label, pred
		ns.parts, ns.diskBytes = table.Rel.Partitions(), table.FileBytes

	case NodePT, NodeIPT:
		pt := s.pt
		if n.Kind == NodeIPT {
			if pt = s.ipt; pt == nil {
				return ns, errNoInversePT
			}
		}
		spec := s.ptNodeScan(pt, n)
		ns.cols, ns.partCol = spec.schema, nodePartCol(n, spec.schema)
		if spec.empty {
			return ns, nil
		}
		rowPred, err := rowPredicate(spec.schema, pushed)
		if err != nil {
			return ns, err
		}
		ns.kind = scanPT
		ns.pt, ns.spec, ns.rowPred = pt, spec, rowPred
		ns.parts, ns.diskBytes = len(pt.parts), pt.scanBytes(spec.preds)

	case NodeTriples:
		ns.cols = nodeSchema(n)
		ns.partCol = nodePartCol(n, ns.cols)
		rowPred, err := rowPredicate(ns.cols, pushed)
		if err != nil {
			return ns, err
		}
		tp := n.Patterns[0]
		ns.kind, ns.rowPred, ns.tp = scanTriples, rowPred, &tp
		// A full-dataset scan: the sum of all VP files.
		ns.diskBytes = s.vpBytes

	default:
		return ns, fmt.Errorf("core: unknown node kind %v", n.Kind)
	}
	return ns, nil
}

// schema is the scan's output columns.
func (ns *NodeScan) schema() engine.Schema {
	if ns.cols != nil {
		return ns.cols
	}
	return ns.vars[ns.lo:ns.hi]
}

// storedSchema is the columns of the rows a scan stage emits, before
// the shape step: every PT or fallback column, or a VP table's (s,o)
// under the pattern's names — in storage a relation may adopt (never a
// slice of the NodeScan itself, which keeping it would move to the heap).
func (ns *NodeScan) storedSchema() engine.Schema {
	if ns.cols != nil {
		return ns.cols
	}
	return engine.Schema{ns.vars[0], ns.vars[1]}
}

// Partitions is the scanned table's partition count.
func (ns *NodeScan) Partitions() int { return ns.parts }

// projects reports a VP scan that drops a stored column: the
// materialized route pays a Project pass over the surviving rows for
// it, and the streaming route charges the same rows.
func (ns *NodeScan) projects() bool { return ns.kind == scanVP && ns.hi-ns.lo < 2 }

// zeroCopy reports a scan whose materialized output is the stored VP
// table's own rows — nothing filtered, nothing dropped — so no
// intermediate copy exists for a memory sweep to count.
func (ns *NodeScan) zeroCopy() bool { return ns.kind == scanVP && ns.pred == nil && !ns.projects() }

// copiesRows reports a scan that emits rows into storage of its own (a
// PT select flattens value lists, the fallback builds its rows); a VP
// scan's rows alias the table's.
func (ns *NodeScan) copiesRows() bool { return ns.kind == scanPT || ns.kind == scanTriples }

// stageRows is the Rows charge of partition p's scan task: the stored
// rows a VP scan streams past its predicate, or the keys a PT scan
// examined (processed) plus the rows it emitted.
func (ps partScan) stageRows(p int, processed int64, emitted int) int64 {
	if ps.pt != nil {
		return processed + int64(emitted)
	}
	return int64(len(ps.table.Rel.Part(p)))
}

// ScanPart evaluates a VP, PT or IPT scan over partition p: the rows
// passing the scan's predicates — a VP scan's still as stored, (s,o) —
// and, for PT scans, the processed key count. With an arena the rows are
// emitted into it — it is Reset, and they are valid until its next use —
// so a caller scanning partition after partition allocates only when one
// outgrows the rest; nil allocates per partition. Either way an
// unfiltered VP scan returns the stored partition itself.
func (ns *NodeScan) ScanPart(p int, arena *engine.RowArena) (rows []engine.Row, processed int64) {
	return ns.scan(&ns.sc, p, arena)
}

// scan is ScanPart with the PT scan scratch the caller owns, so that
// concurrent partition tasks need share nothing.
func (ps partScan) scan(sc *ptScan, p int, arena *engine.RowArena) (rows []engine.Row, processed int64) {
	switch {
	case ps.pt != nil:
		return sc.rows(ps.pt.parts[p], ps.spec, ps.rowPred, arena)
	case ps.table == nil:
		return nil, 0
	case ps.pred == nil:
		return ps.table.Rel.Part(p), 0
	}
	if arena == nil {
		arena = new(engine.RowArena)
	}
	// Kept rows are references into the table: a row header each.
	arena.Reset(2, 0)
	for _, r := range ps.table.Rel.Part(p) {
		if ps.pred(r) {
			arena.AppendRef(r)
		}
	}
	return arena.Rows(), 0
}

// PrepareNodeScan resolves a VP, PT or IPT scan node and the FILTERs
// pushed into it for a caller that evaluates it partition by partition —
// the unit a shard server works in. Shards hold the base tables, so no
// reduction is offered.
func (s *Store) PrepareNodeScan(n *Node, filters []sparql.Filter) (*NodeScan, error) {
	pushed, err := s.compileFilterList(filters)
	if err != nil {
		return nil, err
	}
	ns, err := s.resolveScan(n, pushed, nil)
	if err != nil {
		return nil, err
	}
	if ns.kind == scanTriples {
		return nil, fmt.Errorf("core: dist scan does not support node kind %v", n.Kind)
	}
	return &ns, nil
}

// ScanNodeParts is the shard-server side of a distributed scan in one
// call: it evaluates a scan node over the partitions owned(p) selects,
// returning filtered rows and processed key counts per (global)
// partition index, each partition in storage of its own.
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
