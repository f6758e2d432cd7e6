package engine

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/rdf"
)

// This file holds the extended-surface operators: left outer join
// (OPTIONAL), n-ary union (UNION), top-K (ORDER BY/LIMIT fused) and
// hash aggregation (GROUP BY with COUNT). They reuse the hash-join
// core (joinLayout, joinIndex, RowArena) so their output rows share
// the exact representation and emission order of the inner-join
// operators, which is what keeps the materialized and streaming
// executors byte-identical.

// AggCount describes one COUNT aggregate output column: Var is the
// counted variable ("" means COUNT(*), counting rows), As the output
// column name.
type AggCount struct {
	Var string
	As  string
}

// LeftJoin performs a left outer join on the shared columns: every
// left row appears in the output, padded with NullID in the right-only
// columns when no right row matches. The right (optional) side is
// always the build side — broadcast to every worker like a broadcast
// hash join — so unmatched left rows are detectable during the probe.
// Zero shared columns are rejected: the planner validates OPTIONAL
// groups against it, and an outer cartesian product has no sensible
// null-extension semantics here.
func (e *Exec) LeftJoin(left, right *Relation, name string) (*Relation, error) {
	shared := left.schema.Shared(right.schema)
	if len(shared) == 0 {
		return nil, fmt.Errorf("engine: left join %s has no shared columns (%v vs %v)", name, left.schema, right.schema)
	}
	outSchema, _, rKeep := joinLayout(left.schema, right.schema, shared, nil)
	buildKey := keyIndexes(right.schema, shared)
	probeKey := keyIndexes(left.schema, shared)
	jp := NewJoinProbe(right.Rows(), buildKey)
	nullRight := make(Row, len(right.schema))
	buildBytes := right.EstimatedBytes()
	workers := e.Cluster.Workers()
	out := make([][]Row, left.Partitions())
	err := e.Cluster.RunStage(e.Clock, e.launchBroadcast(), "left join "+name, left.Partitions(), func(p int) (cluster.TaskStats, error) {
		out[p] = jp.ProbeOuter(left.Part(p), probeKey, len(outSchema), rKeep, nullRight)
		st := cluster.TaskStats{Rows: int64(len(left.Part(p)) + len(out[p]))}
		// One build-side copy per worker, paid by its first task.
		if p < workers {
			st.NetBytes = buildBytes
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: outSchema, parts: out, partCols: survivingCols(left.partCols, outSchema)}, nil
}

// ProbeOuter emits the left outer join of probeRows (the left side)
// against the indexed build side (the right side), preserving
// probe-row order: matched rows go through the same AppendJoin path as
// Probe, and a probe row with no match emits once, padded with
// nullRight in the right-only columns.
func (jp *JoinProbe) ProbeOuter(probeRows []Row, probeKey []int, outWidth int, rKeep []int, nullRight Row) []Row {
	return jp.ix.probeBatch(probeRows, probeKey, &joinEmit{width: outWidth, rKeep: rKeep, nullRight: nullRight}, nil)
}

// UnionAll concatenates relations with identical schemas, keeping each
// input's partitions as-is (the output has the sum of the inputs'
// partition counts). Like Rename it is metadata-only — no rows move,
// so nothing is charged; downstream operators shuffle as needed.
func (e *Exec) UnionAll(rels ...*Relation) (*Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("engine: union of zero relations")
	}
	s := rels[0].schema
	for _, r := range rels[1:] {
		if len(r.schema) != len(s) {
			return nil, fmt.Errorf("engine: union schema mismatch %v vs %v", s, r.schema)
		}
		for i := range s {
			if r.schema[i] != s[i] {
				return nil, fmt.Errorf("engine: union schema mismatch %v vs %v", s, r.schema)
			}
		}
	}
	var parts [][]Row
	for _, r := range rels {
		parts = append(parts, r.parts...)
	}
	return &Relation{schema: s.Clone(), parts: parts}, nil
}

// TopK orders the relation by less and keeps rows [offset,
// offset+limit). Each partition pre-sorts locally and forwards only
// its first offset+limit rows — the top-K pushdown below the exchange
// — so the transfer (and its NetBytes charge) shrinks with the limit;
// the driver merges the per-partition survivors and applies the final
// offset/limit slice. A negative limit keeps every row (a plain
// ORDER BY). less must be a strict total order for the output to be
// deterministic across partitionings; it is called concurrently from
// partition tasks and must be safe for that. The result is a
// single-partition relation in sorted order.
func (e *Exec) TopK(rel *Relation, less func(a, b Row) bool, limit, offset int) (*Relation, error) {
	if offset < 0 {
		offset = 0
	}
	k := -1
	if limit >= 0 {
		k = offset + limit
	}
	n := rel.Partitions()
	kept := make([][]Row, n)
	width := int64(len(rel.schema))
	err := e.Cluster.RunStage(e.Clock, e.Launch(true), "topk", n, func(p int) (cluster.TaskStats, error) {
		in := rel.Part(p)
		sorted := make([]Row, len(in))
		copy(sorted, in)
		SortRowsStable(sorted, less)
		if k >= 0 && k < len(sorted) {
			sorted = sorted[:k]
		}
		kept[p] = sorted
		return cluster.TaskStats{
			Rows:     int64(len(in)),
			NetBytes: int64(len(sorted)) * width * bytesPerValue,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var all []Row
	for _, rows := range kept {
		all = append(all, rows...)
	}
	SortRowsStable(all, less)
	if offset > 0 {
		if offset >= len(all) {
			all = nil
		} else {
			all = all[offset:]
		}
	}
	if limit >= 0 && limit < len(all) {
		all = all[:limit]
	}
	return &Relation{schema: rel.schema.Clone(), parts: [][]Row{all}}, nil
}

// Aggregate hash-groups the relation on groupCols and appends one
// COUNT column per entry of counts: COUNT(?v) counts rows where ?v is
// bound (non-NullID), COUNT(*) counts all rows. Count cells hold the
// raw count as an rdf.ID — NOT a dictionary ID — so callers decoding
// result rows must treat the count columns numerically. The output is
// a single partition sorted by raw ID order (group keys are unique,
// so the order is total), which both executors share. The stage is
// priced as a full shuffle: every input row moves to meet its group.
func (e *Exec) Aggregate(rel *Relation, groupCols []string, counts []AggCount) (*Relation, error) {
	gIdx := make([]int, len(groupCols))
	for i, c := range groupCols {
		j := rel.schema.Index(c)
		if j < 0 {
			return nil, fmt.Errorf("engine: group column %q not in schema %v", c, rel.schema)
		}
		gIdx[i] = j
	}
	cIdx := make([]int, len(counts))
	for i, c := range counts {
		if c.Var == "" {
			cIdx[i] = -1
			continue
		}
		j := rel.schema.Index(c.Var)
		if j < 0 {
			return nil, fmt.Errorf("engine: counted column %q not in schema %v", c.Var, rel.schema)
		}
		cIdx[i] = j
	}
	outSchema := make(Schema, 0, len(groupCols)+len(counts))
	outSchema = append(outSchema, groupCols...)
	for _, c := range counts {
		outSchema = append(outSchema, c.As)
	}

	groups := NewGroupTable(gIdx, cIdx)
	for p := 0; p < rel.Partitions(); p++ {
		for _, r := range rel.Part(p) {
			groups.Add(r)
		}
	}
	out := groups.Rows()

	width := int64(len(rel.schema))
	err := e.Cluster.RunStage(e.Clock, e.Launch(true), "aggregate", rel.Partitions(), func(p int) (cluster.TaskStats, error) {
		rows := int64(len(rel.Part(p)))
		return cluster.TaskStats{Rows: rows, NetBytes: rows * width * bytesPerValue}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: outSchema, parts: [][]Row{out}}, nil
}

// GroupTable is the hash-aggregation state both executors fill: one
// output row per distinct group key — the group cells of the first row
// seen with that key, then one COUNT cell per aggregate, holding the
// raw count as an rdf.ID. Lookups pack the key into a reused buffer,
// so adding a row to an existing group allocates nothing. Not safe for
// concurrent use.
type GroupTable struct {
	groupIdx, countIdx []int
	index              map[string]int
	rows               []Row
	kb                 []byte
}

// NewGroupTable returns an empty table grouping on the input columns
// groupIdx; countIdx names each COUNT's counted input column (-1 =
// COUNT(*)).
func NewGroupTable(groupIdx, countIdx []int) *GroupTable {
	return &GroupTable{groupIdx: groupIdx, countIdx: countIdx, index: map[string]int{}}
}

// Add folds one input row into its group.
func (g *GroupTable) Add(r Row) {
	g.kb = g.kb[:0]
	for _, j := range g.groupIdx {
		v := r[j]
		g.kb = append(g.kb, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	gi, ok := g.index[string(g.kb)]
	if !ok {
		gi = len(g.rows)
		g.index[string(g.kb)] = gi
		row := make(Row, len(g.groupIdx)+len(g.countIdx))
		for i, j := range g.groupIdx {
			row[i] = r[j]
		}
		g.rows = append(g.rows, row)
	}
	counts := g.rows[gi][len(g.groupIdx):]
	for ci, j := range g.countIdx {
		if j < 0 || r[j] != rdf.NullID {
			counts[ci]++
		}
	}
}

// Len returns the number of groups.
func (g *GroupTable) Len() int { return len(g.rows) }

// Rows returns the group rows sorted by raw ID order (group keys are
// unique, so the order is total). The table must not be added to
// afterwards.
func (g *GroupTable) Rows() []Row {
	sort.Slice(g.rows, func(i, j int) bool { return lessRows(g.rows[i], g.rows[j]) })
	return g.rows
}

// SortRowsStable sorts rows by less, keeping equal rows in input
// order.
func SortRowsStable(rows []Row, less func(a, b Row) bool) {
	slices.SortStableFunc(rows, func(a, b Row) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// LessRowsID is the engine's canonical raw-ID row order (column-wise
// by dictionary ID, shorter rows first) — the deterministic total
// order imposed on limited, unordered results so LIMIT without
// ORDER BY returns the same rows under every plan and partitioning.
func LessRowsID(a, b Row) bool { return lessRows(a, b) }
