package engine

import (
	"fmt"
	"math"

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
	ix := buildJoinIndex(e.Region, right.parts, keyIndexes(right.schema, shared))
	probeKey := keyIndexes(left.schema, shared)
	emit := joinEmit{width: len(outSchema), rKeep: rKeep, nullRight: make(Row, len(right.schema))}
	buildBytes := right.EstimatedBytes()
	workers := e.Cluster.Workers()
	out := make([]Block, left.Partitions())
	err := e.Cluster.RunStage(e.Clock, e.launchBroadcast(), "left join "+name, left.Partitions(), func(p int) (cluster.TaskStats, error) {
		out[p] = ix.probeBatch(e.Region, left.parts[p], probeKey, &emit)
		st := cluster.TaskStats{Rows: int64(left.parts[p].n + out[p].n)}
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
	var parts []Block
	for _, r := range rels {
		parts = append(parts, r.parts...)
	}
	return &Relation{schema: s.Clone(), parts: parts}, nil
}

// TopK orders the relation by less and keeps rows [offset,
// offset+limit). Each partition selects its own first offset+limit rows
// (topPerm: a bounded heap of row numbers, not a sort of all of them)
// and forwards only those — the top-K pushdown below the exchange — so
// the transfer (and its NetBytes charge) shrinks with the limit; the
// driver gathers the per-partition survivors in partition order and
// selects from them again, ties in gathered order — what a stable sort
// of their concatenation gives — keeping the window. A negative limit
// keeps every row (a plain ORDER BY), fully sorted. less must be a
// strict total order for the output to be deterministic across
// partitionings; it is called concurrently from partition tasks and
// must be safe for that. The result is a single-partition relation in
// sorted order.
func (e *Exec) TopK(rel *Relation, less func(a, b Row) bool, limit, offset int) (*Relation, error) {
	offset = max(offset, 0)
	k := -1 // every row: no LIMIT, or offset+limit past any row count
	if limit >= 0 && limit <= math.MaxInt-offset {
		k = offset + limit
	}
	n := rel.Partitions()
	kept := make([][]int32, n)
	width := int64(len(rel.schema))
	err := e.Cluster.RunStage(e.Clock, e.Launch(true), "topk", n, func(p int) (cluster.TaskStats, error) {
		in := rel.parts[p]
		kept[p] = topPerm(in, less, k, e.Region)
		return cluster.TaskStats{
			Rows:     int64(in.n),
			NetBytes: int64(len(kept[p])) * width * bytesPerValue,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, perm := range kept {
		total += len(perm)
	}
	survivors := e.Region.Arena(len(rel.schema), total)
	for p, perm := range kept {
		for _, i := range perm {
			survivors.AppendCopy(rel.parts[p].Row(int(i)))
		}
	}
	sorted := e.Region.Arena(0, 0)
	rows := SortInto(&sorted, survivors.Block(), less, k)
	rows = rows.Slice(min(offset, rows.Len()), rows.Len())
	return &Relation{schema: rel.schema.Clone(), parts: []Block{rows}}, nil
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

	groups := NewGroupTable(e.Region, gIdx, cIdx)
	for _, part := range rel.parts {
		for i := 0; i < part.n; i++ {
			groups.Add(part.Row(i))
		}
	}
	out := groups.Rows()

	width := int64(len(rel.schema))
	err := e.Cluster.RunStage(e.Clock, e.Launch(true), "aggregate", rel.Partitions(), func(p int) (cluster.TaskStats, error) {
		rows := int64(rel.parts[p].n)
		return cluster.TaskStats{Rows: rows, NetBytes: rows * width * bytesPerValue}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: outSchema, parts: []Block{out}}, nil
}

// GroupTable is the hash-aggregation state both executors fill: one
// output row per distinct group key — the group cells of the first row
// seen with that key, then one COUNT cell per aggregate, holding the
// raw count as an rdf.ID. Groups are found through a rowSet over their
// keys — the engine's one head table and chain, keyed on the packed
// group columns — and every buffer is carved from the region the table
// was given, so a table of any size allocates nothing on the heap in a
// region. Not safe for concurrent use: concurrent fillers keep a table
// each and Merge them.
type GroupTable struct {
	groupIdx, countIdx []int
	// keys holds each group's key cells and counts its COUNT cells, group
	// by group in first-seen order; key is the row being added's key
	// cells.
	keys   rowSet
	counts RowArena
	key    Row
}

// NewGroupTable returns an empty table in r grouping on the input
// columns groupIdx; countIdx names each COUNT's counted input column (-1
// = COUNT(*)).
func NewGroupTable(r *Region, groupIdx, countIdx []int) *GroupTable {
	g := new(GroupTable)
	g.Reset(r, groupIdx, countIdx)
	return g
}

// Reset empties g for grouping on groupIdx and counting countIdx, as
// NewGroupTable describes, in r: the way to set up a table held by value.
func (g *GroupTable) Reset(r *Region, groupIdx, countIdx []int) {
	*g = GroupTable{groupIdx: groupIdx, countIdx: countIdx, counts: r.Arena(len(countIdx), 0), key: Row(r.IDs(len(groupIdx)))}
	g.keys.reset(r, len(groupIdx), 0)
}

// Add folds one input row into its group.
func (g *GroupTable) Add(r Row) {
	for i, j := range g.groupIdx {
		g.key[i] = r[j]
	}
	counts := g.group(g.key)
	for ci, j := range g.countIdx {
		if j < 0 || r[j] != rdf.NullID {
			counts[ci]++
		}
	}
}

// Merge folds o's groups into g, summing the counts of a group both
// hold. o must group and count the same columns as g; it is only read.
func (g *GroupTable) Merge(o *GroupTable) {
	keys, counts := o.keys.rows.Block(), o.counts.Block()
	for i := 0; i < keys.n; i++ {
		into := g.group(keys.Row(i))
		for ci, c := range counts.Row(i) {
			into[ci] += c
		}
	}
}

// group returns the COUNT cells of key's group, adding the group with
// zero counts if it is new.
func (g *GroupTable) group(key Row) Row {
	gi, added := g.keys.insert(key)
	nc := len(g.countIdx)
	if added {
		g.counts.Grow(1)
		g.counts.buf = append(g.counts.buf, make(Row, nc)...)
		g.counts.n++
	}
	return g.counts.buf[gi*nc : (gi+1)*nc]
}

// Len returns the number of groups.
func (g *GroupTable) Len() int { return g.keys.rows.n }

// Rows returns the group rows sorted by raw ID order, in a block of the
// table's region. Group keys are unique, so their order is the rows'
// and is total.
func (g *GroupTable) Rows() Block {
	r := g.counts.region
	keys, counts := g.keys.rows.Block(), g.counts.Block()
	out := r.Arena(len(g.groupIdx)+len(g.countIdx), keys.n)
	for _, i := range sortPerm(keys, lessRows, r.int32s(keys.n)) {
		out.AppendConcat(keys.Row(int(i)), counts.Row(int(i)))
	}
	return out.Block()
}

// LessRowsID is the engine's canonical raw-ID row order (column-wise
// by dictionary ID, shorter rows first) — the deterministic total
// order imposed on limited, unordered results so LIMIT without
// ORDER BY returns the same rows under every plan and partitioning.
func LessRowsID(a, b Row) bool { return lessRows(a, b) }
