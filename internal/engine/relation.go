// Package engine is a relational dataframe engine over the simulated
// cluster — the stand-in for Spark SQL. Relations are hash-partitioned
// collections of dictionary-encoded rows; operators (scan, filter,
// project, shuffle hash join, broadcast join, distinct, sort, limit)
// perform real computation on real partitions while charging shuffle,
// scan and per-row costs to the query's virtual clock.
//
// The engine reproduces the two Catalyst behaviours PRoST's plans rely
// on (paper §3.3): physical join selection (a build side smaller than
// the broadcast threshold becomes a broadcast hash join instead of a
// shuffle join) and shuffle avoidance for co-partitioned inputs (a
// relation already hash-partitioned on the join key — single- or
// multi-column — is not moved).
//
// Rows are stored the way Spark SQL's operators pass them, as flat
// binary buffers: a partition is a Block — a width, a row count and one
// []rdf.ID of width×count IDs, with no per-row slice header and no
// pointer for the collector to chase. A Row is only ever a view of a
// block (Block.Row), made on the stack while an operator reads it.
// Operators that keep every row share the input's blocks (an unfiltered
// scan, Rename, UnionAll) or slices of them (Limit); operators that drop
// or reshape rows write a new block through RowArena, sized from a known
// cardinality, so an output partition is one buffer whatever its row
// count — carved from the query's Region (region.go) when the Exec has
// one, one allocation on the heap when it has none.
//
// The join/shuffle/distinct hot path is allocation-light by design:
// rows are dictionary-encoded, so join keys of one or two columns pack
// losslessly into the hash-table key (no materialization at all) and
// wider keys fold to a uint64 hash with a column-wise re-check on
// collision (key.go); hash joins probe a chained index over the build
// side's blocks, as many as it has, that is only a flat head table and
// a chain (joinIndex); and a shuffle counts its targets before it
// copies, so every target partition lands in one buffer. Partition tasks
// run with real goroutine parallelism under cluster.RunStage; all
// per-partition state (arena, index, output slot) is task-local, and
// broadcast-join indexes are built once and probed read-only.
package engine

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/rdf"
)

// Row is one tuple of dictionary-encoded values.
type Row []rdf.ID

// Schema is an ordered list of column names (SPARQL variable names).
type Schema []string

// Index returns the position of col, or -1.
func (s Schema) Index(col string) int {
	for i, c := range s {
		if c == col {
			return i
		}
	}
	return -1
}

// Contains reports whether the schema has the column.
func (s Schema) Contains(col string) bool { return s.Index(col) >= 0 }

// Shared returns the columns present in both schemas, in s's order.
func (s Schema) Shared(o Schema) []string {
	var out []string
	for _, c := range s {
		if o.Contains(c) {
			out = append(out, c)
		}
	}
	return out
}

// Clone returns an independent copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// BytesPerValue is the average wire/disk footprint of one encoded
// value, used for shuffle and broadcast size estimates. The planner
// prices candidate joins with the same constant so its estimates and
// the engine's runtime selection agree on byte sizes.
const BytesPerValue = 5

// bytesPerValue is the package-internal alias.
const bytesPerValue = BytesPerValue

// Relation is an immutable, partitioned table of rows: one Block per
// partition. Operators never mutate their inputs; they build new
// relations, which may share their inputs' blocks.
type Relation struct {
	schema Schema
	parts  []Block
	// partCols are the columns the partitions are hash-distributed by,
	// in the exact order the shuffle hashed them (nil when the layout
	// is arbitrary). Joins shuffling on the same column sequence skip
	// the shuffle for this side.
	partCols []string
}

// NewBlockRelation builds a relation directly from pre-partitioned
// blocks, which it adopts. The caller asserts that rows are
// hash-partitioned by partKey (or passes "" if the layout is arbitrary).
func NewBlockRelation(schema Schema, parts []Block, partKey string) *Relation {
	r := &Relation{schema: schema.Clone(), parts: parts}
	if partKey != "" {
		r.partCols = []string{partKey}
	}
	return r
}

// PartitionBlock hash-distributes rows by the key column into n
// partitions, all of them in one buffer of IDs carved from r: a query's
// region for a scan's intermediate, the heap (nil) for a stored table.
// It performs no cost charging: loaders charge their own load stages.
// Placement uses the engine's canonical row-key hash, so every relation
// carrying a partition key is laid out identically and joins on that key
// can skip the shuffle outright.
func PartitionBlock(r *Region, schema Schema, rows Block, key string, n int) (*Relation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: partition count %d must be positive", n)
	}
	ki := schema.Index(key)
	if ki < 0 {
		return nil, fmt.Errorf("engine: partition key %q not in schema %v", key, schema)
	}
	width := len(schema)
	if rows.n > 0 && rows.width != width {
		return nil, fmt.Errorf("engine: rows of width %d under schema %v", rows.width, schema)
	}
	counts := make([]int, n)
	for i := 0; i < rows.n; i++ {
		counts[PartitionFor(rows.Row(i)[ki], n)]++
	}
	parts, fill, ids := layoutBlocks(r, width, counts)
	for i := 0; i < rows.n; i++ {
		row := rows.Row(i)
		p := PartitionFor(row[ki], n)
		fill[p] += copy(ids[fill[p]:], row)
	}
	return &Relation{schema: schema.Clone(), parts: parts, partCols: []string{key}}, nil
}

// Schema returns the relation's column names.
func (r *Relation) Schema() Schema { return r.schema }

// Partitions returns the partition count.
func (r *Relation) Partitions() int { return len(r.parts) }

// Part returns one partition's block.
func (r *Relation) Part(i int) Block { return r.parts[i] }

// Parts returns every partition's block, in the relation's own slice:
// read-only, like the blocks.
func (r *Relation) Parts() []Block { return r.parts }

// NumRows returns the total row count across partitions.
func (r *Relation) NumRows() int { return totalRows(r.parts) }

// EstimatedBytes approximates the relation's wire footprint, the input
// to broadcast-join selection.
func (r *Relation) EstimatedBytes() int64 {
	return int64(r.NumRows()) * int64(len(r.schema)) * bytesPerValue
}

func lessRows(a, b Row) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

// PartitionFor returns the canonical partition index for a
// single-column key value — the placement used by PartitionBlock,
// shuffles and join outputs alike (hashRowKey over one column). Storage layers partition their files with it
// so scans produce relations whose joins on the key skip the shuffle.
func PartitionFor(v rdf.ID, n int) int {
	return cluster.HashPartition((fnvOffset^uint64(v))*fnvPrime, n)
}

// hashRowKey combines the values at key positions into a shuffle hash.
// It is the engine's canonical placement hash: Partition, shuffleRows
// and PartitionFor must all agree on it so co-partitioned relations
// stay aligned. (Join hash tables use packKey instead, which need not
// match placement.)
func hashRowKey(r Row, keyIdx []int) uint64 {
	h := fnvOffset
	for _, i := range keyIdx {
		h ^= uint64(r[i])
		h *= fnvPrime
	}
	return h
}
