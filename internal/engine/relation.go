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
// The join/shuffle/distinct hot path is allocation-light by design:
// rows are dictionary-encoded, so join keys of one or two columns pack
// losslessly into the hash-table key (no materialization at all) and
// wider keys fold to a uint64 hash with a column-wise re-check on
// collision (key.go); hash joins probe a chained index that allocates
// only its head map and chain (joinIndex); and operators emit output
// rows into one flat per-partition backing buffer (RowArena) instead
// of allocating each row separately. Partition tasks run with real
// goroutine parallelism under cluster.RunStage; all per-partition
// state (arena, index, output slot) is task-local, and broadcast-join
// indexes are built once and probed read-only.
package engine

import (
	"fmt"
	"sort"

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

// Relation is an immutable, partitioned table of rows. Operators never
// mutate their inputs; they build new relations.
type Relation struct {
	schema Schema
	parts  [][]Row
	// partCols are the columns the partitions are hash-distributed by,
	// in the exact order the shuffle hashed them (nil when the layout
	// is arbitrary). Joins shuffling on the same column sequence skip
	// the shuffle for this side.
	partCols []string
}

// NewRelation builds a relation directly from pre-partitioned rows. The
// caller asserts that rows are hash-partitioned by partKey (or passes ""
// if the layout is arbitrary).
func NewRelation(schema Schema, parts [][]Row, partKey string) *Relation {
	r := &Relation{schema: schema.Clone(), parts: parts}
	if partKey != "" {
		r.partCols = []string{partKey}
	}
	return r
}

// Partition hash-distributes rows by the key column into n partitions.
// It performs no cost charging: loaders charge their own load stages.
// Placement uses the engine's canonical row-key hash, so every relation
// carrying a partition key is laid out identically and joins on that key
// can skip the shuffle outright.
func Partition(schema Schema, rows []Row, key string, n int) (*Relation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: partition count %d must be positive", n)
	}
	ki := schema.Index(key)
	if ki < 0 {
		return nil, fmt.Errorf("engine: partition key %q not in schema %v", key, schema)
	}
	keyIdx := []int{ki}
	parts := make([][]Row, n)
	for _, r := range rows {
		p := cluster.HashPartition(hashRowKey(r, keyIdx), n)
		parts[p] = append(parts[p], r)
	}
	return &Relation{schema: schema.Clone(), parts: parts, partCols: []string{key}}, nil
}

// Schema returns the relation's column names.
func (r *Relation) Schema() Schema { return r.schema }

// Partitions returns the partition count.
func (r *Relation) Partitions() int { return len(r.parts) }

// PartitionKey returns the single column the relation is
// hash-partitioned by, or "" when the layout is arbitrary or keyed on
// multiple columns (see PartitionCols).
func (r *Relation) PartitionKey() string {
	if len(r.partCols) == 1 {
		return r.partCols[0]
	}
	return ""
}

// PartitionCols returns the columns the relation is hash-partitioned
// by, in shuffle-hash order, or nil. The returned slice is a copy.
func (r *Relation) PartitionCols() []string { return cloneCols(r.partCols) }

// Part returns one partition's rows. Callers must not mutate them.
func (r *Relation) Part(i int) []Row { return r.parts[i] }

// Parts returns every partition's rows, in the relation's own storage:
// read-only, like Part.
func (r *Relation) Parts() [][]Row { return r.parts }

// NumRows returns the total row count across partitions.
func (r *Relation) NumRows() int {
	n := 0
	for _, p := range r.parts {
		n += len(p)
	}
	return n
}

// EstimatedBytes approximates the relation's wire footprint, the input
// to broadcast-join selection.
func (r *Relation) EstimatedBytes() int64 {
	return int64(r.NumRows()) * int64(len(r.schema)) * bytesPerValue
}

// Rows gathers every partition's rows into one slice (driver-side
// materialization without cost accounting; use Exec.Collect inside
// queries).
func (r *Relation) Rows() []Row {
	out := make([]Row, 0, r.NumRows())
	for _, p := range r.parts {
		out = append(out, p...)
	}
	return out
}

// SortedRows returns all rows sorted lexicographically, for
// deterministic test assertions.
func (r *Relation) SortedRows() []Row {
	rows := r.Rows()
	sort.Slice(rows, func(i, j int) bool { return lessRows(rows[i], rows[j]) })
	return rows
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
// single-column key value — the placement used by Partition, shuffles
// and join outputs alike. Storage layers partition their files with it
// so scans produce relations whose joins on the key skip the shuffle.
func PartitionFor(v rdf.ID, n int) int {
	return cluster.HashPartition(hashRowKey(Row{v}, []int{0}), n)
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
