package engine

// The row-slice surface. The engine stores and passes rows as Blocks;
// this file is the one place rows still come and go as []Row and
// [][]Row, for callers that hold them that way: tests, and the
// benchmark's kernel probes (benchmark/probes.go), whose names and
// signatures stay fixed while the benchmark may not change. Each
// adapter copies its rows into a block and calls the one block kernel —
// there is no second kernel — so the engine.*_ns_per_row and
// engine.join_kernel_b_per_row probes now time adapter plus kernel: the
// copy in, the kernel, and the row views out. ROADMAP item 1's
// benchmark change re-points those probes at the block kernels, after
// which this file shrinks to what tests use.

// NewBlock copies rows, each of the given width, into a block.
func NewBlock(width int, rows []Row) Block {
	var a RowArena
	a.Reset(width, len(rows))
	for _, r := range rows {
		if len(r) != width {
			panic("engine: NewBlock given a row of another width")
		}
		a.AppendCopy(r)
	}
	return a.Block()
}

// blockOf copies rows into a block as wide as their first row.
func blockOf(rows []Row) Block {
	if len(rows) == 0 {
		return Block{}
	}
	return NewBlock(len(rows[0]), rows)
}

// Rows returns b's rows as views of its storage, nil when it has none.
func (b Block) Rows() []Row {
	if b.n == 0 {
		return nil
	}
	out := make([]Row, b.n)
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// Rows returns the emitted rows as views of the arena's buffer; see
// Block.
func (a *RowArena) Rows() []Row { return a.Block().Rows() }

// NewRelation builds a relation from pre-partitioned rows, copying each
// partition into a block as wide as the schema. The caller asserts that
// rows are hash-partitioned by partKey (or passes "" if the layout is
// arbitrary).
func NewRelation(schema Schema, parts [][]Row, partKey string) *Relation {
	blocks := make([]Block, len(parts))
	for p, rows := range parts {
		blocks[p] = NewBlock(len(schema), rows)
	}
	return NewBlockRelation(schema, blocks, partKey)
}

// Partition is PartitionBlock over rows as wide as the schema, on the
// heap.
func Partition(schema Schema, rows []Row, key string, n int) (*Relation, error) {
	return PartitionBlock(nil, schema, NewBlock(len(schema), rows), key, n)
}

// Rows returns every partition's rows, in partition order, as views of
// the relation's blocks.
func (r *Relation) Rows() []Row {
	out := make([]Row, 0, r.NumRows())
	for _, b := range r.parts {
		for i := 0; i < b.n; i++ {
			out = append(out, b.Row(i))
		}
	}
	return out
}

// SortedRows returns all rows sorted lexicographically, for
// deterministic test assertions.
func (r *Relation) SortedRows() []Row {
	return SortBlock(concatBlocks(nil, len(r.schema), r.parts), lessRows, -1).Rows()
}

// JoinPartitionKernel is the shuffle join's partition kernel
// (JoinPartition) over rows: the benchmark's engine.join_kernel_* probes
// time it, adapter included.
func JoinPartitionKernel(lRows, rRows []Row, lKey, rKey []int, outWidth int, lKeep, rKeep []int) []Row {
	return JoinPartition(nil, blockOf(lRows), blockOf(rRows), lKey, rKey, outWidth, lKeep, rKeep).Rows()
}

// DistinctKernel is the distinct operator's partition kernel
// (Distinct) over rows: the benchmark's engine.distinct_ns_per_row probe
// times it, adapter included.
func DistinctKernel(rows []Row, width int) []Row {
	return Distinct(nil, NewBlock(width, rows), width).Rows()
}

// NewJoinProbe indexes a copy of buildRows on the key columns, for the
// row-slice probes below, which the benchmark's engine.probe_ns_per_row
// probe times.
func NewJoinProbe(buildRows []Row, buildKey []int) *JoinProbe {
	jp := BuildJoinProbe(nil, []Block{blockOf(buildRows)}, buildKey)
	return &jp
}

// Probe emits the join of probeRows against the indexed build side; see
// ProbeBlock.
func (jp *JoinProbe) Probe(probeRows []Row, probeKey []int, buildIsLeft bool, outWidth int, lKeep, rKeep []int) []Row {
	return jp.ProbeBlock(nil, blockOf(probeRows), probeKey, buildIsLeft, outWidth, lKeep, rKeep).Rows()
}

// Build indexes a copy of buildRows; see BuildBlocks. With Probe below
// it is what the benchmark's engine.stream_probe_ns_per_row probe times.
func (j *StreamJoin) Build(buildRows []Row, buildIsLeft bool) *StreamHash {
	return j.BuildBlocks(nil, []Block{blockOf(buildRows)}, buildIsLeft)
}

// Probe appends every join match of probe row pr into arena and
// returns the number of rows emitted.
func (h *StreamHash) Probe(pr Row, arena *RowArena) int {
	return h.ix.emitChain(h.ix.first(pr, h.probeKey), pr, h.probeKey, &h.emit, arena)
}
