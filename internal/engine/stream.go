package engine

// Streaming-operator surface over the hash-join internals. The
// morsel-driven executor in internal/core fuses scans, probes,
// projections and distinct into pull-based pipelines; this file
// exports exactly the pieces it needs — join layout, chained hash
// index, row dedup set — as thin wrappers so the streaming path emits
// rows through the same packKey/joinLayout/arena machinery the
// materialized operators use. A batch is a Block, like a partition.
// Sharing those code paths, not just the semantics, is what keeps the
// two execution modes byte-identical on SortedRows.

// StreamJoin is one hash join's precomputed layout: output schema,
// emission index lists and per-side key columns, fixed at
// pipeline-build time.
type StreamJoin struct {
	out          Schema
	shared       []string
	lKey, rKey   []int
	lKeep, rKeep []int
	// nullRight is a right-width row of NullIDs, the padding an outer
	// probe emits for probe rows with no match.
	nullRight Row
}

// NewStreamJoin computes the join layout of left ⋈ right with fused
// column pruning (keep == nil retains every column, exactly like
// JoinKeep). Zero shared variables degrade to a cartesian product
// naturally: the empty key packs to a constant, chaining every build
// row behind every probe.
func NewStreamJoin(left, right Schema, keep []string) *StreamJoin {
	shared := left.Shared(right)
	out, lKeep, rKeep := joinLayout(left, right, shared, keep)
	return &StreamJoin{
		out:       out,
		shared:    shared,
		lKey:      keyIndexes(left, shared),
		rKey:      keyIndexes(right, shared),
		lKeep:     lKeep,
		rKeep:     rKeep,
		nullRight: make(Row, len(right)),
	}
}

// OutSchema returns the join's output schema (left columns first, the
// materialized operators' orientation).
func (j *StreamJoin) OutSchema() Schema { return j.out }

// Shared returns the join variables.
func (j *StreamJoin) Shared() []string { return j.shared }

// BuildBlocks indexes the buffered build side where it lies, in r (the
// heap when nil): the blocks, in order, are what the index and its
// probes read, so they must stay unchanged while the hash is in use.
func (j *StreamJoin) BuildBlocks(r *Region, blocks []Block, buildIsLeft bool) *StreamHash {
	buildKey, probeKey := j.rKey, j.lKey
	if buildIsLeft {
		buildKey, probeKey = j.lKey, j.rKey
	}
	return &StreamHash{
		ix:        buildJoinIndex(r, blocks, buildKey),
		region:    r,
		probeKey:  probeKey,
		emit:      joinEmit{buildLeft: buildIsLeft, width: len(j.out), lKeep: j.lKeep, rKeep: j.rKeep},
		nullRight: j.nullRight,
	}
}

// StreamHash is a built hash table ready for batch-at-a-time probing.
// Probing is read-only, so concurrent probe morsels share one table.
type StreamHash struct {
	ix joinIndex
	// region is where the table lives and probes emit.
	region    *Region
	probeKey  []int
	emit      joinEmit
	nullRight Row
}

// ProbeBatch joins one batch of probe rows against the table into a
// block sized by the batch's match count, in the table's region (empty,
// and unallocated, when nothing matches). With outer set the probe has
// left-outer semantics — a probe row with no match emits once, padded
// with NullID in the right-only columns — which requires the build side
// to be the right (optional) input (buildIsLeft=false at build time).
func (h *StreamHash) ProbeBatch(probe Block, outer bool) Block {
	e := h.emit
	if outer {
		e.nullRight = h.nullRight
	}
	return h.ix.probeBatch(h.region, probe, h.probeKey, &e)
}

// RowDeduper wraps the Distinct operator's row set for streaming use:
// pipelines insert as rows arrive instead of deduplicating a
// materialized relation at the end.
type RowDeduper struct {
	set *rowSet
}

// NewRowDeduper returns a deduper for rows of the given width, whose set
// lives in r (the heap when nil) and grows there past capHint rows.
func NewRowDeduper(r *Region, width, capHint int) *RowDeduper {
	set := new(rowSet)
	set.reset(r, width, capHint)
	return &RowDeduper{set: set}
}

// Insert adds a copy of r unless an equal row was already seen,
// reporting whether r was new.
func (d *RowDeduper) Insert(r Row) bool {
	_, added := d.set.insert(r)
	return added
}

// Rows returns the distinct rows seen so far, in first-seen order, as a
// block over the deduper's storage. Rows are only ever appended to it,
// so the block — or a Slice of it, the rows one batch added — stays
// valid as later inserts go on.
func (d *RowDeduper) Rows() Block { return d.set.rows.Block() }

// Len returns the number of distinct rows seen.
func (d *RowDeduper) Len() int { return d.set.rows.n }
