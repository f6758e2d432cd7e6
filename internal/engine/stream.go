package engine

// Streaming-operator surface over the hash-join internals. The
// morsel-driven executor in internal/core fuses scans, probes,
// projections and distinct into pull-based pipelines; this file
// exports exactly the pieces it needs — join layout, chained hash
// index, row dedup set — as thin wrappers so the streaming path emits
// rows through the same packKey/joinLayout/arena machinery the
// materialized operators use. Sharing those code paths, not just the
// semantics, is what keeps the two execution modes byte-identical on
// SortedRows.

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

// Build indexes the buffered build side. Build rows must be stable
// (the index and probes retain them); arena-backed rows qualify.
func (j *StreamJoin) Build(buildRows []Row, buildIsLeft bool) *StreamHash {
	buildKey, probeKey := j.rKey, j.lKey
	if buildIsLeft {
		buildKey, probeKey = j.lKey, j.rKey
	}
	return &StreamHash{
		ix:        buildJoinIndex(buildRows, buildKey),
		probeKey:  probeKey,
		emit:      joinEmit{buildLeft: buildIsLeft, width: len(j.out), lKeep: j.lKeep, rKeep: j.rKeep},
		nullRight: j.nullRight,
	}
}

// StreamHash is a built hash table ready for batch-at-a-time probing.
// Probing is read-only, so concurrent probe morsels share one table.
type StreamHash struct {
	ix        joinIndex
	probeKey  []int
	emit      joinEmit
	nullRight Row
}

// Probe appends every join match of probe row pr into arena and
// returns the number of rows emitted.
func (h *StreamHash) Probe(pr Row, arena *RowArena) int {
	return h.ix.emitChain(h.ix.first(pr, h.probeKey), pr, h.probeKey, &h.emit, arena)
}

// ProbeBatch joins one batch of probe rows against the table into an
// arena sized by the batch's match count (nil when nothing matches).
// With outer set the probe has left-outer semantics — a probe row with
// no match emits once, padded with NullID in the right-only columns —
// which requires the build side to be the right (optional) input
// (buildIsLeft=false at Build time).
func (h *StreamHash) ProbeBatch(probe []Row, outer bool) []Row {
	e := h.emit
	if outer {
		e.nullRight = h.nullRight
	}
	return h.ix.probeBatch(probe, h.probeKey, &e, nil)
}

// RowDeduper wraps the Distinct operator's row set for streaming use:
// pipelines insert as rows arrive instead of deduplicating a
// materialized relation at the end.
type RowDeduper struct {
	set *rowSet
}

// NewRowDeduper returns a deduper for rows of the given width.
func NewRowDeduper(width, capHint int) *RowDeduper {
	return &RowDeduper{set: newRowSet(width, capHint)}
}

// Insert adds r unless an equal row was already seen, reporting
// whether r was new. r is retained, not copied — callers streaming
// from reused scratch buffers must copy first.
func (d *RowDeduper) Insert(r Row) bool { return d.set.insert(r) }

// Rows returns the retained distinct rows in first-seen order.
func (d *RowDeduper) Rows() []Row { return d.set.rows }

// Len returns the number of distinct rows seen.
func (d *RowDeduper) Len() int { return len(d.set.rows) }
