package engine

import (
	"repro/internal/rdf"
)

// RowArena builds a Block: fixed-width rows are appended to one flat
// []rdf.ID buffer, and Block hands the rows out as a block over it.
// Operators size one arena per output partition from known
// cardinalities (the probe's counted matches, a cartesian product's
// exact size), so emitting n rows is one allocation rather than n.
//
// The arena is exported so storage layers (property-table and VP scans
// in internal/core) and streaming pipelines build their batches the way
// the join core builds its output.
type RowArena struct {
	width, n int
	buf      []rdf.ID
}

// NewRowArena returns an arena for rows of the given width, pre-sized
// to hold rowCapHint rows without reallocating.
func NewRowArena(width, rowCapHint int) *RowArena {
	a := new(RowArena)
	a.Reset(width, rowCapHint)
	return a
}

// Reset empties the arena for rows of the given width with room for
// rowCapHint of them, keeping the storage it already has — a caller that
// works through many partitions one after another pays for the largest
// once. Blocks handed out before are dead: their storage is overwritten.
// The zero RowArena is ready for Reset.
func (a *RowArena) Reset(width, rowCapHint int) {
	a.width, a.n = width, 0
	a.buf = emptied(a.buf, rowCapHint*width)
}

// emptied returns s emptied with room for n elements: in its own
// storage when that is large enough, in exactly n fresh ones otherwise —
// so scratch follows its largest use and no further, and a first use
// allocates what a plain make would.
func emptied[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, 0, n)
	}
	return s[:0]
}

// largestBuffer is the size in bytes of the arena's buffer.
func (a *RowArena) largestBuffer() int { return cap(a.buf) * 4 }

// AppendJoin emits left ++ right[keep] — the hash-join output shape.
func (a *RowArena) AppendJoin(left, right Row, keep []int) {
	a.buf = append(a.buf, left...)
	for _, i := range keep {
		a.buf = append(a.buf, right[i])
	}
	a.n++
}

// AppendJoinPruned emits left[lKeep] ++ right[rKeep] — the hash-join
// output shape with fused column pruning.
func (a *RowArena) AppendJoinPruned(left, right Row, lKeep, rKeep []int) {
	for _, i := range lKeep {
		a.buf = append(a.buf, left[i])
	}
	for _, i := range rKeep {
		a.buf = append(a.buf, right[i])
	}
	a.n++
}

// AppendConcat emits x ++ y (the cartesian-product shape).
func (a *RowArena) AppendConcat(x, y Row) {
	a.buf = append(a.buf, x...)
	a.buf = append(a.buf, y...)
	a.n++
}

// AppendCopy emits a copy of r, which the caller may reuse as scratch.
func (a *RowArena) AppendCopy(r Row) {
	a.buf = append(a.buf, r...)
	a.n++
}

// AppendProjected emits r's columns at idx, in idx order.
func (a *RowArena) AppendProjected(r Row, idx []int) {
	for _, j := range idx {
		a.buf = append(a.buf, r[j])
	}
	a.n++
}

// Len returns the number of rows emitted so far.
func (a *RowArena) Len() int { return a.n }

// Block returns the emitted rows as a block over the arena's buffer,
// valid until the arena's next Reset. Its width is the rows' own: the
// width given to Reset sizes the buffer and names the width of an empty
// block, but a row is as wide as what was appended for it — a join's
// keep lists, not a caller's statement of them, decide its output's
// width.
func (a *RowArena) Block() Block {
	width := a.width
	if a.n > 0 {
		width = len(a.buf) / a.n
	}
	return Block{width: width, n: a.n, ids: a.buf[:len(a.buf):len(a.buf)]}
}
