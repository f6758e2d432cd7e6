package engine

import (
	"repro/internal/rdf"
)

// RowArena builds a Block: fixed-width rows are appended to one flat
// []rdf.ID buffer, and Block hands the rows out as a block over it.
// Operators size one arena per output partition from known
// cardinalities (the probe's counted matches, a cartesian product's
// exact size), so emitting n rows is one allocation rather than n — or,
// in a query's Region, none.
//
// The arena is exported so storage layers (property-table and VP scans
// in internal/core) and streaming pipelines build their batches the way
// the join core builds its output.
type RowArena struct {
	width, n int
	buf      []rdf.ID
	// region is where buf comes from; nil is the heap.
	region *Region
}

// NewRowArena returns a heap arena for rows of the given width,
// pre-sized to hold rowCapHint rows without reallocating.
func NewRowArena(width, rowCapHint int) *RowArena {
	a := new(RowArena)
	a.Reset(width, rowCapHint)
	return a
}

// Arena returns an arena whose storage is carved from r (the heap when
// r is nil), sized for rowCapHint rows of the given width.
func (r *Region) Arena(width, rowCapHint int) RowArena {
	a := RowArena{region: r}
	a.Reset(width, rowCapHint)
	return a
}

// Reset empties the arena for rows of the given width with room for
// rowCapHint of them, keeping the storage it already has — a caller that
// works through many partitions one after another pays for the largest
// once. Blocks handed out before are dead: their storage is overwritten.
// The zero RowArena is ready for Reset and builds on the heap.
func (a *RowArena) Reset(width, rowCapHint int) {
	a.width, a.n = width, 0
	if n := rowCapHint * width; cap(a.buf) < n {
		a.buf = a.region.IDs(n)[:0]
	} else {
		a.buf = a.buf[:0]
	}
}

// Grow makes room for rows more rows, so the appends that follow do not
// reallocate: an arena in a region grows there, by doubling. Blocks
// handed out before stay valid — they keep the storage they were built
// in.
func (a *RowArena) Grow(rows int) {
	need := len(a.buf) + rows*a.width
	if need <= cap(a.buf) {
		return
	}
	buf := a.region.IDs(max(need, 2*cap(a.buf)))[:len(a.buf)]
	copy(buf, a.buf)
	a.buf = buf
}

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
