package engine

import (
	"unsafe"

	"repro/internal/rdf"
)

// RowArena accumulates fixed-width output rows in one flat []rdf.ID
// backing buffer, handing out rows as capacity-clipped slices into it.
// Operators allocate one arena per partition instead of one Row per
// output tuple, so emitting n rows costs O(log n) buffer growths
// rather than n heap allocations. If the buffer grows, already-issued
// rows keep pointing into the previous backing array, which stays
// valid — rows are immutable once emitted.
//
// The arena is exported so storage layers (property-table and VP
// scans in internal/core) can emit their scan output in the same
// representation the join core produces.
type RowArena struct {
	width int
	buf   []rdf.ID
	rows  []Row
}

// NewRowArena returns an arena for rows of the given width, pre-sized
// to hold rowCapHint rows without reallocating. Callers derive the
// hint from known cardinalities (probe-side row count for joins, exact
// output size for cartesian products and projections).
func NewRowArena(width, rowCapHint int) *RowArena {
	a := new(RowArena)
	a.Reset(width, rowCapHint)
	return a
}

// Reset empties the arena for rows of the given width with room for
// rowCapHint of them, keeping the storage it already has — a caller that
// works through many partitions one after another pays for the largest
// once. Rows handed out before are dead: their storage is overwritten.
// The zero RowArena is ready for Reset.
func (a *RowArena) Reset(width, rowCapHint int) {
	a.width = width
	a.buf = emptied(a.buf, rowCapHint*width)
	a.rows = emptied(a.rows, rowCapHint)
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

// largestBuffer is the size in bytes of the larger of the arena's two
// buffers.
func (a *RowArena) largestBuffer() int {
	return max(cap(a.buf)*int(unsafe.Sizeof(rdf.ID(0))), cap(a.rows)*int(unsafe.Sizeof(Row(nil))))
}

// seal clips the just-written row out of the buffer tail and records
// it. The capacity clip guarantees no later append can write into an
// issued row.
func (a *RowArena) seal(start int) {
	a.rows = append(a.rows, a.buf[start:len(a.buf):len(a.buf)])
}

// AppendJoin emits left ++ right[keep] — the hash-join output shape —
// as one arena row.
func (a *RowArena) AppendJoin(left, right Row, keep []int) {
	start := len(a.buf)
	a.buf = append(a.buf, left...)
	for _, i := range keep {
		a.buf = append(a.buf, right[i])
	}
	a.seal(start)
}

// AppendJoinPruned emits left[lKeep] ++ right[rKeep] — the hash-join
// output shape with fused column pruning — as one arena row.
func (a *RowArena) AppendJoinPruned(left, right Row, lKeep, rKeep []int) {
	start := len(a.buf)
	for _, i := range lKeep {
		a.buf = append(a.buf, left[i])
	}
	for _, i := range rKeep {
		a.buf = append(a.buf, right[i])
	}
	a.seal(start)
}

// AppendConcat emits x ++ y (the cartesian-product shape) as one
// arena row.
func (a *RowArena) AppendConcat(x, y Row) {
	start := len(a.buf)
	a.buf = append(a.buf, x...)
	a.buf = append(a.buf, y...)
	a.seal(start)
}

// AppendCopy emits a copy of r, which the caller may reuse as scratch.
func (a *RowArena) AppendCopy(r Row) {
	start := len(a.buf)
	a.buf = append(a.buf, r...)
	a.seal(start)
}

// AppendRef emits r itself, uncopied: the output of a filter over rows
// that outlive the arena's use costs a row header each, no IDs.
func (a *RowArena) AppendRef(r Row) { a.rows = append(a.rows, r) }

// AppendProjected emits r's columns at idx, in idx order.
func (a *RowArena) AppendProjected(r Row, idx []int) {
	start := len(a.buf)
	for _, j := range idx {
		a.buf = append(a.buf, r[j])
	}
	a.seal(start)
}

// Len returns the number of rows emitted so far.
func (a *RowArena) Len() int { return len(a.rows) }

// Rows returns the emitted rows. The arena must not be appended to
// afterwards.
func (a *RowArena) Rows() []Row { return a.rows }
