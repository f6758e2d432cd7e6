package engine

import (
	"fmt"
	"slices"

	"repro/internal/rdf"
)

// Block is one partition's rows: a width, a row count, and the rows'
// IDs row-major in one pointer-free slice. A block holds no per-row
// headers, so the collector never scans it and a partition of n rows is
// one object whatever n is. The count is stored, not derived, so width-0
// rows — an existence test's one empty row — still count.
//
// Blocks are immutable once built: operators read their inputs and
// write new blocks (through RowArena), so a block, a Slice of one and a
// Row of one may be shared by any number of relations and readers.
type Block struct {
	width, n int
	ids      []rdf.ID
}

// MakeBlock adopts ids as n rows of the given width. len(ids) must be
// width×n; the caller gives the slice away.
func MakeBlock(width, n int, ids []rdf.ID) Block {
	if width < 0 || n < 0 || len(ids) != width*n {
		panic(fmt.Sprintf("engine: %d IDs are not %d rows of width %d", len(ids), n, width))
	}
	return Block{width: width, n: n, ids: ids[:len(ids):len(ids)]}
}

// Len returns the row count.
func (b Block) Len() int { return b.n }

// Width returns the row width.
func (b Block) Width() int { return b.width }

// IDs returns the rows' IDs, row-major, in the block's own storage:
// read-only.
func (b Block) IDs() []rdf.ID { return b.ids }

// Row returns row i as a view of the block's storage, clipped to the
// row's width so that appending to it can never write into row i+1. It
// allocates nothing.
func (b Block) Row(i int) Row {
	lo := i * b.width
	hi := lo + b.width
	return Row(b.ids[lo:hi:hi])
}

// Slice returns rows [i, j) as a block sharing b's storage.
func (b Block) Slice(i, j int) Block {
	if i < 0 || j < i || j > b.n {
		panic(fmt.Sprintf("engine: slice [%d:%d] of a %d-row block", i, j, b.n))
	}
	lo, hi := i*b.width, j*b.width
	return Block{width: b.width, n: j - i, ids: b.ids[lo:hi:hi]}
}

// emptyBlock is a block of no rows of the given width.
func emptyBlock(width int) Block { return Block{width: width} }

// totalRows is the row count of a sequence of blocks.
func totalRows(blocks []Block) int {
	n := 0
	for _, b := range blocks {
		n += b.n
	}
	return n
}

// concatBlocks copies the rows of blocks, in order, into one block of
// the given width, carved from r (one allocation when r is nil); it
// copies nothing when fewer than two blocks hold rows, whose rows are
// returned as they are.
func concatBlocks(r *Region, width int, blocks []Block) Block {
	var only Block
	holding := 0
	for _, b := range blocks {
		if b.n > 0 {
			only = b
			holding++
		}
	}
	switch holding {
	case 0:
		return emptyBlock(width)
	case 1:
		return only
	}
	n := totalRows(blocks)
	ids := r.IDs(n * width)[:0]
	for _, b := range blocks {
		ids = append(ids, b.ids...)
	}
	return Block{width: width, n: n, ids: ids}
}

// LayoutBlocks lays out one allocation of IDs as consecutive blocks of
// counts[p] rows each, for a caller that counted its rows before placing
// them: it returns the blocks, their storage still to be written, the
// storage itself, and per block the offset in ids its first row goes to.
func LayoutBlocks(width int, counts []int) (blocks []Block, fill []int, ids []rdf.ID) {
	return layoutBlocks(nil, width, counts)
}

// layoutBlocks is LayoutBlocks with the storage carved from r.
func layoutBlocks(r *Region, width int, counts []int) (blocks []Block, fill []int, ids []rdf.ID) {
	total := 0
	for _, c := range counts {
		total += c
	}
	ids = r.IDs(total * width)
	blocks = make([]Block, len(counts))
	fill = make([]int, len(counts))
	at := 0
	for p, c := range counts {
		blocks[p] = Block{width: width, n: c, ids: ids[at : at+c*width : at+c*width]}
		fill[p] = at
		at += c * width
	}
	return blocks, fill, ids
}

// Select returns the rows of b that keep accepts, in order: b itself
// when keep accepts every row, otherwise a copy in a's storage (Reset
// here, to exactly the rows kept; they live until its next use). The
// accepted row numbers are remembered between the test and the copy, in
// a's region, so keep runs once per row.
func (b Block) Select(keep func(Row) bool, a *RowArena) Block {
	kept := a.region.int32s(b.n)[:0]
	for i := 0; i < b.n; i++ {
		if keep(b.Row(i)) {
			kept = append(kept, int32(i))
		}
	}
	if len(kept) == b.n {
		return b
	}
	return gather(b, kept, a)
}

// gather copies b's rows at idx, in idx order, into a's storage (Reset
// here).
func gather(b Block, idx []int32, a *RowArena) Block {
	if len(idx) == 0 {
		return emptyBlock(b.width)
	}
	a.Reset(b.width, len(idx))
	for _, i := range idx {
		a.AppendCopy(b.Row(int(i)))
	}
	return a.Block()
}

// SortBlock returns b's rows ordered stably by less, keeping the first k
// of them (all when k < 0), in a new heap block. It sorts a permutation
// of row numbers and copies the rows once, into their final order.
func SortBlock(b Block, less func(x, y Row) bool, k int) Block {
	return SortInto(new(RowArena), b, less, k)
}

// SortInto is SortBlock into dst's storage (Reset here, so b must not
// live in it); the permutation is carved from dst's region.
func SortInto(dst *RowArena, b Block, less func(x, y Row) bool, k int) Block {
	perm := sortPerm(b, less, dst.region.int32s(b.n))
	if k >= 0 && k < len(perm) {
		perm = perm[:k]
	}
	dst.Reset(b.width, len(perm))
	for _, i := range perm {
		dst.AppendCopy(b.Row(int(i)))
	}
	return dst.Block()
}

// sortPerm returns b's row numbers ordered stably by less, in perm's
// storage, which must hold b.n of them.
func sortPerm(b Block, less func(x, y Row) bool, perm []int32) []int32 {
	perm = perm[:0]
	for i := 0; i < b.n; i++ {
		perm = append(perm, int32(i))
	}
	slices.SortStableFunc(perm, func(i, j int32) int {
		x, y := b.Row(int(i)), b.Row(int(j))
		switch {
		case less(x, y):
			return -1
		case less(y, x):
			return 1
		}
		return 0
	})
	return perm
}
