package engine

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/rdf"
)

// Join and dedup keys. Rows are dictionary-encoded (rdf.ID is a
// uint32), so one key column IS the key and two key columns pack
// losslessly into a uint64 — the common BGP join needs no key
// materialization at all. Three or more columns are folded into a
// uint64 FNV hash and re-checked column-wise on every lookup, so a
// collision costs one extra comparison, never a wrong result. This
// replaces the old per-row string key (`string(b)`), which heap-
// allocated once per row on every join, shuffle and distinct.

const (
	// fnvOffset is the engine's hash basis. It is a truncated variant
	// of the FNV-1a offset basis, kept verbatim from the original
	// placement hash: partition placement — and therefore every
	// order-sensitive result (LIMIT without ORDER BY) — depends on it.
	fnvOffset uint64 = 1469598103934665603
	fnvPrime  uint64 = 1099511628211
)

// testCollideHashedKeys is a test hook: when set, every hashed
// (three-or-more-column) key folds to the same uint64, forcing the
// collision re-check path on each lookup.
var testCollideHashedKeys bool

// packKey reduces r's key columns to a uint64. exact reports whether
// the packing is collision-free; when false, callers must re-check
// candidate matches with keysEqual.
func packKey(r Row, keyIdx []int) (key uint64, exact bool) {
	switch len(keyIdx) {
	case 1:
		return uint64(r[keyIdx[0]]), true
	case 2:
		return uint64(r[keyIdx[0]])<<32 | uint64(r[keyIdx[1]]), true
	default:
		if testCollideHashedKeys {
			return 0xC0111DED, false
		}
		h := fnvOffset
		for _, i := range keyIdx {
			h ^= uint64(r[i])
			h *= fnvPrime
		}
		return h, false
	}
}

// keysEqual compares a's key columns to b's, position-wise.
func keysEqual(a Row, aIdx []int, b Row, bIdx []int) bool {
	for i, ai := range aIdx {
		if a[ai] != b[bIdx[i]] {
			return false
		}
	}
	return true
}

// joinIndex is a chained hash index over the build side of a hash
// join, the side's blocks indexed where they lie — however many there
// are, with no row gathered. Building one costs two allocations total
// (the head map and the chain slice) regardless of row count or key
// cardinality — no string keys, no per-key bucket slices — plus the
// block offsets when the side spans several blocks. An entry locates
// one build row: with one block it is the row number plus one (so the
// zero value of a map lookup doubles as "no entry"), with several the
// block number sits above shift bits of row number.
//
// One block is held in one, not in a slice, so that indexing a single
// partition needs no slice of blocks made for it.
type joinIndex struct {
	// head1 serves the single-column fast path, keyed directly on the
	// dictionary ID.
	head1 map[rdf.ID]int32
	// headN serves multi-column keys, packed (two columns) or hashed
	// (three or more) into a uint64.
	headN map[uint64]int32
	// next[g] links build row g — rows numbered across the blocks in
	// order — to the previous entry inserted with the same packed key; 0
	// terminates the chain.
	next []int32
	// The indexed rows: blocks when there are several, nil and one when
	// there is one.
	blocks []Block
	one    Block
	// base[b] is the number of block b's first row, and shift the bits
	// an entry gives the row within its block; both unused with one
	// block.
	base   []int32
	shift  uint
	keyIdx []int
	// exact records that the packed key is collision-free, so probe
	// matches need no column re-check.
	exact bool
	// sized1 and sizedN are the most rows a build has indexed through
	// head1 and headN since each was made: a map never shrinks, so this
	// is what its memory follows.
	sized1, sizedN int
}

// What one entry of a head map is taken to hold when a scratch index
// states its size: a Go map sized for n entries has between 8/7·n and
// 16/7·n slots, each the key and value padded to the key's alignment
// plus a control byte — 9 bytes under an ID key, 17 under a packed one —
// and the upper end is taken.
const (
	head1EntryBytes = 21
	headNEntryBytes = 39
)

// largestBuffer is the size in bytes of the largest buffer the index
// holds, a head map counting as one buffer at its estimated size.
func (ix *joinIndex) largestBuffer() int {
	return max(cap(ix.next)*4, ix.sized1*head1EntryBytes, ix.sizedN*headNEntryBytes)
}

// trim releases each buffer of the index larger than maxBytes, by
// largestBuffer's measure.
func (ix *joinIndex) trim(maxBytes int) {
	if ix.sized1*head1EntryBytes > maxBytes {
		ix.head1, ix.sized1 = nil, 0
	}
	if ix.sizedN*headNEntryBytes > maxBytes {
		ix.headN, ix.sizedN = nil, 0
	}
	if cap(ix.next)*4 > maxBytes {
		ix.next = nil
	}
}

// buildJoinIndex indexes the rows of blocks by the key columns. The
// index is read-only after construction and safe for concurrent
// probing; it keeps the blocks, not a copy.
func buildJoinIndex(blocks []Block, keyIdx []int) joinIndex {
	var ix joinIndex
	ix.build(blocks, keyIdx)
	return ix
}

// build (re)indexes the rows of blocks by the key columns in the storage
// ix already holds: the chain slice is re-sliced and the head map
// emptied, so an index rebuilt for partition after partition allocates
// only when one outgrows every earlier one. The zero joinIndex allocates
// both exactly sized.
func (ix *joinIndex) build(blocks []Block, keyIdx []int) {
	if len(blocks) == 1 {
		ix.buildOne(blocks[0], keyIdx)
		return
	}
	largest := 0
	for _, b := range blocks {
		largest = max(largest, b.n)
	}
	ix.shift = uint(bits.Len(uint(largest)))
	if uint64(len(blocks))<<ix.shift > math.MaxInt32 {
		// Entries cannot address this many blocks of this size: index one
		// copy of the rows instead.
		ix.buildOne(concatBlocks(blocks[0].width, blocks), keyIdx)
		return
	}
	ix.blocks = blocks
	ix.base = emptied(ix.base, len(blocks))
	g := 0
	for _, b := range blocks {
		ix.base = append(ix.base, int32(g))
		g += b.n
	}
	ix.index(keyIdx)
}

// buildOne is build over a single block.
func (ix *joinIndex) buildOne(b Block, keyIdx []int) {
	ix.blocks, ix.one = nil, b
	ix.index(keyIdx)
}

// nblocks and block enumerate the indexed blocks.
func (ix *joinIndex) nblocks() int {
	if ix.blocks == nil {
		return 1
	}
	return len(ix.blocks)
}

func (ix *joinIndex) block(bi int) Block {
	if ix.blocks == nil {
		return ix.one
	}
	return ix.blocks[bi]
}

// index fills the head map and the chain over the blocks build chose.
func (ix *joinIndex) index(keyIdx []int) {
	total := 0
	for bi := 0; bi < ix.nblocks(); bi++ {
		total += ix.block(bi).n
	}
	ix.keyIdx, ix.exact = keyIdx, len(keyIdx) <= 2
	// Every link is written below, so stale ones need no clearing.
	ix.next = emptied(ix.next, total)[:total]
	g := 0
	if len(keyIdx) == 1 {
		ix.sized1 = max(ix.sized1, total)
		if ix.head1 == nil {
			ix.head1 = make(map[rdf.ID]int32, total)
		} else {
			clear(ix.head1)
		}
		ki := keyIdx[0]
		for bi := 0; bi < ix.nblocks(); bi++ {
			b := ix.block(bi)
			for r := 0; r < b.n; r++ {
				k := b.ids[r*b.width+ki]
				ix.next[g] = ix.head1[k]
				ix.head1[k] = int32(bi<<ix.shift|r) + 1
				g++
			}
		}
		return
	}
	ix.sizedN = max(ix.sizedN, total)
	if ix.headN == nil {
		ix.headN = make(map[uint64]int32, total)
	} else {
		clear(ix.headN)
	}
	for bi := 0; bi < ix.nblocks(); bi++ {
		b := ix.block(bi)
		for r := 0; r < b.n; r++ {
			k, _ := packKey(b.Row(r), keyIdx)
			ix.next[g] = ix.headN[k]
			ix.headN[k] = int32(bi<<ix.shift|r) + 1
			g++
		}
	}
}

// first returns the head entry of the chain for probe row pr's key
// columns, or 0 when no build row shares the packed key.
func (ix *joinIndex) first(pr Row, probeIdx []int) int32 {
	if len(ix.keyIdx) == 1 {
		return ix.head1[pr[probeIdx[0]]]
	}
	k, _ := packKey(pr, probeIdx)
	return ix.headN[k]
}

// entry resolves chain entry i (non-zero) to its build row and the entry
// after it on the chain.
func (ix *joinIndex) entry(i int32) (row Row, next int32) {
	loc := int(i - 1)
	if ix.blocks == nil {
		return ix.one.Row(loc), ix.next[loc]
	}
	b, r := loc>>ix.shift, loc&(1<<ix.shift-1)
	return ix.blocks[b].Row(r), ix.next[int(ix.base[b])+r]
}

// match reports whether build row br genuinely matches pr, re-checking
// the key columns when the packed key is a lossy hash.
func (ix *joinIndex) match(br, pr Row, probeIdx []int) bool {
	return ix.exact || keysEqual(br, ix.keyIdx, pr, probeIdx)
}

// joinEmit is a probe's emission layout: which input the build side
// is, the output width and the emission index lists. A non-nil
// nullRight makes the probe a left outer one: the build side is the
// right (optional) input, and a probe row without a match emits once,
// padded with nullRight's NullIDs in the right-only columns.
type joinEmit struct {
	buildLeft    bool
	width        int
	lKeep, rKeep []int
	nullRight    Row
}

// appendTo emits the join of build row br and probe row pr, left
// columns first.
func (e *joinEmit) appendTo(arena *RowArena, br, pr Row) {
	lr, rr := br, pr
	if !e.buildLeft {
		lr, rr = pr, br
	}
	if e.lKeep == nil {
		arena.AppendJoin(lr, rr, e.rKeep)
	} else {
		arena.AppendJoinPruned(lr, rr, e.lKeep, e.rKeep)
	}
}

// countChain returns the number of genuine matches of pr on the chain
// starting at head.
func (ix *joinIndex) countChain(head int32, pr Row, probeIdx []int) int {
	n := 0
	for i := head; i != 0; {
		br, next := ix.entry(i)
		if ix.match(br, pr, probeIdx) {
			n++
		}
		i = next
	}
	return n
}

// emitChain appends the join of pr with every genuine match on the
// chain starting at head, in chain order, and returns how many it
// emitted. Every hash-join output row of the engine — inner or outer,
// materialized, sharded or streaming — is written by this loop.
func (ix *joinIndex) emitChain(head int32, pr Row, probeIdx []int, e *joinEmit, arena *RowArena) int {
	n := 0
	for i := head; i != 0; {
		br, next := ix.entry(i)
		if ix.match(br, pr, probeIdx) {
			e.appendTo(arena, br, pr)
			n++
		}
		i = next
	}
	return n
}

// headsPool recycles []int32 scratch — the chain heads of probeBatch
// calls that bring none, the kept row numbers of Block.Select — so a
// probe or a filter allocates nothing per input row.
var headsPool = sync.Pool{New: func() any { return new([]int32) }}

// probeBatch joins a batch of probe rows against the index,
// preserving probe-row order (then build-chain order). It counts
// before it fills: the first pass looks up every probe row's chain
// head and counts its matches, the second writes them into an arena
// sized for exactly that count, walking the remembered heads instead
// of hashing again. With a scratch the heads and the arena are its
// own, reused, and the result lives in s.Out until that is next used;
// with nil the heads are pooled and the output is one fresh, exactly
// sized allocation. A batch that emits nothing returns an empty block
// without allocating, so a selective probe costs memory for its output,
// not its input.
func (ix *joinIndex) probeBatch(probe Block, probeIdx []int, e *joinEmit, s *KernelScratch) Block {
	var heads []int32
	var arena RowArena
	out := &arena
	if s != nil {
		s.heads = emptied(s.heads, probe.n)
		heads, out = s.heads[:probe.n], &s.Out
	} else {
		hp := headsPool.Get().(*[]int32)
		defer headsPool.Put(hp)
		if cap(*hp) < probe.n {
			*hp = make([]int32, probe.n)
		}
		heads = (*hp)[:probe.n]
	}
	total := 0
	for k := range heads {
		pr := probe.Row(k)
		heads[k] = ix.first(pr, probeIdx)
		n := ix.countChain(heads[k], pr, probeIdx)
		if n == 0 && e.nullRight != nil {
			n = 1
		}
		total += n
	}
	if total == 0 {
		return emptyBlock(e.width)
	}
	out.Reset(e.width, total)
	for k, head := range heads {
		pr := probe.Row(k)
		if ix.emitChain(head, pr, probeIdx, e, out) == 0 && e.nullRight != nil {
			e.appendTo(out, e.nullRight, pr)
		}
	}
	return out.Block()
}

// rowSet is a chained hash set over whole rows, used by Distinct. Like
// joinIndex it allocates only its head map and chain, plus one flat
// buffer the inserted rows are copied into — so its rows are a block of
// its own, in first-seen order — and re-checks hashed (wide-row) keys
// column-wise so collisions never drop rows.
type rowSet struct {
	head   map[uint64]int32
	next   []int32
	rows   RowArena
	keyIdx []int
	// sized is the largest hint since head was made; see joinIndex.sized1.
	sized int
}

// newRowSet returns a set for rows of the given width, pre-sized for
// capHint insertions.
func newRowSet(width, capHint int) *rowSet {
	s := new(rowSet)
	s.reset(width, capHint)
	return s
}

// reset empties the set for rows of the given width and capHint
// insertions, keeping the storage it already has; the zero rowSet
// allocates each buffer at the hint.
func (s *rowSet) reset(width, capHint int) {
	s.keyIdx = emptied(s.keyIdx, width)
	for i := 0; i < width; i++ {
		s.keyIdx = append(s.keyIdx, i)
	}
	if s.head == nil {
		s.head = make(map[uint64]int32, capHint)
	} else {
		clear(s.head)
	}
	s.sized = max(s.sized, capHint)
	s.next = emptied(s.next, capHint)
	s.rows.Reset(width, capHint)
}

// largestBuffer is joinIndex.largestBuffer for the set.
func (s *rowSet) largestBuffer() int {
	return max(cap(s.next)*4, s.rows.largestBuffer(), s.sized*headNEntryBytes)
}

// insert adds a copy of r unless an equal row is already present,
// reporting whether r was new.
func (s *rowSet) insert(r Row) bool {
	k, exact := packKey(r, s.keyIdx)
	w := s.rows.width
	for i := s.head[k]; i != 0; i = s.next[i-1] {
		at := int(i-1) * w
		if exact || keysEqual(s.rows.buf[at:at+w], s.keyIdx, r, s.keyIdx) {
			return false
		}
	}
	s.rows.AppendCopy(r)
	s.next = append(s.next, s.head[k])
	s.head[k] = int32(s.rows.n)
	return true
}
