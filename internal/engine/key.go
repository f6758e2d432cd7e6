package engine

import (
	"math"
	"math/bits"

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

// headTable maps a packed key to the entry heading its chain. It is
// open-addressed and linearly probed, and a slot holds the key — one ID
// for a one-column key, its low and high words for a packed or hashed
// one — then the entry, 0 while the slot is free: a lookup that misses
// reads the table and nothing else, never a row. It is at most two
// thirds full, and it is one []rdf.ID, carved from a region (the heap
// when nil).
type headTable struct {
	slots []rdf.ID
	// words is a slot's size in IDs: the key's, plus the entry.
	words int
	// shift turns a key's multiplicative hash into a slot number — 64
	// minus log2 of the slot count — and mask wraps a slot number past
	// the last.
	shift uint
	mask  int
	// used counts the occupied slots, for a table that grows.
	used int
}

// smallTable is the slot count up to which a table is kept at most a
// third full: a table that stays in cache costs what its probes touch,
// so short probe runs pay, while a large one costs its cache misses,
// which a lower load does not save, and its memory.
const smallTable = 1 << 14

// reset empties the table for up to n keys of keyWords IDs each (1 or
// 2), in r.
func (t *headTable) reset(r *Region, n, keyWords int) {
	size := 2
	for size < n+n/2 || size < 3*n && size < smallTable {
		size <<= 1
	}
	t.words = keyWords + 1
	t.slots = r.IDs(size * t.words)
	clear(t.slots)
	t.shift, t.mask = uint(64-bits.TrailingZeros(uint(size))), size-1
	t.used = 0
}

// find returns the offset of the slot holding key, or of the free slot
// where it goes.
func (t *headTable) find(key uint64) int {
	lo, hi := rdf.ID(key), rdf.ID(key>>32)
	i := int((key * 0x9E3779B97F4A7C15) >> t.shift)
	if t.words == 2 {
		for ; ; i = (i + 1) & t.mask {
			if at := 2 * i; t.slots[at+1] == 0 || t.slots[at] == lo {
				return at
			}
		}
	}
	for ; ; i = (i + 1) & t.mask {
		if at := 3 * i; t.slots[at+2] == 0 || t.slots[at] == lo && t.slots[at+1] == hi {
			return at
		}
	}
}

// get returns key's entry, 0 when no entry has the key.
func (t *headTable) get(key uint64) int32 {
	return int32(t.slots[t.find(key)+t.words-1])
}

// push makes e the entry of key and returns the entry it displaces (0
// when the key is new), which the caller chains behind e.
func (t *headTable) push(key uint64, e int32) int32 {
	at := t.find(key)
	s := t.slots[at : at+t.words]
	prev := int32(s[len(s)-1])
	if prev == 0 {
		s[0] = rdf.ID(key)
		if len(s) == 3 {
			s[1] = rdf.ID(key >> 32)
		}
		t.used++
	}
	s[len(s)-1] = rdf.ID(e)
	return prev
}

// grow doubles the table, in r, when one more key would fill it past
// two thirds — for a table whose key count is not known when it is
// reset.
func (t *headTable) grow(r *Region) {
	w, size := t.words, t.mask+1
	if 3*(t.used+1) <= 2*size {
		return
	}
	old := t.slots
	t.slots = r.IDs(2 * size * w)
	clear(t.slots)
	t.shift, t.mask = t.shift-1, 2*size-1
	t.used = 0
	for at := 0; at < len(old); at += w {
		if e := old[at+w-1]; e != 0 {
			key := uint64(old[at])
			if w == 3 {
				key |= uint64(old[at+1]) << 32
			}
			t.push(key, int32(e))
		}
	}
}

// keyWords is how many IDs a head-table slot needs for a key over n
// columns: one column's ID is the key, anything else packs or hashes to
// 64 bits.
func keyWords(n int) int {
	if n == 1 {
		return 1
	}
	return 2
}

// joinIndex is a chained hash index over the build side of a hash
// join, the side's blocks indexed where they lie — however many there
// are, with no row gathered. It is two buffers whatever the row count or
// key cardinality — the head table and the chain — plus the block
// offsets when the side spans several blocks, all carved from the
// query's region when it has one. An entry locates one build row: with
// one block it is the row number plus one (so 0 can mean "no entry"),
// with several the block number sits above shift bits of row number.
//
// One block is held in one, not in a slice, so that indexing a single
// partition needs no slice of blocks made for it.
type joinIndex struct {
	// heads maps each packed key to the newest entry with that key.
	heads headTable
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
}

// buildJoinIndex indexes the rows of blocks by the key columns, in r
// (the heap when nil). The index is read-only after construction and
// safe for concurrent probing; it keeps the blocks, not a copy.
func buildJoinIndex(r *Region, blocks []Block, keyIdx []int) joinIndex {
	var ix joinIndex
	ix.build(r, blocks, keyIdx)
	return ix
}

// build indexes the rows of blocks by the key columns, in r.
func (ix *joinIndex) build(r *Region, blocks []Block, keyIdx []int) {
	if len(blocks) == 1 {
		ix.buildOne(r, blocks[0], keyIdx)
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
		ix.buildOne(r, concatBlocks(r, blocks[0].width, blocks), keyIdx)
		return
	}
	ix.blocks = blocks
	ix.base = r.int32s(len(blocks))[:0]
	g := 0
	for _, b := range blocks {
		ix.base = append(ix.base, int32(g))
		g += b.n
	}
	ix.index(r, keyIdx)
}

// buildOne is build over a single block.
func (ix *joinIndex) buildOne(r *Region, b Block, keyIdx []int) {
	ix.blocks, ix.one = nil, b
	ix.index(r, keyIdx)
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

// index fills the head table and the chain over the blocks build chose.
func (ix *joinIndex) index(r *Region, keyIdx []int) {
	total := 0
	for bi := 0; bi < ix.nblocks(); bi++ {
		total += ix.block(bi).n
	}
	ix.keyIdx, ix.exact = keyIdx, len(keyIdx) <= 2
	// Every link is written below, so stale ones need no clearing.
	ix.next = r.int32s(total)
	ix.heads.reset(r, total, keyWords(len(keyIdx)))
	g := 0
	for bi := 0; bi < ix.nblocks(); bi++ {
		b := ix.block(bi)
		for row := 0; row < b.n; row++ {
			k, _ := packKey(b.Row(row), keyIdx)
			ix.next[g] = ix.heads.push(k, int32(bi<<ix.shift|row)+1)
			g++
		}
	}
}

// first returns the head entry of the chain for probe row pr's key
// columns, or 0 when no build row shares the packed key.
func (ix *joinIndex) first(pr Row, probeIdx []int) int32 {
	k, _ := packKey(pr, probeIdx)
	return ix.heads.get(k)
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

// probeBatch joins a batch of probe rows against the index,
// preserving probe-row order (then build-chain order). It counts
// before it fills: the first pass looks up every probe row's chain
// head and counts its matches, the second writes them into an arena
// sized for exactly that count, walking the remembered heads instead
// of hashing again. Both are carved from r — fresh heap storage when r
// is nil, the output one exactly sized allocation. A batch that emits
// nothing returns an empty block, so a selective probe costs memory for
// its output, not its input.
func (ix *joinIndex) probeBatch(r *Region, probe Block, probeIdx []int, e *joinEmit) Block {
	heads := r.int32s(probe.n)
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
	out := r.Arena(e.width, total)
	for k, head := range heads {
		pr := probe.Row(k)
		if ix.emitChain(head, pr, probeIdx, e, &out) == 0 && e.nullRight != nil {
			e.appendTo(&out, e.nullRight, pr)
		}
	}
	return out.Block()
}

// rowSet is a chained hash set over whole rows, used by Distinct and, over
// group keys, by GroupTable. Like joinIndex it is a head table and a
// chain, plus one flat buffer the inserted rows are copied into — so its
// rows are a block of its own, in first-seen order — and it re-checks
// hashed (wide-row) keys column-wise so collisions never drop rows. In a
// region every buffer grows there, so a set sized for no rows may take
// any number.
type rowSet struct {
	heads  headTable
	next   []int32
	rows   RowArena
	keyIdx []int
}

// firstCols is 0, 1, 2, …: a whole-row key's column list is a prefix of
// it, shared read-only, for every width but the widest.
var firstCols = func() (cols [64]int) {
	for i := range cols {
		cols[i] = i
	}
	return cols
}()

// reset empties the set for rows of the given width and capHint
// insertions, in r.
func (s *rowSet) reset(r *Region, width, capHint int) {
	if width <= len(firstCols) {
		s.keyIdx = firstCols[:width:width]
	} else {
		s.keyIdx = make([]int, width)
		for i := range s.keyIdx {
			s.keyIdx[i] = i
		}
	}
	s.heads.reset(r, capHint, keyWords(width))
	s.next = r.int32s(capHint)[:0]
	s.rows = r.Arena(width, capHint)
}

// insert adds a copy of r unless an equal row is already present. It
// returns the row's number in the set — first-seen order, from 0 — and
// whether r was new.
func (s *rowSet) insert(r Row) (row int, added bool) {
	k, exact := packKey(r, s.keyIdx)
	w := s.rows.width
	for i := s.heads.get(k); i != 0; i = s.next[i-1] {
		at := int(i-1) * w
		if exact || keysEqual(s.rows.buf[at:at+w], s.keyIdx, r, s.keyIdx) {
			return int(i - 1), false
		}
	}
	reg := s.rows.region
	s.heads.grow(reg)
	s.rows.Grow(1)
	s.rows.AppendCopy(r)
	s.next = append(grow32(reg, s.next), s.heads.push(k, int32(s.rows.n)))
	return s.rows.n - 1, true
}
