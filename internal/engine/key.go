package engine

import (
	"sync"
	"unsafe"

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
// join. Building one costs two allocations total (the head map and the
// chain slice) regardless of row count or key cardinality — no string
// keys, no per-key bucket slices. Chains store 1-based row indexes so
// the zero value of a map lookup doubles as "no entry".
type joinIndex struct {
	// head1 serves the single-column fast path, keyed directly on the
	// dictionary ID.
	head1 map[rdf.ID]int32
	// headN serves multi-column keys, packed (two columns) or hashed
	// (three or more) into a uint64.
	headN map[uint64]int32
	// next[i] links row i to the previous row inserted with the same
	// packed key; 0 terminates the chain.
	next   []int32
	rows   []Row
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

// buildJoinIndex indexes rows by the key columns. The index is
// read-only after construction and safe for concurrent probing.
func buildJoinIndex(rows []Row, keyIdx []int) joinIndex {
	var ix joinIndex
	ix.build(rows, keyIdx)
	return ix
}

// build (re)indexes rows by the key columns in the storage ix already
// holds: the chain slice is re-sliced and the head map emptied, so an
// index rebuilt for partition after partition allocates only when one
// outgrows every earlier one. The zero joinIndex allocates both exactly
// sized.
func (ix *joinIndex) build(rows []Row, keyIdx []int) {
	ix.rows, ix.keyIdx, ix.exact = rows, keyIdx, len(keyIdx) <= 2
	// Every link is written below, so stale ones need no clearing.
	ix.next = emptied(ix.next, len(rows))[:len(rows)]
	if len(keyIdx) == 1 {
		ix.sized1 = max(ix.sized1, len(rows))
		if ix.head1 == nil {
			ix.head1 = make(map[rdf.ID]int32, len(rows))
		} else {
			clear(ix.head1)
		}
		ki := keyIdx[0]
		for i, r := range rows {
			k := r[ki]
			ix.next[i] = ix.head1[k]
			ix.head1[k] = int32(i + 1)
		}
		return
	}
	ix.sizedN = max(ix.sizedN, len(rows))
	if ix.headN == nil {
		ix.headN = make(map[uint64]int32, len(rows))
	} else {
		clear(ix.headN)
	}
	for i, r := range rows {
		k, _ := packKey(r, keyIdx)
		ix.next[i] = ix.headN[k]
		ix.headN[k] = int32(i + 1)
	}
}

// first returns the 1-based head of the chain for probe row pr's key
// columns, or 0 when no build row shares the packed key.
func (ix *joinIndex) first(pr Row, probeIdx []int) int32 {
	if len(ix.keyIdx) == 1 {
		return ix.head1[pr[probeIdx[0]]]
	}
	k, _ := packKey(pr, probeIdx)
	return ix.headN[k]
}

// match reports whether chain entry i (1-based) genuinely matches pr,
// re-checking the key columns when the packed key is a lossy hash.
func (ix *joinIndex) match(i int32, pr Row, probeIdx []int) bool {
	return ix.exact || keysEqual(ix.rows[i-1], ix.keyIdx, pr, probeIdx)
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
	for i := head; i != 0; i = ix.next[i-1] {
		if ix.match(i, pr, probeIdx) {
			n++
		}
	}
	return n
}

// emitChain appends the join of pr with every genuine match on the
// chain starting at head, in chain order, and returns how many it
// emitted. Every hash-join output row of the engine — inner or outer,
// materialized, sharded or streaming — is written by this loop.
func (ix *joinIndex) emitChain(head int32, pr Row, probeIdx []int, e *joinEmit, arena *RowArena) int {
	n := 0
	for i := head; i != 0; i = ix.next[i-1] {
		if ix.match(i, pr, probeIdx) {
			e.appendTo(arena, ix.rows[i-1], pr)
			n++
		}
	}
	return n
}

// headsPool recycles the chain-head scratch of probeBatch calls that
// bring none, so a probe allocates nothing per probe row.
var headsPool = sync.Pool{New: func() any { return new([]int32) }}

// probeBatch joins a batch of probe rows against the index,
// preserving probe-row order (then build-chain order). It counts
// before it fills: the first pass looks up every probe row's chain
// head and counts its matches, the second writes them into an arena
// sized for exactly that count, walking the remembered heads instead
// of hashing again. With a scratch the heads and the arena are its
// own, reused, and the result lives in s.Out until that is next used;
// with nil the heads are pooled and the arena is fresh. A batch that
// emits nothing returns nil without allocating, so a selective probe
// costs memory for its output, not its input.
func (ix *joinIndex) probeBatch(probe []Row, probeIdx []int, e *joinEmit, s *KernelScratch) []Row {
	var heads []int32
	arena := new(RowArena)
	if s != nil {
		s.heads = emptied(s.heads, len(probe))
		heads, arena = s.heads[:len(probe)], &s.Out
	} else {
		hp := headsPool.Get().(*[]int32)
		defer headsPool.Put(hp)
		if cap(*hp) < len(probe) {
			*hp = make([]int32, len(probe))
		}
		heads = (*hp)[:len(probe)]
	}
	total := 0
	for k, pr := range probe {
		heads[k] = ix.first(pr, probeIdx)
		n := ix.countChain(heads[k], pr, probeIdx)
		if n == 0 && e.nullRight != nil {
			n = 1
		}
		total += n
	}
	if total == 0 {
		return nil
	}
	arena.Reset(e.width, total)
	for k, pr := range probe {
		if ix.emitChain(heads[k], pr, probeIdx, e, arena) == 0 && e.nullRight != nil {
			e.appendTo(arena, e.nullRight, pr)
		}
	}
	return arena.Rows()
}

// rowSet is a chained hash set over whole rows, used by Distinct. Like
// joinIndex it allocates only its head map and chain, and re-checks
// hashed (wide-row) keys column-wise so collisions never drop rows.
type rowSet struct {
	head   map[uint64]int32
	next   []int32
	rows   []Row
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
	s.rows = emptied(s.rows, capHint)
}

// largestBuffer is joinIndex.largestBuffer for the set.
func (s *rowSet) largestBuffer() int {
	return max(cap(s.next)*4, cap(s.rows)*int(unsafe.Sizeof(Row(nil))), s.sized*headNEntryBytes)
}

// insert adds r unless an equal row is already present, reporting
// whether r was new. Inserted rows are retained (not copied) in
// first-seen order; see rows.
func (s *rowSet) insert(r Row) bool {
	k, exact := packKey(r, s.keyIdx)
	for i := s.head[k]; i != 0; i = s.next[i-1] {
		if exact || keysEqual(s.rows[i-1], s.keyIdx, r, s.keyIdx) {
			return false
		}
	}
	s.rows = append(s.rows, r)
	s.next = append(s.next, s.head[k])
	s.head[k] = int32(len(s.rows))
	return true
}
