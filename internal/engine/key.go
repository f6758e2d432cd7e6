package engine

import (
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
}

// buildJoinIndex indexes rows by the key columns. The index is
// read-only after construction and safe for concurrent probing.
func buildJoinIndex(rows []Row, keyIdx []int) joinIndex {
	ix := joinIndex{
		next:   make([]int32, len(rows)),
		rows:   rows,
		keyIdx: keyIdx,
		exact:  len(keyIdx) <= 2,
	}
	if len(keyIdx) == 1 {
		ix.head1 = make(map[rdf.ID]int32, len(rows))
		ki := keyIdx[0]
		for i, r := range rows {
			k := r[ki]
			ix.next[i] = ix.head1[k]
			ix.head1[k] = int32(i + 1)
		}
		return ix
	}
	ix.headN = make(map[uint64]int32, len(rows))
	for i, r := range rows {
		k, _ := packKey(r, keyIdx)
		ix.next[i] = ix.headN[k]
		ix.headN[k] = int32(i + 1)
	}
	return ix
}

// first returns the 1-based head of the chain for probe row pr's key
// columns, or 0 when no build row shares the packed key.
func (ix *joinIndex) first(pr Row, probeIdx []int) int32 {
	if ix.head1 != nil {
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

// headsPool recycles probeBatch's chain-head scratch, so a probe
// allocates nothing per probe row.
var headsPool = sync.Pool{New: func() any { return new([]int32) }}

// probeBatch joins a batch of probe rows against the index,
// preserving probe-row order (then build-chain order). It counts
// before it fills: the first pass looks up every probe row's chain
// head and counts its matches, the second writes them into an arena
// allocated at exactly that count, walking the remembered heads
// instead of hashing again. A batch that emits nothing returns nil
// without allocating, so a selective probe costs memory for its
// output, not its input.
func (ix *joinIndex) probeBatch(probe []Row, probeIdx []int, e *joinEmit) []Row {
	hp := headsPool.Get().(*[]int32)
	defer headsPool.Put(hp)
	if cap(*hp) < len(probe) {
		*hp = make([]int32, len(probe))
	}
	heads := (*hp)[:len(probe)]
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
	arena := NewRowArena(e.width, total)
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
}

// newRowSet returns a set for rows of the given width, pre-sized for
// capHint insertions.
func newRowSet(width, capHint int) *rowSet {
	keyIdx := make([]int, width)
	for i := range keyIdx {
		keyIdx[i] = i
	}
	return &rowSet{
		head:   make(map[uint64]int32, capHint),
		next:   make([]int32, 0, capHint),
		rows:   make([]Row, 0, capHint),
		keyIdx: keyIdx,
	}
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
