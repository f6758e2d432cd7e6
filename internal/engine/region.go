package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/rdf"
)

// Region is the memory for everything that dies with one query or one
// shard request: operator and kernel outputs, decoded row sections,
// permutations, hash-table heads and chains, scratch. A coordinator query
// owns one from QueryContext to its return; a shard server's request owns
// one from the decode of its first section to the write of its response
// frame. It hands out []rdf.ID buffers carved from slabs — pointer-free,
// so the collector never scans them — and Release gives every slab back
// at once. Carving is guarded by one mutex, because a query's stage
// tasks, streaming workers and shard fan-out goroutines all carve from it
// concurrently.
//
// Free slabs wait in a sync.Pool between queries, not in a list the
// region's owner keeps: a collection empties a pool, so memory a burst of
// queries needed is held only until the collector next runs, and the
// live heap after a collection is what the stored tables take.
//
// The lifetime rule: once Release is called nothing may point into the
// region, and nothing reachable from outside the query may point into
// it before — stored tables, results handed to a caller and anything
// kept past the query are never region memory. Buffers come back with
// whatever an earlier query left in them: callers write before they
// read. A nil *Region is the heap: every method allocates fresh,
// zeroed storage that the collector frees, which is how memory that
// outlives every query — stored tables, the baselines' runs, the
// row-slice adapters of compat.go — comes from the same kernels.
type Region struct {
	mu sync.Mutex
	// free is the unused tail of the slab small buffers are carved from,
	// and small the size of the last such slab taken.
	free  []rdf.ID
	small int
	// held is the last slab taken, the head of a chain through every
	// slab taken since — a list that costs nothing however long it gets.
	held *slab
}

// slab is one pooled buffer; its length is its size class's. next
// chains the slabs one region holds.
type slab struct {
	ids  []rdf.ID
	next *slab
}

const (
	// Small requests — up to 16 KiB — are carved side by side from
	// slabs of 4 KiB at first, each twice its predecessor up to 64 KiB,
	// so that a query needing little takes little from a pool the
	// collector has emptied. A larger request takes a slab of its own, of
	// the smallest class that holds it, whose tail then serves small
	// requests if it is longer than what is left of the current one.
	minSlabIDs  = 1 << 10
	maxSmallIDs = 1 << 14
	slabSmall   = maxSmallIDs / 4
	slabClasses = 17 // size classes minSlabIDs<<0 … minSlabIDs<<16 (256 MiB)
	// lineIDs is a cache line's worth of IDs, the carving granularity.
	lineIDs = 16
)

// slabPools holds the free slabs, one pool per size class.
var slabPools [slabClasses]sync.Pool

// PoisonID is what released slabs are filled with while the
// PoisonReleased test hook is on: an ID no dictionary holds, so a read of
// released memory fails to decode instead of returning a plausible row.
const PoisonID = rdf.ID(math.MaxUint32)

// poisonReleased is the PoisonReleased hook.
var poisonReleased atomic.Bool

// PoisonReleased is a test hook: while on, Release fills every slab it
// gives back with PoisonID, so a use after release shows up as a wrong
// row or a failed decode rather than passing by luck. It returns the
// previous setting.
func PoisonReleased(on bool) (was bool) { return poisonReleased.Swap(on) }

// Poisoning reports whether the PoisonReleased hook is on, for memory
// pooled outside this package that honours it too (the shard frames).
func Poisoning() bool { return poisonReleased.Load() }

// NewRegion returns an empty region; it takes no slab until asked.
func NewRegion() *Region { return new(Region) }

// IDs returns n IDs of region memory, capacity-clipped so that appending
// to them can never write into a neighbour. Their contents are whatever
// the slab held. Every buffer starts a cache line of its own, so that
// tasks filling neighbouring buffers at once do not contend for one. A
// nil region returns n zeroed IDs from the heap.
func (r *Region) IDs(n int) []rdf.ID {
	if r == nil {
		return make([]rdf.ID, n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A slab is a power of two of at least 4 KiB, which the allocator
	// aligns at least to a line, and is carved in whole lines, so every
	// buffer starts on a line.
	size := (n + lineIDs - 1) &^ (lineIDs - 1)
	if size > len(r.free) {
		if size > slabSmall {
			s := r.take(size)
			if len(s)-size <= len(r.free) {
				return s[:n:n]
			}
			r.free = s
		} else {
			r.small = min(max(2*r.small, minSlabIDs), maxSmallIDs)
			r.free = r.take(max(r.small, size))
		}
	}
	out := r.free[:n:n]
	r.free = r.free[size:]
	return out
}

// take returns a slab of at least n IDs — a pooled one of the smallest
// class that holds n when there is one — and records it for Release. A
// request beyond the largest class gets heap storage of its own, which
// the collector frees.
func (r *Region) take(n int) []rdf.ID {
	c := slabClass(n)
	if c >= slabClasses {
		return make([]rdf.ID, n)
	}
	s, _ := slabPools[c].Get().(*slab)
	if s == nil {
		s = &slab{ids: make([]rdf.ID, minSlabIDs<<c)}
	}
	s.next, r.held = r.held, s
	return s.ids
}

// Release returns every slab to the pools. The caller guarantees that
// nothing reads or writes region memory any more; the region itself is
// empty afterwards and may be used again. A nil region releases nothing.
func (r *Region) Release() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	poison := poisonReleased.Load()
	for s := r.held; s != nil; {
		if poison {
			for j := range s.ids {
				s.ids[j] = PoisonID
			}
		}
		next := s.next
		s.next = nil
		slabPools[slabClass(len(s.ids))].Put(s)
		s = next
	}
	r.held, r.free, r.small = nil, nil, 0
}

// slabClass is the smallest size class whose slabs hold n IDs.
func slabClass(n int) int {
	c := 0
	for minSlabIDs<<c < n {
		c++
	}
	return c
}

// int32s returns n int32s of region memory (heap when r is nil): row
// numbers, chain links, hash-table entries. They share a slab with the
// IDs, viewed as int32s — the same size and alignment.
func (r *Region) int32s(n int) []int32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(r.IDs(n)))), n)
}

// grow32 returns s with room for at least one more element, grown
// through r (the heap when nil) by doubling.
func grow32(r *Region, s []int32) []int32 {
	if len(s) < cap(s) {
		return s
	}
	g := r.int32s(max(2*cap(s), 16))[:len(s)]
	copy(g, s)
	return g
}
