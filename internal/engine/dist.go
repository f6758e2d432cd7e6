package engine

// This file is the engine's distributed-execution seam. Exchange
// operators (shuffle join, broadcast join, cartesian, distinct)
// compute their shuffle layout exactly as in single-process execution,
// then — when an Exchanger is installed on the Exec — delegate the
// per-partition kernels to remote shard processes and adopt the
// returned rows as the stage output. The kernels below are the exact
// functions the local closures run, so a shard executing them over the
// same fragments produces bit-identical partitions, and every stage's
// TaskStats are computed from coordinator-known values (fragment
// lengths and returned row counts) — SimTime is invariant under where
// the kernels physically ran. Every spec carries Node, the ID of the
// plan operator the exchange executes (Exec.Node).

// ShuffleSpec describes the partition-wise hash-join kernel of a
// shuffle join whose fragments were already routed by the coordinator.
type ShuffleSpec struct {
	Node         int
	Name         string
	LKey, RKey   []int
	OutWidth     int
	LKeep, RKeep []int
	// PricedBytes is the cost model's network charge for this exchange
	// (the moved bytes both sides pay), recorded for calibration.
	PricedBytes int64
	// LMovedBytes and RMovedBytes split PricedBytes per side. A side the
	// model charged zero for (already aligned on the join key) still
	// crosses the wire in coordinator mode — the relation lives
	// coordinator-side — but that relay traffic must not count against
	// the model's price, so the Exchanger uses these to classify each
	// side's payload as measured shuffle or relay.
	LMovedBytes, RMovedBytes int64
}

// BroadcastSpec describes a broadcast hash join: the build side ships
// whole, the probe side stays put.
type BroadcastSpec struct {
	Node               int
	Name               string
	BuildKey, ProbeKey []int
	BuildIsLeft        bool
	OutWidth           int
	LKeep, RKeep       []int
	PricedBytes        int64
}

// CartesianSpec describes a cross product via broadcast of the small
// side.
type CartesianSpec struct {
	Node         int
	Name         string
	SmallIsLeft  bool
	OutWidth     int
	LKeep, RKeep []int
	PricedBytes  int64
}

// DistinctSpec describes a post-shuffle dedup kernel.
type DistinctSpec struct {
	Node        int
	Width       int
	PricedBytes int64
}

// Exchanger runs exchange kernels on remote shards. Implementations
// must return exactly len(input-partitions) output partitions with the
// same rows the local kernels would produce; internal/shard's
// coordinator session is the production implementation.
//
// The side that ships whole to every shard (a broadcast join's build
// side, a cartesian product's small side) is passed as the relation's
// blocks; it travels as one row section, their rows in order.
type Exchanger interface {
	ShuffleJoin(spec ShuffleSpec, lParts, rParts []Block) ([]Block, error)
	BroadcastJoin(spec BroadcastSpec, build []Block, probeParts []Block) ([]Block, error)
	Cartesian(spec CartesianSpec, small []Block, largeParts []Block) ([]Block, error)
	Distinct(spec DistinctSpec, parts []Block) ([]Block, error)
}

// KernelScratch is storage a caller lends the partition kernels, so that
// a loop over many partitions — a shard server working through a
// request — allocates for the largest of them once instead of for each:
// every call empties and refills the output arena, a hash index or the
// dedup set. A kernel's result aliases the scratch (and, as always, the
// input blocks) and is valid until the next call on it. The zero
// KernelScratch is ready to use. Every kernel also runs on a nil
// *KernelScratch, in fresh, exactly sized heap storage that the result
// keeps: the row-slice adapters (compat.go) run them that way. The
// in-process operators run the same kernels in their query's Region
// instead, where every call's output is fresh region memory. Not safe for
// concurrent use.
type KernelScratch struct {
	// Out is the arena output rows are emitted into, exposed so a caller's
	// own per-partition producers (scans) can share it.
	Out RowArena
	// heads is probeBatch's memory between its two passes.
	heads []int32
	// ix is the hash index: Build's, probed by Probe, or JoinPartition's,
	// rebuilt by every call. Rebuilding empties only as much of the head
	// table as the new build needs.
	ix   joinIndex
	seen rowSet
}

// LargestBuffer is the size in bytes of the largest single buffer the
// scratch holds.
func (s *KernelScratch) LargestBuffer() int {
	return max(s.Out.largestBuffer(), cap(s.heads)*4, s.ix.largestBuffer(), s.seen.largestBuffer())
}

// Trim releases every buffer of the scratch larger than maxBytes (the
// dedup set's buffers go together), for owners that bound what they keep
// between uses.
func (s *KernelScratch) Trim(maxBytes int) {
	if s.Out.largestBuffer() > maxBytes {
		s.Out = RowArena{}
	}
	if cap(s.heads)*4 > maxBytes {
		s.heads = nil
	}
	s.ix.trim(maxBytes)
	if s.seen.largestBuffer() > maxBytes {
		s.seen = rowSet{}
	}
}

// JoinPartition hash-joins one shuffle partition: the smaller side (by
// row count; left on ties) becomes the build side, and output rows keep
// left-to-right column order.
func (s *KernelScratch) JoinPartition(l, r Block, lKey, rKey []int, outWidth int, lKeep, rKeep []int) Block {
	return joinPartition(nil, s, l, r, lKey, rKey, outWidth, lKeep, rKeep)
}

// joinPartition is JoinPartition in reg, or, with a nil reg, in s's
// storage (fresh heap storage when s is nil too).
func joinPartition(reg *Region, s *KernelScratch, l, r Block, lKey, rKey []int, outWidth int, lKeep, rKeep []int) Block {
	build, probe := l, r
	buildKey, probeKey := lKey, rKey
	buildIsLeft := true
	if probe.n < build.n {
		build, probe = probe, build
		buildKey, probeKey = probeKey, buildKey
		buildIsLeft = false
	}
	var fresh joinIndex
	ix := &fresh
	if s != nil {
		ix = &s.ix
	}
	ix.buildOne(reg, build, buildKey)
	return ix.probeBatch(reg, probe, probeKey, &joinEmit{buildLeft: buildIsLeft, width: outWidth, lKeep: lKeep, rKeep: rKeep}, s)
}

// Build indexes a join's build side — its blocks, in order — on the key
// columns for the Probe calls that follow: once per broadcast join,
// whose every partition probes the same side.
func (s *KernelScratch) Build(build []Block, buildKey []int) { s.ix.build(nil, build, buildKey) }

// Probe joins probe against the side last given to Build, preserving
// probe-row order (then build-chain order), exactly as the in-process
// broadcast join does.
func (s *KernelScratch) Probe(probe Block, probeKey []int, buildIsLeft bool, outWidth int, lKeep, rKeep []int) Block {
	return s.ix.probeBatch(nil, probe, probeKey, &joinEmit{buildLeft: buildIsLeft, width: outWidth, lKeep: lKeep, rKeep: rKeep}, s)
}

// Cartesian crosses one partition of the large side with the whole
// broadcast small side — its blocks, in order — in the local operator's
// emission order.
func (s *KernelScratch) Cartesian(large Block, small []Block, smallIsLeft bool, outWidth int, lKeep, rKeep []int) Block {
	var fresh RowArena
	arena := &fresh
	if s != nil {
		arena = &s.Out
	}
	return cartesian(arena, large, small, smallIsLeft, outWidth, lKeep, rKeep)
}

// cartesian is the Cartesian kernel into arena (Reset here).
func cartesian(arena *RowArena, large Block, small []Block, smallIsLeft bool, outWidth int, lKeep, rKeep []int) Block {
	// The output cardinality is exact, so the arena never regrows.
	arena.Reset(outWidth, large.n*totalRows(small))
	for i := 0; i < large.n; i++ {
		lr := large.Row(i)
		for _, sb := range small {
			for j := 0; j < sb.n; j++ {
				l, r := sb.Row(j), lr
				if !smallIsLeft {
					l, r = r, l
				}
				if lKeep == nil {
					arena.AppendConcat(l, r)
				} else {
					arena.AppendJoinPruned(l, r, lKeep, rKeep)
				}
			}
		}
	}
	return arena.Block()
}

// Distinct dedups one shuffled partition, keeping first-seen row order
// like the local distinct closure.
func (s *KernelScratch) Distinct(rows Block, width int) Block {
	var fresh rowSet
	seen := &fresh
	if s != nil {
		seen = &s.seen
	}
	return distinct(nil, seen, rows, width)
}

// distinct is the Distinct kernel over seen, reset in r (or, with a nil
// r, in its own storage).
func distinct(r *Region, seen *rowSet, rows Block, width int) Block {
	seen.reset(r, width, rows.n)
	for i := 0; i < rows.n; i++ {
		seen.insert(rows.Row(i))
	}
	return seen.rows.Block()
}
