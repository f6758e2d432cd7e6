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
type Exchanger interface {
	ShuffleJoin(spec ShuffleSpec, lParts, rParts [][]Row) ([][]Row, error)
	BroadcastJoin(spec BroadcastSpec, buildRows []Row, probeParts [][]Row) ([][]Row, error)
	Cartesian(spec CartesianSpec, smallRows []Row, largeParts [][]Row) ([][]Row, error)
	Distinct(spec DistinctSpec, parts [][]Row) ([][]Row, error)
}

// KernelScratch is storage a caller lends the partition kernels, so that
// a loop over many partitions — a shard server working through a
// request — allocates for the largest of them once instead of for each:
// every call empties and refills the output arena, a hash index or the
// dedup set. A kernel's result aliases the scratch (and, as always, the
// input rows) and is valid until the next call on it. The zero
// KernelScratch is ready to use. Every kernel also runs on a nil
// *KernelScratch, in fresh, exactly sized storage that the result keeps:
// the one-shot kernels below are that. Not safe for concurrent use.
type KernelScratch struct {
	// Out is the arena output rows are emitted into, exposed so a caller's
	// own per-partition producers (scans) can share it.
	Out RowArena
	// heads is probeBatch's memory between its two passes.
	heads []int32
	// whole is Build's index, probed by Probe; part is JoinPartition's,
	// rebuilt by every call. They are two because emptying a head map
	// costs what its largest build did: a partition's build must not pay
	// for a broadcast side's.
	whole, part joinIndex
	seen        rowSet
}

// LargestBuffer is the size in bytes of the largest single buffer the
// scratch holds, a head map counting as one at its estimated size.
func (s *KernelScratch) LargestBuffer() int {
	return max(s.Out.largestBuffer(), cap(s.heads)*4, s.whole.largestBuffer(), s.part.largestBuffer(), s.seen.largestBuffer())
}

// Trim releases every buffer of the scratch larger than maxBytes (the
// output arena's two and the dedup set's go together), for owners that
// bound what they keep between uses.
func (s *KernelScratch) Trim(maxBytes int) {
	if s.Out.largestBuffer() > maxBytes {
		s.Out = RowArena{}
	}
	if cap(s.heads)*4 > maxBytes {
		s.heads = nil
	}
	s.whole.trim(maxBytes)
	s.part.trim(maxBytes)
	if s.seen.largestBuffer() > maxBytes {
		s.seen = rowSet{}
	}
}

// JoinPartition hash-joins one shuffle partition: the smaller side (by
// row count; left on ties) becomes the build side, and output rows keep
// left-to-right column order.
func (s *KernelScratch) JoinPartition(lRows, rRows []Row, lKey, rKey []int, outWidth int, lKeep, rKeep []int) []Row {
	build, probe := lRows, rRows
	buildKey, probeKey := lKey, rKey
	buildIsLeft := true
	if len(probe) < len(build) {
		build, probe = probe, build
		buildKey, probeKey = probeKey, buildKey
		buildIsLeft = false
	}
	ix := new(joinIndex)
	if s != nil {
		ix = &s.part
	}
	ix.build(build, buildKey)
	return ix.probeBatch(probe, probeKey, &joinEmit{buildLeft: buildIsLeft, width: outWidth, lKeep: lKeep, rKeep: rKeep}, s)
}

// Build indexes a join's build side on the key columns for the Probe
// calls that follow: once per broadcast join, whose every partition
// probes the same side. (The one-shot form is NewJoinProbe.)
func (s *KernelScratch) Build(buildRows []Row, buildKey []int) { s.whole.build(buildRows, buildKey) }

// Probe is JoinProbe.Probe against the side last given to Build.
func (s *KernelScratch) Probe(probeRows []Row, probeKey []int, buildIsLeft bool, outWidth int, lKeep, rKeep []int) []Row {
	return s.whole.probeBatch(probeRows, probeKey, &joinEmit{buildLeft: buildIsLeft, width: outWidth, lKeep: lKeep, rKeep: rKeep}, s)
}

// Cartesian crosses one partition of the large side with the whole
// broadcast small side, in the local operator's emission order.
func (s *KernelScratch) Cartesian(largeRows, smallRows []Row, smallIsLeft bool, outWidth int, lKeep, rKeep []int) []Row {
	arena := new(RowArena)
	if s != nil {
		arena = &s.Out
	}
	// The output cardinality is exact, so the arena never regrows.
	arena.Reset(outWidth, len(largeRows)*len(smallRows))
	for _, lr := range largeRows {
		for _, sr := range smallRows {
			l, r := sr, lr
			if !smallIsLeft {
				l, r = lr, sr
			}
			if lKeep == nil {
				arena.AppendConcat(l, r)
			} else {
				arena.AppendJoinPruned(l, r, lKeep, rKeep)
			}
		}
	}
	return arena.Rows()
}

// Distinct dedups one shuffled partition, keeping first-seen row order
// like the local distinct closure.
func (s *KernelScratch) Distinct(rows []Row, width int) []Row {
	seen := new(rowSet)
	if s != nil {
		seen = &s.seen
	}
	seen.reset(width, len(rows))
	for _, r := range rows {
		seen.insert(r)
	}
	return seen.rows
}

// JoinPartitionKernel is the exact kernel shuffleJoin runs locally,
// exported so shard processes reproduce its output bit for bit.
func JoinPartitionKernel(lRows, rRows []Row, lKey, rKey []int, outWidth int, lKeep, rKeep []int) []Row {
	return (*KernelScratch)(nil).JoinPartition(lRows, rRows, lKey, rKey, outWidth, lKeep, rKeep)
}

// JoinProbe is a hash index over a join's build side, read-only once
// built: the in-process broadcast join builds it once and its partition
// tasks probe it concurrently.
type JoinProbe struct {
	ix joinIndex
}

// NewJoinProbe indexes buildRows on the key columns.
func NewJoinProbe(buildRows []Row, buildKey []int) *JoinProbe {
	return &JoinProbe{ix: buildJoinIndex(buildRows, buildKey)}
}

// Probe emits the join of probeRows against the indexed build side,
// preserving probe-row order (then build-chain order), exactly as the
// in-process join closures do.
func (jp *JoinProbe) Probe(probeRows []Row, probeKey []int, buildIsLeft bool, outWidth int, lKeep, rKeep []int) []Row {
	return jp.ix.probeBatch(probeRows, probeKey, &joinEmit{buildLeft: buildIsLeft, width: outWidth, lKeep: lKeep, rKeep: rKeep}, nil)
}

// CartesianKernel is the local cartesian operator's partition kernel.
func CartesianKernel(largeRows, smallRows []Row, smallIsLeft bool, outWidth int, lKeep, rKeep []int) []Row {
	return (*KernelScratch)(nil).Cartesian(largeRows, smallRows, smallIsLeft, outWidth, lKeep, rKeep)
}

// DistinctKernel is the local distinct operator's partition kernel.
func DistinctKernel(rows []Row, width int) []Row {
	return (*KernelScratch)(nil).Distinct(rows, width)
}
