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
//
// Each kernel is a plain function of the Region its scratch and output
// are carved from, and the output lives as long as that region: the
// query's in process, the request's on a shard server (which releases it
// once the response frame is written), or the heap (nil), where the
// row-slice adapters of compat.go run them.

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

// JoinPartition hash-joins one shuffle partition: the smaller side (by
// row count; left on ties) becomes the build side, and output rows keep
// left-to-right column order.
func JoinPartition(r *Region, left, right Block, lKey, rKey []int, outWidth int, lKeep, rKeep []int) Block {
	build, probe := left, right
	buildKey, probeKey := lKey, rKey
	buildIsLeft := true
	if probe.n < build.n {
		build, probe = probe, build
		buildKey, probeKey = probeKey, buildKey
		buildIsLeft = false
	}
	var ix joinIndex
	ix.buildOne(r, build, buildKey)
	return ix.probeBatch(r, probe, probeKey, &joinEmit{buildLeft: buildIsLeft, width: outWidth, lKeep: lKeep, rKeep: rKeep})
}

// JoinProbe is a hash index over a broadcast join's build side, read-only
// once built, so the partitions that probe it may share it.
type JoinProbe struct {
	ix joinIndex
}

// BuildJoinProbe indexes a join's build side — its blocks, in order,
// where they lie — on the key columns, in r: once per broadcast join,
// whose every partition probes the same side.
func BuildJoinProbe(r *Region, build []Block, buildKey []int) JoinProbe {
	return JoinProbe{ix: buildJoinIndex(r, build, buildKey)}
}

// ProbeBlock joins probe against the indexed side into r, preserving
// probe-row order (then build-chain order), exactly as the in-process
// broadcast join does.
func (jp *JoinProbe) ProbeBlock(r *Region, probe Block, probeKey []int, buildIsLeft bool, outWidth int, lKeep, rKeep []int) Block {
	return jp.ix.probeBatch(r, probe, probeKey, &joinEmit{buildLeft: buildIsLeft, width: outWidth, lKeep: lKeep, rKeep: rKeep})
}

// Cartesian crosses one partition of the large side with the whole
// broadcast small side — its blocks, in order — in the local operator's
// emission order.
func Cartesian(r *Region, large Block, small []Block, smallIsLeft bool, outWidth int, lKeep, rKeep []int) Block {
	// The output cardinality is exact, so the arena never regrows.
	arena := r.Arena(outWidth, large.n*totalRows(small))
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
// like the local distinct operator.
func Distinct(r *Region, rows Block, width int) Block {
	var seen rowSet
	seen.reset(r, width, rows.n)
	for i := 0; i < rows.n; i++ {
		seen.insert(rows.Row(i))
	}
	return seen.rows.Block()
}
