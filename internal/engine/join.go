package engine

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// JoinStrategy is the physical method an explicit join request uses.
type JoinStrategy uint8

// Join strategies.
const (
	// StrategyAuto selects the method at runtime the way Catalyst does:
	// a side below the broadcast threshold becomes the build side of a
	// broadcast hash join, otherwise the join shuffles.
	StrategyAuto JoinStrategy = iota
	// StrategyBroadcast forces a broadcast hash join; the smaller side
	// (by estimated bytes) becomes the build side.
	StrategyBroadcast
	// StrategyShuffle forces a shuffle hash join, with sides already
	// partitioned on the join key still skipping their movement. Note
	// that the cost planner maps its planned shuffles to StrategyAuto
	// instead, keeping the runtime's broadcast downgrade for tiny
	// actual intermediates; StrategyShuffle pins the physical method
	// outright (ablations, tests).
	StrategyShuffle
)

// Join performs a natural join on the columns shared by the two inputs,
// selecting the physical strategy the way Catalyst does: if either side
// is estimated below the broadcast threshold it becomes the build side
// of a broadcast hash join; otherwise both sides are shuffled on the
// join key (skipping sides already partitioned on it) and hash-joined
// partition-wise. Inputs without shared columns produce a cartesian
// product via broadcast (BGPs are connected, so this only serves
// robustness).
func (e *Exec) Join(left, right *Relation, name string) (*Relation, error) {
	return e.JoinWith(left, right, name, StrategyAuto)
}

// JoinWith is Join with an explicit physical strategy, the entry point
// for cost-based plans that price broadcast vs. shuffle per join on
// estimated input sizes instead of relying on the runtime threshold.
// Inputs without shared columns always produce a cartesian product.
func (e *Exec) JoinWith(left, right *Relation, name string, strategy JoinStrategy) (*Relation, error) {
	return e.JoinKeep(left, right, name, strategy, nil)
}

// JoinKeep is JoinWith with fused column pruning: when keep is
// non-nil, only the named output columns are emitted, inside the same
// join stage — no extra projection pass and no materialized wide
// intermediate. Planners use it to drop variables no later operator
// reads, shrinking every downstream shuffle and broadcast.
func (e *Exec) JoinKeep(left, right *Relation, name string, strategy JoinStrategy, keep []string) (*Relation, error) {
	shared := left.schema.Shared(right.schema)
	if len(shared) == 0 {
		return e.cartesian(left, right, name, keep)
	}
	switch strategy {
	case StrategyBroadcast:
		probe, build := left, right
		buildIsLeft := false
		if left.EstimatedBytes() < right.EstimatedBytes() {
			probe, build = right, left
			buildIsLeft = true
		}
		// Skew guard: a broadcast join runs in the probe's existing
		// layout, so a heavily skewed probe concentrates the whole join
		// on one worker. When the planner's forced broadcast meets such
		// a layout at runtime and the serialized row work would cost
		// more than rebalancing, shuffle instead (the adaptive
		// protection Spark's AQE applies to skewed joins).
		if e.skewDowngrade(probe) {
			return e.shuffleJoin(left, right, shared, name, keep)
		}
		return e.broadcastJoin(probe, build, shared, name, buildIsLeft, keep)
	case StrategyShuffle:
		return e.shuffleJoin(left, right, shared, name, keep)
	}
	bt := e.broadcastThreshold()
	if bt > 0 {
		lb, rb := left.EstimatedBytes(), right.EstimatedBytes()
		if rb <= bt && rb <= lb {
			return e.broadcastJoin(left, right, shared, name, false, keep)
		}
		if lb <= bt {
			return e.broadcastJoin(right, left, shared, name, true, keep)
		}
	}
	return e.shuffleJoin(left, right, shared, name, keep)
}

// joinLayout computes a join's output schema and emission index lists.
// With keep == nil the output is left ++ right-non-join and lKeep is
// nil, marking the bulk-copy fast path (AppendJoin); otherwise only
// columns named in keep survive, in the same relative order, and rows
// are emitted through AppendJoinPruned.
func joinLayout(left, right Schema, shared, keep []string) (out Schema, lKeep, rKeep []int) {
	isJoinCol := map[string]bool{}
	for _, c := range shared {
		isJoinCol[c] = true
	}
	if keep == nil {
		out = left.Clone()
		for i, c := range right {
			if !isJoinCol[c] {
				out = append(out, c)
				rKeep = append(rKeep, i)
			}
		}
		return out, nil, rKeep
	}
	retain := map[string]bool{}
	for _, c := range keep {
		retain[c] = true
	}
	lKeep = make([]int, 0, len(left))
	for i, c := range left {
		if retain[c] {
			out = append(out, c)
			lKeep = append(lKeep, i)
		}
	}
	for i, c := range right {
		if !isJoinCol[c] && retain[c] {
			out = append(out, c)
			rKeep = append(rKeep, i)
		}
	}
	return out, lKeep, rKeep
}

// survivingCols returns cols when the schema retains every one of
// them (the partitioning survives), nil otherwise.
func survivingCols(cols []string, schema Schema) []string {
	for _, c := range cols {
		if !schema.Contains(c) {
			return nil
		}
	}
	return cloneCols(cols)
}

// keyIndexes maps the shared columns into each schema.
func keyIndexes(s Schema, shared []string) []int {
	idx := make([]int, len(shared))
	for i, c := range shared {
		idx[i] = s.Index(c)
	}
	return idx
}

// shuffleRows hash-repartitions rel's rows by the key columns into n
// partitions. It returns the new partitions and, per target partition,
// the network bytes that landed there. Rows staying on the same
// partition index are treated as local only when the relation was
// already partitioned correctly — the caller decides by not calling
// shuffleRows at all in that case.
func shuffleRows(rel *Relation, keyIdx []int, n int) ([][]Row, []int64) {
	parts := make([][]Row, n)
	moved := make([]int64, n)
	rowB := int64(len(rel.schema)) * bytesPerValue
	for pi := 0; pi < rel.Partitions(); pi++ {
		for _, r := range rel.Part(pi) {
			p := cluster.HashPartition(hashRowKey(r, keyIdx), n)
			parts[p] = append(parts[p], r)
			moved[p] += rowB
		}
	}
	return parts, moved
}

// alignedOnCols reports whether rel is already hash-partitioned so that
// a join shuffling on cols (in that exact order) needs no shuffle: the
// relation's recorded partition columns must equal cols as a sequence
// and the partition count must match — shuffleRows, Partition and join
// outputs all place rows with the engine's canonical row-key hash over
// the partition columns in recorded order, so an aligned side's
// placement is already correct.
func alignedOnCols(rel *Relation, cols []string, n int) bool {
	// A zero-column key never aligns: placement of width-0 rows is
	// arbitrary, and hashing no columns sends them all to one
	// partition, so skipping that shuffle would dedup per-partition.
	if len(cols) == 0 || len(rel.partCols) != len(cols) || rel.Partitions() != n {
		return false
	}
	for i, c := range cols {
		if rel.partCols[i] != c {
			return false
		}
	}
	return true
}

// shuffleJoin repartitions both sides on the join key and performs a
// partition-wise hash join. The output records the full (possibly
// multi-column) join key as its partitioning (when pruning keeps it),
// so downstream joins on the same key sequence skip their shuffle.
func (e *Exec) shuffleJoin(left, right *Relation, shared []string, name string, keep []string) (*Relation, error) {
	n := e.Cluster.DefaultPartitions()
	lKey := keyIndexes(left.schema, shared)
	rKey := keyIndexes(right.schema, shared)

	// Skew guard for the shuffle path: a hot key above the salt
	// fraction is split into per-worker sub-keys (the other side's
	// matching rows replicated), so it can no longer serialize one
	// worker. Salting re-places both sides, so the alignment shortcut
	// does not apply and the output's layout is not the key hash.
	salted := e.saltPlan(left, right, lKey, rKey)

	// A side already partitioned on the join columns keeps its layout
	// and pays zero shuffle bytes.
	var lParts, rParts [][]Row
	lMoved := make([]int64, n)
	rMoved := make([]int64, n)
	switch {
	case salted != nil:
		lParts, lMoved = saltedShuffleRows(left, lKey, n, salted, true)
		rParts, rMoved = saltedShuffleRows(right, rKey, n, salted, false)
	default:
		if alignedOnCols(left, shared, n) {
			lParts = left.parts
		} else {
			lParts, lMoved = shuffleRows(left, lKey, n)
		}
		if alignedOnCols(right, shared, n) {
			rParts = right.parts
		} else {
			rParts, rMoved = shuffleRows(right, rKey, n)
		}
	}

	outSchema, lKeep, rKeep := joinLayout(left.schema, right.schema, shared, keep)
	out := make([][]Row, n)
	// The kernel runs locally, or on remote shards when an Exchanger is
	// installed — identical fragments in, identical rows out, and the
	// stage stats below are computed from fragment lengths and output
	// counts either way, so pricing never depends on where it ran.
	run := func(p int) []Row {
		return JoinPartitionKernel(lParts[p], rParts[p], lKey, rKey, len(outSchema), lKeep, rKeep)
	}
	if e.Dist != nil {
		var lSum, rSum int64
		for p := 0; p < n; p++ {
			lSum += lMoved[p]
			rSum += rMoved[p]
		}
		res, err := e.Dist.ShuffleJoin(ShuffleSpec{
			Node: e.Node, Name: name, LKey: lKey, RKey: rKey,
			OutWidth: len(outSchema), LKeep: lKeep, RKeep: rKeep,
			PricedBytes: lSum + rSum, LMovedBytes: lSum, RMovedBytes: rSum,
		}, lParts, rParts)
		if err != nil {
			return nil, err
		}
		run = func(p int) []Row { return res[p] }
	}
	err := e.Cluster.RunStage(e.Clock, e.Launch(true), "join "+name, n, func(p int) (cluster.TaskStats, error) {
		out[p] = run(p)
		return cluster.TaskStats{
			Rows:     int64(len(lParts[p]) + len(rParts[p]) + len(out[p])),
			NetBytes: lMoved[p] + rMoved[p],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	outPartCols := survivingCols(shared, outSchema)
	if salted != nil {
		outPartCols = nil
	}
	return &Relation{schema: outSchema, parts: out, partCols: outPartCols}, nil
}

// broadcastJoin ships the (small) build relation to every worker and
// probes the large side in place, preserving its partitioning.
// buildIsLeft records that build is semantically the LEFT input, so
// output columns keep left-to-right order.
func (e *Exec) broadcastJoin(probe, build *Relation, shared []string, name string, buildIsLeft bool, pruneTo []string) (*Relation, error) {
	probeKey := keyIndexes(probe.schema, shared)
	buildKey := keyIndexes(build.schema, shared)

	buildBytes := build.EstimatedBytes()

	var outSchema Schema
	var lKeep, rKeep []int
	if buildIsLeft {
		outSchema, lKeep, rKeep = joinLayout(build.schema, probe.schema, shared, pruneTo)
	} else {
		outSchema, lKeep, rKeep = joinLayout(probe.schema, build.schema, shared, pruneTo)
	}

	workers := e.Cluster.Workers()
	var run func(p int) []Row
	if e.Dist != nil {
		w := workers
		if probe.Partitions() < w {
			w = probe.Partitions()
		}
		res, err := e.Dist.BroadcastJoin(BroadcastSpec{
			Node: e.Node, Name: name, BuildKey: buildKey, ProbeKey: probeKey,
			BuildIsLeft: buildIsLeft, OutWidth: len(outSchema),
			LKeep: lKeep, RKeep: rKeep,
			PricedBytes: buildBytes * int64(w),
		}, build.Rows(), probe.parts)
		if err != nil {
			return nil, err
		}
		run = func(p int) []Row { return res[p] }
	} else {
		// Hash index over the build side, shared read-only by all tasks.
		jp := NewJoinProbe(build.Rows(), buildKey)
		run = func(p int) []Row {
			return jp.Probe(probe.Part(p), probeKey, buildIsLeft, len(outSchema), lKeep, rKeep)
		}
	}
	out := make([][]Row, probe.Partitions())
	err := e.Cluster.RunStage(e.Clock, e.launchBroadcast(), "broadcast join "+name, probe.Partitions(), func(p int) (cluster.TaskStats, error) {
		out[p] = run(p)
		st := cluster.TaskStats{Rows: int64(len(probe.Part(p)) + len(out[p]))}
		// Each worker receives one copy of the build side; tasks are
		// placed round-robin, so the first task on each worker pays it.
		if p < workers {
			st.NetBytes = buildBytes
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: outSchema, parts: out, partCols: survivingCols(probe.partCols, outSchema)}, nil
}

// cartesian computes a cross product by broadcasting the smaller side.
func (e *Exec) cartesian(left, right *Relation, name string, keep []string) (*Relation, error) {
	small, large := left, right
	smallIsLeft := true
	if right.EstimatedBytes() < left.EstimatedBytes() {
		small, large = right, left
		smallIsLeft = false
	}
	smallRows := small.Rows()
	outSchema, lKeep, rKeep := joinLayout(left.schema, right.schema, nil, keep)
	workers := e.Cluster.Workers()
	smallBytes := small.EstimatedBytes()
	run := func(p int) []Row {
		// The output cardinality is exact, so the arena never regrows.
		return CartesianKernel(large.Part(p), smallRows, smallIsLeft, len(outSchema), lKeep, rKeep)
	}
	if e.Dist != nil {
		w := workers
		if large.Partitions() < w {
			w = large.Partitions()
		}
		res, err := e.Dist.Cartesian(CartesianSpec{
			Node: e.Node, Name: name, SmallIsLeft: smallIsLeft, OutWidth: len(outSchema),
			LKeep: lKeep, RKeep: rKeep,
			PricedBytes: smallBytes * int64(w),
		}, smallRows, large.parts)
		if err != nil {
			return nil, err
		}
		run = func(p int) []Row { return res[p] }
	}
	out := make([][]Row, large.Partitions())
	err := e.Cluster.RunStage(e.Clock, e.launchBroadcast(), "cartesian "+name, large.Partitions(), func(p int) (cluster.TaskStats, error) {
		out[p] = run(p)
		st := cluster.TaskStats{Rows: int64(len(out[p]))}
		if p < workers {
			st.NetBytes = smallBytes
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	if keep == nil && len(outSchema) != len(left.schema)+len(right.schema) {
		return nil, fmt.Errorf("engine: cartesian schema construction bug")
	}
	return &Relation{schema: outSchema, parts: out}, nil
}

// skewDowngrade reports whether probing the relation in its existing
// layout would serialize on one worker badly enough that repartitioning
// pays for itself: the probe must be concentrated (largest partition ≥
// 3× the mean on a non-trivial row count) and the serialized row time
// must exceed the extra launch and movement a rebalancing shuffle
// costs.
func (e *Exec) skewDowngrade(probe *Relation) bool {
	n := probe.Partitions()
	total := probe.NumRows()
	if n == 0 || total < 4*n {
		return false
	}
	maxPart := 0
	for i := 0; i < n; i++ {
		if l := len(probe.Part(i)); l > maxPart {
			maxPart = l
		}
	}
	if maxPart*n < 3*total {
		return false
	}
	cost := e.Cluster.Config().Cost
	workers := e.Cluster.Workers()
	if workers < 1 {
		workers = 1
	}
	penalty := time.Duration(maxPart-total/workers) * cost.RowTime
	extra := e.BoundaryLaunch - e.BoundaryLaunch/3
	if cost.NetworkBytesPerSec > 0 {
		extra += time.Duration(float64(probe.EstimatedBytes()) / float64(workers) / cost.NetworkBytesPerSec * float64(time.Second))
	}
	return penalty > extra
}

// cloneCols copies a partition-column list, sharing nothing with the
// caller's slice.
func cloneCols(cols []string) []string {
	if len(cols) == 0 {
		return nil
	}
	out := make([]string, len(cols))
	copy(out, cols)
	return out
}

// concatRow builds left ++ right[keep]. The join operators emit through
// RowArena instead; this remains as the one-row reference used by the
// naive model in tests.
func concatRow(left, right Row, keep []int) Row {
	nr := make(Row, 0, len(left)+len(keep))
	nr = append(nr, left...)
	for _, i := range keep {
		nr = append(nr, right[i])
	}
	return nr
}
