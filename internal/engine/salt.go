package engine

import (
	"sort"

	"repro/internal/cluster"
)

// Skew-salted shuffles: a shuffle join hashes rows to partitions by
// their join key, so a zipfian hot key sends all of its rows — and all
// of its join work — to one partition on one worker, serializing the
// stage no matter how many workers exist. When an input's key
// histogram shows a value at or above skewSaltFraction of its
// rows, the shuffle salts that key: the hot side's rows round-robin
// over K=workers sub-keys (one shuffle target partition each), and the
// other side's matching rows are replicated with one copy per distinct
// target partition, so every matching pair still meets exactly once
// while the row work spreads across the cluster. This generalizes the
// broadcast-only skew guard (skewDowngrade) to the shuffle path, where
// concurrent DAG branches would otherwise pile onto one worker.

// skewSaltFraction is the shuffle-salting trigger: a join key carrying
// at least this fraction of one input's rows would serialize a fifth of
// the join on one worker, so it is salted instead.
const skewSaltFraction = 0.2

// saltedKey describes one hot join-key value the shuffle salts: the
// distinct target partitions its rows spread over, which input side
// spreads (the hotter one; the other side replicates one copy per
// target), and the spread side's round-robin cursor.
type saltedKey struct {
	targets    []int
	spreadLeft bool
	next       int
}

// saltPlan scans both inputs' join-key histograms and returns the hot
// keys to salt, keyed by the engine's canonical row-key hash, or nil
// when no key concentrates enough rows to matter. Hash collisions only
// widen a salt group — correctness never depends on the hash, because
// the per-partition hash join still tests the real key columns.
func (e *Exec) saltPlan(left, right *Relation, lKey, rKey []int) map[uint64]*saltedKey {
	if e.noSalt {
		return nil
	}
	workers := e.Cluster.Workers()
	n := e.Cluster.DefaultPartitions()
	if workers < 2 || n < 2 {
		return nil
	}
	// Below a few rows per partition the histogram cannot mean
	// anything; the same floor the broadcast skew guard uses.
	minRows := 4 * n
	lTotal, rTotal := left.NumRows(), right.NumRows()
	if lTotal < minRows && rTotal < minRows {
		return nil
	}
	// Screen cheaply before counting: a key carrying the trigger share
	// of a side's rows cannot hide from a deterministic stride sample,
	// so the full histogram — a map touched once per row, real cost on
	// the PR 1 allocation-light hot path — is built only when the sample
	// says a hot key is plausible. The sample uses a relaxed bound so sampling
	// noise cannot suppress a genuinely hot key; the exact rule below
	// still decides on the full counts.
	var lCounts, rCounts map[uint64]int
	if lTotal >= minRows && sampleSuggestsHotKey(left, lKey) {
		lCounts = keyHistogram(left, lKey)
	}
	if rTotal >= minRows && sampleSuggestsHotKey(right, rKey) {
		rCounts = keyHistogram(right, rKey)
	}
	if lCounts == nil && rCounts == nil {
		return nil
	}

	salted := make(map[uint64]*saltedKey)
	consider := func(h uint64) {
		if salted[h] != nil {
			return
		}
		targets := saltTargets(h, workers, n)
		if len(targets) < 2 {
			return // the sub-keys collapse to one partition; salting is a no-op
		}
		salted[h] = &saltedKey{targets: targets, spreadLeft: lCounts[h] >= rCounts[h]}
	}
	for h, c := range lCounts {
		if float64(c) >= skewSaltFraction*float64(lTotal) {
			consider(h)
		}
	}
	for h, c := range rCounts {
		if float64(c) >= skewSaltFraction*float64(rTotal) {
			consider(h)
		}
	}
	if len(salted) == 0 {
		return nil
	}
	return salted
}

// saltSampleSize bounds the screening sample per input.
const saltSampleSize = 512

// sampleSuggestsHotKey strides through the relation counting at most
// saltSampleSize keys and reports whether any sampled key plausibly
// reaches the salt fraction. The bound is relaxed to half the trigger:
// a key truly carrying that share of the rows concentrates the same
// share of a stride sample (the stride is independent of the key), so
// a 0.2-hot key essentially cannot sample below 0.1 at 512 draws, while
// uniform key distributions screen out without ever allocating a full
// histogram.
func sampleSuggestsHotKey(rel *Relation, keyIdx []int) bool {
	total := rel.NumRows()
	stride := total / saltSampleSize
	if stride < 1 {
		stride = 1
	}
	counts := make(map[uint64]int, saltSampleSize)
	sampled, max, next := 0, 0, 0
	for p := 0; p < rel.Partitions(); p++ {
		rows := rel.parts[p]
		for next < rows.n {
			h := hashRowKey(rows.Row(next), keyIdx)
			c := counts[h] + 1
			counts[h] = c
			if c > max {
				max = c
			}
			sampled++
			next += stride
		}
		next -= rows.n
	}
	return sampled > 0 && float64(max) >= 0.5*skewSaltFraction*float64(sampled)
}

// keyHistogram counts rows per join-key hash across all partitions.
func keyHistogram(rel *Relation, keyIdx []int) map[uint64]int {
	counts := make(map[uint64]int, 256)
	for _, part := range rel.parts {
		for i := 0; i < part.n; i++ {
			counts[hashRowKey(part.Row(i), keyIdx)]++
		}
	}
	return counts
}

// saltTargets derives a hot key's sub-key target partitions: one
// candidate per worker, deduplicated (two sub-keys may hash to the same
// partition) and sorted for deterministic round-robin order.
func saltTargets(h uint64, workers, n int) []int {
	seen := make(map[int]bool, workers)
	out := make([]int, 0, workers)
	for s := 0; s < workers; s++ {
		p := cluster.HashPartition(h^(uint64(s+1)*0xBF58476D1CE4E5B9), n)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// saltedShuffleRows hash-repartitions one side of a salted shuffle:
// non-hot rows place canonically, the spread side's hot rows
// round-robin over their key's target partitions, and the replicating
// side's hot rows land once in every target partition. Like shuffleRows
// it counts every target before it copies, so the partitions are one
// buffer of IDs, carved from r; the round-robin cursors are rewound between the
// two passes, so both route every row alike. It returns the new
// partitions and, per target partition, the network bytes that landed
// there (replicas ship — and are charged — per copy).
func saltedShuffleRows(r *Region, rel *Relation, keyIdx []int, n int, salted map[uint64]*saltedKey, isLeft bool) ([]Block, []int64) {
	route := func(row Row, emit func(p int)) {
		h := hashRowKey(row, keyIdx)
		sk := salted[h]
		switch {
		case sk == nil:
			emit(cluster.HashPartition(h, n))
		case sk.spreadLeft == isLeft:
			emit(sk.targets[sk.next%len(sk.targets)])
			sk.next++
		default:
			for _, p := range sk.targets {
				emit(p)
			}
		}
	}
	width := len(rel.schema)
	counts := make([]int, n)
	count := func(p int) { counts[p]++ }
	for _, part := range rel.parts {
		for i := 0; i < part.n; i++ {
			route(part.Row(i), count)
		}
	}
	for _, sk := range salted {
		if sk.spreadLeft == isLeft {
			sk.next = 0
		}
	}
	parts, fill, ids := layoutBlocks(r, width, counts)
	var row Row
	put := func(p int) { fill[p] += copy(ids[fill[p]:], row) }
	for _, part := range rel.parts {
		for i := 0; i < part.n; i++ {
			row = part.Row(i)
			route(row, put)
		}
	}
	return parts, movedBytes(counts, width)
}
