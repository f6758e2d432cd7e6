// Package stats computes the loader-time statistics PRoST's
// statistics-based optimizer consumes (paper §3.3): the total number of
// triples per predicate and the number of distinct subjects per
// predicate, plus the distinct-object counts used by the inverse
// Property Table extension. The counts are exact and are read, together
// with the join-graph statistics of joinstats.go, off the run boundaries
// of two sorted copies of the encoded triples (CollectJoinStats),
// mirroring the paper's claim that they are "calculated during the
// loading phase without any significant overhead".
//
// A collection reads the triples and nothing else, so the loader
// collects it on one worker while the others build the tables, which
// never read it; what the statistics cost on the simulated clock
// depends on the triple count alone.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/rdf"
)

// Predicate holds the per-predicate statistics.
type Predicate struct {
	// Triples is the number of triples using this predicate.
	Triples int64
	// DistinctSubjects is the number of distinct subjects appearing
	// with this predicate.
	DistinctSubjects int64
	// DistinctObjects is the number of distinct objects appearing with
	// this predicate.
	DistinctObjects int64
	// MultiValued reports whether some subject has more than one object
	// under this predicate — such predicates become list columns in the
	// Property Table.
	MultiValued bool
}

// SubjectsPerTriple returns DistinctSubjects/Triples, the selectivity
// adjustment of the paper's priority formula (≈1 means nearly one triple
// per subject; small values mean heavy fan-out).
func (p Predicate) SubjectsPerTriple() float64 {
	if p.Triples == 0 {
		return 1
	}
	return float64(p.DistinctSubjects) / float64(p.Triples)
}

// Collection is the full statistics bundle for one loaded dataset.
type Collection struct {
	// ByPredicate maps predicate IDs to their statistics.
	ByPredicate map[rdf.ID]*Predicate
	// TotalTriples is the dataset's triple count after deduplication.
	TotalTriples int64
	// DistinctSubjects is the dataset-wide distinct subject count.
	DistinctSubjects int64
	// DistinctObjects is the dataset-wide distinct object count.
	DistinctObjects int64
	// Joins holds the join-graph statistics (characteristic sets and
	// two-predicate join sketches); nil when only the per-predicate
	// counts were collected (plain Collect, or CollectJoinStats with
	// everything disabled).
	Joins *JoinStats
}

// RetainedBytes is what the collection holds in memory: its slices at
// their capacity, and each map entry at its key and value, without the
// map's own overhead.
func (c *Collection) RetainedBytes() int64 {
	n := int64(len(c.ByPredicate)) * int64(unsafe.Sizeof(rdf.ID(0))+unsafe.Sizeof(&Predicate{})+unsafe.Sizeof(Predicate{}))
	if j := c.Joins; j != nil {
		n += int64(cap(j.CSets)) * int64(unsafe.Sizeof(CharacteristicSet{}))
		for _, cs := range j.CSets {
			n += int64(cap(cs.Preds))*int64(unsafe.Sizeof(rdf.ID(0))) + int64(cap(cs.Triples))*8
		}
		for _, sets := range j.byPred {
			n += int64(unsafe.Sizeof(rdf.ID(0))+unsafe.Sizeof(sets)) + int64(cap(sets))*int64(unsafe.Sizeof(0))
		}
		n += int64(len(j.sketches)) * int64(unsafe.Sizeof(pairKey{})+unsafe.Sizeof(PairSketch{}))
		n += int64(len(j.candidates)) * int64(unsafe.Sizeof(pairKey{}))
	}
	return n
}

// Collect computes the per-predicate statistics alone.
func Collect(triples []rdf.EncodedTriple) *Collection {
	return CollectJoinStats(triples, Config{SketchTopK: -1})
}

// Fingerprint returns a content hash of the collection: two
// collections computed from the same data fingerprint identically, and
// any change to a count changes the hash with overwhelming
// probability. A shard's handshake compares it with its coordinator's,
// so two processes never plan over statistics of different data.
func (c *Collection) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(c.TotalTriples))
	mix(uint64(c.DistinctSubjects))
	mix(uint64(c.DistinctObjects))
	preds := make([]rdf.ID, 0, len(c.ByPredicate))
	for p := range c.ByPredicate {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	for _, p := range preds {
		ps := c.ByPredicate[p]
		mix(uint64(p))
		mix(uint64(ps.Triples))
		mix(uint64(ps.DistinctSubjects))
		mix(uint64(ps.DistinctObjects))
		if ps.MultiValued {
			mix(1)
		} else {
			mix(0)
		}
	}
	c.Joins.fingerprint(mix)
	return h
}

// Predicate returns the stats for a predicate; absent predicates return
// a zero-valued entry (the predicate simply does not occur).
func (c *Collection) Predicate(p rdf.ID) Predicate {
	if ps, ok := c.ByPredicate[p]; ok {
		return *ps
	}
	return Predicate{}
}

// Summary renders a human-readable table of the statistics, sorted by
// descending triple count, resolving predicate names through dict.
func (c *Collection) Summary(dict *rdf.Dictionary) string {
	type row struct {
		name string
		p    Predicate
	}
	rows := make([]row, 0, len(c.ByPredicate))
	for id, ps := range c.ByPredicate {
		rows = append(rows, row{dict.Term(id).Value, *ps})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].p.Triples != rows[j].p.Triples {
			return rows[i].p.Triples > rows[j].p.Triples
		}
		return rows[i].name < rows[j].name
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-60s %12s %12s %12s %s\n", "predicate", "triples", "subjects", "objects", "multi")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-60s %12d %12d %12d %v\n",
			r.name, r.p.Triples, r.p.DistinctSubjects, r.p.DistinctObjects, r.p.MultiValued)
	}
	fmt.Fprintf(&sb, "total: %d triples, %d distinct subjects, %d distinct objects\n",
		c.TotalTriples, c.DistinctSubjects, c.DistinctObjects)
	if js, ok := c.JoinStatsSummary(); ok {
		fmt.Fprintf(&sb, "join stats: %d characteristic sets, %d/%d pair sketches kept (top-%d, %.1f%% of join volume), ~%d bytes\n",
			js.CSets, js.SketchPairs, js.CandidatePairs, js.TopK, 100*js.VolumeCoverage, js.MemoryBytes)
	}
	return sb.String()
}
