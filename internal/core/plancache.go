package core

import (
	"strconv"
	"sync"

	"repro/internal/plan"
	"repro/internal/sparql"
)

// defaultPlanCacheSize bounds the plan cache when Options.PlanCacheSize
// is zero. Plans are a few KiB each, so the default costs ~1 MiB while
// covering far more distinct query shapes than any benchmark workload.
const defaultPlanCacheSize = 256

// cachedPlan is one immutable plan-cache entry: the translated Join
// Tree nodes (the scan descriptors the plan's Leaf indexes point into)
// and the physical plan built over them. Entries are shared by every
// execution that hits the cache and must never be mutated — actual
// cardinalities go into per-execution plan.Observations, and the
// display Join Tree is re-sequenced into a fresh slice per query.
//
// A corrected entry is the feedback form (Store.correct): the query
// re-planned from the cardinalities fully executed runs of it observed,
// written back over the entry they ran under the same key; obs is what
// it was re-planned with, accumulated over every correction, so a
// further correction only ever adds to it. Executions hitting it do not
// repeat the estimation mistake. gen records the cache generation the
// entry was written in; a statistics reload bumps the generation and
// strands older entries.
type cachedPlan struct {
	nodes     []*Node
	plan      *plan.Plan
	obs       plan.Observed
	corrected bool
	gen       uint64
}

// CacheMetrics is a point-in-time snapshot of plan-cache behaviour.
type CacheMetrics struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that had to plan from scratch.
	Misses uint64
	// Evictions counts entries dropped to respect the size bound.
	Evictions uint64
	// Entries is the current number of cached plans.
	Entries int
	// FeedbackHits counts hits on corrected entries — plans a previous
	// execution re-planned from its observed cardinalities.
	FeedbackHits uint64
	// CorrectedEntries is the current number of corrected plans held.
	CorrectedEntries int
	// Generation is the statistics generation the cache is serving;
	// entries written under an older generation are treated as misses.
	Generation uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (m CacheMetrics) HitRate() float64 {
	total := m.Hits + m.Misses
	if total == 0 {
		return 0
	}
	return float64(m.Hits) / float64(total)
}

// planCache memoizes (translate + plan) results keyed on the
// normalized query plus every input planning depends on. It is safe
// for concurrent use; a racing double-miss builds the same plan twice
// and the second insert wins, which is correct because entries for one
// key are interchangeable.
type planCache struct {
	mu           sync.Mutex
	max          int
	entries      map[string]*cachedPlan
	order        []string // insertion order, for FIFO eviction
	gen          uint64   // statistics generation; bumped on reload
	hits         uint64
	misses       uint64
	evictions    uint64
	feedbackHits uint64
}

// newPlanCache returns a cache bounded to max entries. Callers wanting
// no cache keep a nil *planCache instead (the query path skips key
// construction entirely then); the max < 1 guard in put is defensive.
func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: make(map[string]*cachedPlan)}
}

// get looks a key up, counting the hit or miss. An entry written under
// an older statistics generation is dropped and reported as a miss —
// its plan (and, for corrected entries, its observed cardinalities)
// describes data that no longer exists.
func (c *planCache) get(key string) (*cachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && e.gen != c.gen {
		delete(c.entries, key)
		// Drop the key's FIFO slot too: leaving it would let a later
		// re-insert of the same key hold two slots, and eviction would
		// then pop the stale slot and delete the live entry early.
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		ok = false
	}
	if ok {
		c.hits++
		if e.corrected {
			c.feedbackHits++
		}
	} else {
		c.misses++
		e = nil
	}
	return e, ok
}

// put inserts an entry stamped with the current generation, evicting
// the oldest insertions beyond the bound. Re-inserting an existing key
// (the feedback write-back path) replaces the entry in place without
// consuming a new FIFO slot.
func (c *planCache) put(key string, e *cachedPlan) {
	if c.max < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.gen = c.gen
	if _, exists := c.entries[key]; !exists {
		c.order = append(c.order, key)
	}
	c.entries[key] = e
	for len(c.entries) > c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		if _, ok := c.entries[oldest]; ok {
			delete(c.entries, oldest)
			c.evictions++
		}
	}
}

// bumpGeneration advances the statistics generation and purges the
// cache outright: every existing entry — static plans keyed on the old
// fingerprint, corrected plans re-planned from observations of the old
// data — is a guaranteed miss under the new
// generation, so dropping them eagerly frees the memory and keeps the
// metrics consistent. The generation check in get remains as a
// defensive backstop.
func (c *planCache) bumpGeneration() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.entries = make(map[string]*cachedPlan)
	c.order = nil
}

// metrics snapshots the counters.
func (c *planCache) metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	corrected := 0
	for _, e := range c.entries {
		if e.corrected && e.gen == c.gen {
			corrected++
		}
	}
	return CacheMetrics{
		Hits:             c.hits,
		Misses:           c.misses,
		Evictions:        c.evictions,
		Entries:          len(c.entries),
		FeedbackHits:     c.feedbackHits,
		CorrectedEntries: corrected,
		Generation:       c.gen,
	}
}

// planCacheKey renders everything a plan depends on into a lookup key:
// the BGP patterns and filters in written order, the effective
// projection and DISTINCT flag, the strategy, planner mode and
// broadcast threshold, the loader-statistics fingerprint (so a
// statistics reload invalidates every previously cached plan), the
// workload epoch (so a plan priced before a reduction was installed,
// evicted, or a scan cardinality first observed never outlives that
// state), and whether the planner was offered the ExtVP provider (a
// sharded query is not: a rewritten and an unrewritten plan must never
// share an entry). Written pattern order is kept for every mode — the naive
// planner keys on it outright, and the heuristic/cost orderings break
// estimate ties by translation order, so two equivalent queries
// written differently may legitimately plan differently and must not
// share an entry. Extended queries additionally key on the full
// rendered query text: UNION branches, OPTIONAL groups, ORDER BY,
// GROUP BY/COUNT and LIMIT/OFFSET all shape the composed plan (Union,
// LeftJoin, Aggregate and TopK operators), and none of them appear in
// the mirror Patterns/Filters fields.
//
// The key is appended into a buffer on the stack, every term through
// rdf.Term.AppendNTriples, so a lookup allocates once — the key string —
// unless the key outgrows the buffer.
func planCacheKey(q *sparql.Query, r resolved, statsFP, wlEpoch uint64) string {
	var buf [planKeyBuffer]byte
	b := append(buf[:0], r.mode.String()...)
	b = append(append(b, '|'), r.strategy.String()...)
	b = strconv.AppendInt(append(b, '|'), r.broadcastOpt, 10)
	b = strconv.AppendUint(append(b, '|'), statsFP, 16)
	b = strconv.AppendUint(append(b, '|'), wlEpoch, 10)
	if r.extvp {
		b = append(b, "+extvp"...)
	}
	b = append(b, '|')
	if q.Distinct {
		b = append(b, "distinct"...)
	}
	b = append(b, '|')
	for i, v := range q.Projection() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, v...)
	}
	b = append(b, '|')
	for _, tp := range q.Patterns {
		b = append(tp.AppendTo(b), '\n')
	}
	b = append(b, '|')
	for _, f := range q.Filters {
		b = append(f.AppendTo(b), '\n')
	}
	if q.Extended() {
		b = q.AppendTo(append(b, "|ext|"...))
	}
	return string(b)
}

// planKeyBuffer is the stack buffer planCacheKey renders into: larger
// than the key of every WatDiv and extended query.
const planKeyBuffer = 2048
