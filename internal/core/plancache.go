package core

import (
	"strconv"
	"sync"

	"repro/internal/plan"
	"repro/internal/sparql"
)

// planCacheSize bounds every store's plan cache. Plans are a few KiB
// each, so the cache costs ~1 MiB while covering far more distinct
// query shapes than any benchmark workload.
const planCacheSize = 256

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
// repeat the estimation mistake.
type cachedPlan struct {
	nodes     []*Node
	plan      *plan.Plan
	obs       plan.Observed
	corrected bool
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
	hits         uint64
	misses       uint64
	evictions    uint64
	feedbackHits uint64
}

// newPlanCache returns a cache bounded to max entries (at least one).
func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: make(map[string]*cachedPlan)}
}

// get looks a key up, counting the hit or miss.
func (c *planCache) get(key string) (*cachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	if e.corrected {
		c.feedbackHits++
	}
	return e, true
}

// put inserts an entry, evicting the oldest insertions beyond the
// bound. Re-inserting an existing key
// (the feedback write-back path) replaces the entry in place without
// consuming a new FIFO slot.
func (c *planCache) put(key string, e *cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
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

// metrics snapshots the counters.
func (c *planCache) metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	corrected := 0
	for _, e := range c.entries {
		if e.corrected {
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
	}
}

// planCacheKey renders everything a plan depends on into a lookup key:
// the BGP patterns and filters in written order, the effective
// projection and DISTINCT flag, the strategy, planner mode and
// broadcast threshold, the workload epoch (so a plan priced before a
// reduction was installed, evicted, or a scan cardinality first
// observed never outlives that state), and whether the planner was
// offered the ExtVP provider (a sharded query is not: a rewritten and
// an unrewritten plan must never share an entry). The loader statistics
// need no segment: Load sets them once, for the store's whole life.
// Written pattern order is kept for every mode — the naive planner keys
// on it outright, and the heuristic/cost orderings break
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
func planCacheKey(q *sparql.Query, r resolved, wlEpoch uint64) string {
	var buf [planKeyBuffer]byte
	b := append(buf[:0], r.mode.String()...)
	b = append(append(b, '|'), r.strategy.String()...)
	b = strconv.AppendInt(append(b, '|'), r.broadcastOpt, 10)
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
