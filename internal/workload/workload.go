// Package workload maintains the cross-query workload model: it mines
// executed plans for hot predicate pairs (by executed join volume ×
// frequency), builds ExtVP-style semi-join reductions for the hottest
// pairs under a byte budget, and records observed cardinalities of
// (predicate, constant) subpatterns so later queries sharing the
// subpattern start from an exact estimate instead of the independence
// guess.
//
// A pair's reductions are built by the observation that takes it across
// the build threshold, on the observing query's goroutine, before that
// observation returns: the model starts no goroutine, so which tables
// a query sees depends only on the order of the observations before it.
//
// The model is storage-agnostic: the owning store registers a Builder
// callback that materializes one directional reduction and returns its
// exact row count, byte footprint and an opaque handle the executor
// later resolves. Every method that drops tables returns them, so the
// owner can release their storage. Invalidation is generational — a
// stats reload bumps the generation, dropping every table and
// discarding any build still running on another goroutine — and every
// externally visible change (table installed, table evicted,
// invalidation, first observation of a subpattern) bumps a separate
// epoch counter that plan-cache keys incorporate, so cached plans never
// outlive the workload state they were priced against.
package workload

import (
	"sort"
	"sync"

	"repro/internal/rdf"
	"repro/internal/stats"
)

// DefaultBuildAfter is how many feedback observations a predicate pair
// needs before a build is triggered when Config.BuildAfter is zero.
const DefaultBuildAfter = 2

// Table is one materialized directional reduction: the rows of Pred's
// VP table that survive the semi-join with Partner at the recorded
// position. Data is an opaque handle owned by the registered Builder
// (the core store keeps the table and its file location there); Rows
// and Bytes are exact.
type Table struct {
	Rows  int64
	Bytes int64
	Data  any
}

// TableKey identifies one directional reduction: Pred's table reduced
// against Partner, with Pos the join position seen from Pred's side
// (stats.JoinPos encoding).
type TableKey struct {
	Pred, Partner uint64
	Pos           uint8
}

// Builder materializes one directional reduction. It runs on the
// goroutine of the query whose observation earned the build, with the
// model unlocked, so it must be safe to run concurrently with other
// queries and other builds. It returns ok=false when the reduction is
// not worth keeping (empty, or the predicate vanished after a reload).
type Builder func(pred, partner uint64, pos uint8, gen uint64) (Table, bool)

// Config tunes a Model.
type Config struct {
	// BudgetBytes caps the total bytes of live reductions; zero or
	// negative disables materialization entirely (the model still
	// tracks pairs and observations).
	BudgetBytes int64
	// BuildAfter is the number of observations of a pair before its
	// reductions are built (0 = DefaultBuildAfter).
	BuildAfter int
	// Builder materializes reductions; required for builds to happen.
	Builder Builder
}

// pairKey is a canonical predicate pair (stats.CanonicalPair form).
type pairKey struct {
	p1, p2 uint64
	pos    stats.JoinPos
}

// pairStat accumulates one pair's observed workload.
type pairStat struct {
	hits   int64
	volume int64 // sum of actual join output rows observed
	built  bool  // reductions built (or being built) for this pair
}

// obsKey identifies one (predicate, constant) subpattern: SubjBound
// tells which position the constant binds.
type obsKey struct {
	pred, constID uint64
	subjBound     bool
}

// tableEntry is one live reduction plus its eviction accounting.
type tableEntry struct {
	table Table
	pair  pairKey // the pair whose volume is this table's benefit
}

// Model is the workload model. All methods are safe for concurrent
// use; builds run on the observing caller with the lock released, so
// table installs are deterministic given a deterministic observation
// order.
type Model struct {
	cfg Config

	mu     sync.Mutex
	pairs  map[pairKey]*pairStat
	tables map[TableKey]*tableEntry
	bytes  int64 // total bytes of live tables
	obs    map[obsKey]int64
	gen    uint64 // bumped by Invalidate; stale builds discard
	epoch  uint64 // bumped on any externally visible change

	built   uint64 // cumulative tables installed
	evicted uint64 // cumulative tables evicted
	hits    uint64 // successful Lookup calls (rewrites resolved)
}

// New returns a workload model; cfg.Builder may be nil when
// materialization is disabled.
func New(cfg Config) *Model {
	if cfg.BuildAfter <= 0 {
		cfg.BuildAfter = DefaultBuildAfter
	}
	return &Model{
		cfg:    cfg,
		pairs:  make(map[pairKey]*pairStat),
		tables: make(map[TableKey]*tableEntry),
		obs:    make(map[obsKey]int64),
	}
}

// enabled reports whether materialization can happen at all.
func (m *Model) enabled() bool {
	return m.cfg.BudgetBytes > 0 && m.cfg.Builder != nil
}

// ObserveJoin records one executed join between two predicates at a
// join position (stats.JoinPos encoding, as seen from p1's side) with
// its actual output row count. The observation that crosses the build
// threshold builds and installs both directional reductions before it
// returns. ObserveJoin returns the tables it dropped: those evicted to
// make room, and a new one discarded at install.
func (m *Model) ObserveJoin(p1, p2 uint64, pos uint8, actualRows int64) []Table {
	q1, q2, qpos := canonical(p1, p2, pos)
	k := pairKey{q1, q2, qpos}
	m.mu.Lock()
	st := m.pairs[k]
	if st == nil {
		st = &pairStat{}
		m.pairs[k] = st
	}
	st.hits++
	st.volume += actualRows
	build := m.enabled() && !st.built && st.hits >= int64(m.cfg.BuildAfter)
	st.built = st.built || build
	gen := m.gen
	m.mu.Unlock()
	if !build {
		return nil
	}
	var dropped []Table
	for _, tk := range directions(k) {
		if t, ok := m.cfg.Builder(tk.Pred, tk.Partner, tk.Pos, gen); ok {
			dropped = append(dropped, m.install(tk, k, t, gen)...)
		}
	}
	return dropped
}

// directions expands a canonical pair into its two directional table
// keys. A self-pair (p ⋈ p) has a single direction.
func directions(k pairKey) []TableKey {
	a := TableKey{Pred: k.p1, Partner: k.p2, Pos: uint8(k.pos)}
	b := TableKey{Pred: k.p2, Partner: k.p1, Pos: uint8(k.pos.Transpose())}
	if a == b {
		return []TableKey{a}
	}
	return []TableKey{a, b}
}

// install registers a table built for pair at generation gen,
// evicting lower-value tables to stay within budget, and returns the
// tables it dropped. A table whose generation went stale while it was
// built, or that cannot fit even alone, is itself dropped. The pair's
// built flag admits one build per key and generation, so tk is never
// already live.
func (m *Model) install(tk TableKey, pair pairKey, t Table, gen uint64) []Table {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gen != gen || t.Bytes > m.cfg.BudgetBytes {
		return []Table{t}
	}
	m.tables[tk] = &tableEntry{table: t, pair: pair}
	m.bytes += t.Bytes
	m.built++
	m.epoch++
	return m.evictLocked(tk)
}

// evictLocked removes lowest benefit/byte tables until the budget
// holds, sparing the just-installed key so installs cannot thrash, and
// returns the evicted tables. The spared table fits by the install
// guard, so a victim always exists while the budget is exceeded.
func (m *Model) evictLocked(spare TableKey) []Table {
	var evicted []Table
	for m.bytes > m.cfg.BudgetBytes {
		var victim TableKey
		best := 0.0
		found := false
		for tk, e := range m.tables {
			if tk == spare {
				continue
			}
			score := m.scoreLocked(e)
			if !found || score < best || (score == best && lessKey(tk, victim)) {
				victim, best, found = tk, score, true
			}
		}
		e := m.tables[victim]
		evicted = append(evicted, e.table)
		m.bytes -= e.table.Bytes
		delete(m.tables, victim)
		m.evicted++
	}
	return evicted
}

// scoreLocked is a table's eviction score: accumulated pair volume per
// byte — cheap, high-traffic reductions survive longest.
func (m *Model) scoreLocked(e *tableEntry) float64 {
	vol := int64(0)
	if st := m.pairs[e.pair]; st != nil {
		vol = st.volume
	}
	if e.table.Bytes <= 0 {
		return float64(vol)
	}
	return float64(vol) / float64(e.table.Bytes)
}

// lessKey orders table keys deterministically for eviction ties.
func lessKey(a, b TableKey) bool {
	if a.Pred != b.Pred {
		return a.Pred < b.Pred
	}
	if a.Partner != b.Partner {
		return a.Partner < b.Partner
	}
	return a.Pos < b.Pos
}

// Lookup resolves the live reduction of pred against partner at pos
// (from pred's perspective). The handle is the Builder's Data.
func (m *Model) Lookup(pred, partner uint64, pos uint8) (Table, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.tables[TableKey{Pred: pred, Partner: partner, Pos: pos}]
	if !ok {
		return Table{}, false
	}
	m.hits++
	return e.table, true
}

// Peek is Lookup without touching the hit counter — the planner's
// candidate probe, so pricing a rewrite it then declines does not
// count as serving one.
func (m *Model) Peek(pred, partner uint64, pos uint8) (Table, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.tables[TableKey{Pred: pred, Partner: partner, Pos: pos}]
	if !ok {
		return Table{}, false
	}
	return e.table, true
}

// ObserveScan records the executed cardinality of a (predicate,
// constant) scan so other queries sharing the subpattern estimate it
// exactly. The first observation of a new subpattern bumps the epoch
// (cached plans estimated it blind); repeats refresh the value.
func (m *Model) ObserveScan(pred, constID uint64, subjBound bool, rows int64) {
	k := obsKey{pred, constID, subjBound}
	m.mu.Lock()
	if _, seen := m.obs[k]; !seen {
		m.epoch++
	}
	m.obs[k] = rows
	m.mu.Unlock()
}

// LookupObserved returns the recorded cardinality of a (predicate,
// constant) subpattern.
func (m *Model) LookupObserved(pred, constID uint64, subjBound bool) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows, ok := m.obs[obsKey{pred, constID, subjBound}]
	return rows, ok
}

// Invalidate drops every table and observation and bumps the
// generation: reductions and observed cardinalities were computed
// against data that no longer exists. Builds still running against the
// old generation discard their result on install. Invalidate returns
// the tables it dropped.
func (m *Model) Invalidate() []Table {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	m.epoch++
	m.evicted += uint64(len(m.tables))
	dropped := make([]Table, 0, len(m.tables))
	for _, e := range m.tables {
		dropped = append(dropped, e.table)
	}
	m.tables = make(map[TableKey]*tableEntry)
	m.bytes = 0
	m.obs = make(map[obsKey]int64)
	for _, st := range m.pairs {
		st.built = false // allow rebuilds against the new data
	}
	return dropped
}

// Generation returns the current invalidation generation.
func (m *Model) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// Epoch returns the change counter plan-cache keys incorporate.
func (m *Model) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Metrics is the /stats workload block.
type Metrics struct {
	// PairsTracked is the number of distinct canonical predicate pairs
	// observed; Observations counts recorded (pred, const) scans.
	PairsTracked, Observations int
	// TablesBuilt and TablesEvicted are cumulative; TablesLive and
	// TableBytes describe the current set against BudgetBytes.
	TablesBuilt, TablesEvicted uint64
	TablesLive                 int
	TableBytes, BudgetBytes    int64
	// HitCount counts reductions served to executions.
	HitCount uint64
	// Epoch is the plan-cache-visible change counter.
	Epoch uint64
}

// Metrics snapshots the model's counters.
func (m *Model) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Metrics{
		PairsTracked:  len(m.pairs),
		Observations:  len(m.obs),
		TablesBuilt:   m.built,
		TablesEvicted: m.evicted,
		TablesLive:    len(m.tables),
		TableBytes:    m.bytes,
		BudgetBytes:   m.cfg.BudgetBytes,
		HitCount:      m.hits,
		Epoch:         m.epoch,
	}
}

// PairInfo is one tracked pair for EXPLAIN's workload block.
type PairInfo struct {
	P1, P2 uint64
	Pos    stats.JoinPos
	Hits   int64
	Volume int64
	Built  bool
}

// Pairs lists the tracked pairs sorted by descending volume (ties by
// key) — the EXPLAIN candidate listing.
func (m *Model) Pairs() []PairInfo {
	m.mu.Lock()
	out := make([]PairInfo, 0, len(m.pairs))
	for k, st := range m.pairs {
		out = append(out, PairInfo{P1: k.p1, P2: k.p2, Pos: k.pos, Hits: st.hits, Volume: st.volume, Built: st.built})
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Volume != out[b].Volume {
			return out[a].Volume > out[b].Volume
		}
		if out[a].P1 != out[b].P1 {
			return out[a].P1 < out[b].P1
		}
		if out[a].P2 != out[b].P2 {
			return out[a].P2 < out[b].P2
		}
		return out[a].Pos < out[b].Pos
	})
	return out
}

// canonical wraps stats.CanonicalPair over uint64 IDs.
func canonical(p1, p2 uint64, pos uint8) (uint64, uint64, stats.JoinPos) {
	q1, q2, qpos := stats.CanonicalPair(rdf.ID(p1), rdf.ID(p2), stats.JoinPos(pos))
	return uint64(q1), uint64(q2), qpos
}
