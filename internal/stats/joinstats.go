// Join-graph statistics: characteristic sets and two-predicate join
// sketches, collected in the same scan as the per-predicate counts.
// They exist to price exactly the joins the independence assumption
// misprices — correlated predicate pairs (likes ⋈ likes
// triangles) and subject stars — before the first execution, so
// correction between executions only has to catch what these statistics
// cannot express.
//
// Estimator precedence (documented contract, enforced by the accuracy
// harness in internal/plan): characteristic sets price subject stars,
// pair sketches price two-predicate joins sharing a position, and
// everything else falls back to the textbook independence assumption.
// A predicate pair outside the kept top-K also falls back to
// independence; pairs that never share a key are known-empty and are
// reported as an exact zero.
package stats

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/rdf"
)

// DefaultSketchTopK bounds the pair sketches kept when Config.SketchTopK
// is zero. WatDiv-scale vocabularies produce a few hundred co-occurring
// pairs, so the default keeps full coverage there while bounding memory
// on datasets with quadratic pair blowup.
const DefaultSketchTopK = 512

// JoinPos identifies which position of each pattern in an ordered
// predicate pair (p1, p2) carries the shared join key. The numeric
// values are a cross-package contract: internal/plan's PairPos uses the
// same encoding.
type JoinPos uint8

// Join positions.
const (
	// JoinSS joins p1's subject with p2's subject.
	JoinSS JoinPos = iota
	// JoinSO joins p1's subject with p2's object.
	JoinSO
	// JoinOS joins p1's object with p2's subject.
	JoinOS
	// JoinOO joins p1's object with p2's object.
	JoinOO
)

// String implements fmt.Stringer.
func (p JoinPos) String() string {
	switch p {
	case JoinSS:
		return "s-s"
	case JoinSO:
		return "s-o"
	case JoinOS:
		return "o-s"
	default:
		return "o-o"
	}
}

// Config selects which join-graph statistics CollectJoinStats gathers
// on top of the per-predicate counts.
type Config struct {
	// CSets enables characteristic sets (per distinct predicate-set
	// emitted by a subject: occurrence count and per-predicate mean
	// multiplicity).
	CSets bool
	// SketchTopK bounds the two-predicate join sketches kept: 0 uses
	// DefaultSketchTopK, negative disables pair sketches entirely.
	SketchTopK int
}

// CharacteristicSet records one distinct predicate combination emitted
// by subjects: how many subjects emit exactly this set, and how many
// triples those subjects emit per predicate (so Triples[i]/Count is the
// mean multiplicity of Preds[i] within the set).
type CharacteristicSet struct {
	// Preds is the predicate set, sorted ascending by ID.
	Preds []rdf.ID
	// Count is the number of subjects whose predicate set is exactly
	// Preds.
	Count int64
	// Triples holds, parallel to Preds, the total triples these subjects
	// emit with each predicate.
	Triples []int64
}

// pairKey identifies one ordered predicate pair at one join position,
// in canonical form: JoinSS and JoinOO entries keep p1 <= p2 (they are
// symmetric) and JoinOS is stored as the transposed JoinSO.
type pairKey struct {
	p1, p2 rdf.ID
	pos    JoinPos
}

// canonicalPair normalizes a (p1, p2, pos) query to its stored form.
func canonicalPair(p1, p2 rdf.ID, pos JoinPos) pairKey {
	switch pos {
	case JoinSS, JoinOO:
		if p2 < p1 {
			p1, p2 = p2, p1
		}
		return pairKey{p1, p2, pos}
	case JoinOS:
		return pairKey{p2, p1, JoinSO}
	default:
		return pairKey{p1, p2, JoinSO}
	}
}

// CanonicalPair normalizes an ordered (p1, p2, pos) predicate pair to
// the canonical form the sketch store (and the workload model's pair
// accounting) key by: symmetric positions keep p1 <= p2 and o-s is
// stored as the transposed s-o. The workload layer uses it so that the
// same physical join observed from either side accumulates into one
// counter.
func CanonicalPair(p1, p2 rdf.ID, pos JoinPos) (q1, q2 rdf.ID, qpos JoinPos) {
	k := canonicalPair(p1, p2, pos)
	return k.p1, k.p2, k.pos
}

// Cols returns the column each side joins on in a two-column (s, o)
// table — 0 for the subject, 1 for the object: p1's, then p2's.
func (p JoinPos) Cols() (c1, c2 int) {
	switch p {
	case JoinSS:
		return 0, 0
	case JoinSO:
		return 0, 1
	case JoinOS:
		return 1, 0
	default:
		return 1, 1
	}
}

// Transpose returns the join position as seen from the other side of
// the pair: s-o becomes o-s and the symmetric positions are unchanged.
func (p JoinPos) Transpose() JoinPos {
	switch p {
	case JoinSO:
		return JoinOS
	case JoinOS:
		return JoinSO
	default:
		return p
	}
}

// PairSketch is the sketch for one predicate pair at one join
// position: the exact join cardinality and the number of distinct key
// values both sides share.
type PairSketch struct {
	// Join is Σ over shared keys v of deg_p1(v) · deg_p2(v) — the exact
	// cardinality of the two-pattern join at this position.
	Join int64
	// Keys is the number of distinct key values appearing on both sides.
	Keys int64
}

// JoinStats bundles the join-graph statistics of one collection.
type JoinStats struct {
	// CSets lists the characteristic sets, sorted by descending Count
	// (ties by predicate list) for deterministic iteration.
	CSets []CharacteristicSet
	// TopK is the resolved sketch bound the collection was built with
	// (0 when sketches are disabled).
	TopK int

	// byPred maps a predicate to the indexes of the CSets containing it.
	byPred map[rdf.ID][]int
	// sketches holds the kept (top-K) pair sketches.
	sketches map[pairKey]PairSketch
	// candidates marks every pair with Join > 0 seen before the top-K
	// trim, so lookups can tell "trimmed, fall back to independence"
	// from "never co-occurs, exact zero".
	candidates map[pairKey]struct{}
	// keptVolume and totalVolume sum the join cardinalities of the kept
	// sketches and of all candidates, for coverage reporting.
	keptVolume, totalVolume float64
}

// CollectJoinStats computes the per-predicate statistics plus the
// join-graph statistics selected by cfg.
//
// Every count is a property of the triples grouped by subject or by
// object, so the triples are copied twice as packed (key, predicate)
// pairs — keyed on subject and on object — each copy is sorted, and one
// merge over both visits every key once with its two runs: the
// predicates it carries as a subject and as an object, each with its
// degree. Distinct counts, MultiValued, characteristic sets and the
// s-s / o-o / s-o pair sketches are all read off those runs; nothing is
// allocated per key.
func CollectJoinStats(triples []rdf.EncodedTriple, cfg Config) *Collection {
	c := &Collection{ByPredicate: make(map[rdf.ID]*Predicate), TotalTriples: int64(len(triples))}
	var csets *csetBuilder
	if cfg.CSets {
		csets = &csetBuilder{index: make(map[string]int), sets: []CharacteristicSet{}}
	}
	var sketches *sketchBuilder
	if cfg.SketchTopK >= 0 {
		sketches = &sketchBuilder{index: make(map[pairKey]int)}
	}

	bySubj := make([]uint64, len(triples))
	byObj := make([]uint64, len(triples))
	for i, t := range triples {
		bySubj[i] = uint64(t.S)<<32 | uint64(t.P)
		byObj[i] = uint64(t.O)<<32 | uint64(t.P)
	}
	slices.Sort(bySubj)
	slices.Sort(byObj)

	predicate := func(p rdf.ID) *Predicate {
		ps := c.ByPredicate[p]
		if ps == nil {
			ps = &Predicate{}
			c.ByPredicate[p] = ps
		}
		return ps
	}
	// head is the pair at i, or past every real key once pairs is spent.
	head := func(pairs []uint64, i int) uint64 {
		if i < len(pairs) {
			return pairs[i]
		}
		return math.MaxUint64
	}
	var subj, obj []predDeg // the current key's two runs, reused
	for si, oi := 0, 0; si < len(bySubj) || oi < len(byObj); {
		key := rdf.ID(min(head(bySubj, si), head(byObj, oi)) >> 32)
		subj, si = keyRun(bySubj, si, key, subj[:0])
		obj, oi = keyRun(byObj, oi, key, obj[:0])

		if len(subj) > 0 {
			c.DistinctSubjects++
		}
		for _, pd := range subj {
			ps := predicate(pd.pred)
			ps.Triples += pd.deg
			ps.DistinctSubjects++
			if pd.deg > 1 {
				ps.MultiValued = true
			}
		}
		if len(obj) > 0 {
			c.DistinctObjects++
		}
		for _, pd := range obj {
			predicate(pd.pred).DistinctObjects++
		}
		if csets != nil && len(subj) > 0 {
			csets.add(subj)
		}
		if sketches != nil {
			sketches.addKey(subj, obj)
		}
	}

	if csets == nil && sketches == nil {
		return c
	}
	c.Joins = &JoinStats{}
	if csets != nil {
		csets.finish(c.Joins)
	}
	if sketches != nil {
		topK := cfg.SketchTopK
		if topK == 0 {
			topK = DefaultSketchTopK
		}
		sketches.finish(c.Joins, topK)
	}
	return c
}

// predDeg is one predicate at one key: how many of the key's triples
// (as subject, or as object) carry it.
type predDeg struct {
	pred rdf.ID
	deg  int64
}

// keyRun appends to run the predicates, ascending, of the pairs from
// pairs[i] on whose key is key — none, if the next pair belongs to a
// later key — and returns the position after them.
func keyRun(pairs []uint64, i int, key rdf.ID, run []predDeg) ([]predDeg, int) {
	for i < len(pairs) && rdf.ID(pairs[i]>>32) == key {
		pair := pairs[i]
		n := i + 1
		for n < len(pairs) && pairs[n] == pair {
			n++
		}
		run = append(run, predDeg{pred: rdf.ID(pair), deg: int64(n - i)})
		i = n
	}
	return run, i
}

// csetBuilder accumulates characteristic sets, one subject run at a
// time.
type csetBuilder struct {
	// index maps a predicate list, as its IDs' bytes, to its set.
	index map[string]int
	sets  []CharacteristicSet
	key   []byte
}

// add counts one subject, whose predicates (ascending) and degrees are
// run.
func (b *csetBuilder) add(run []predDeg) {
	b.key = b.key[:0]
	for _, pd := range run {
		b.key = binary.LittleEndian.AppendUint32(b.key, uint32(pd.pred))
	}
	i, ok := b.index[string(b.key)]
	if !ok {
		i = len(b.sets)
		b.index[string(b.key)] = i
		preds := make([]rdf.ID, len(run))
		for k, pd := range run {
			preds[k] = pd.pred
		}
		b.sets = append(b.sets, CharacteristicSet{Preds: preds, Triples: make([]int64, len(run))})
	}
	cs := &b.sets[i]
	cs.Count++
	for k, pd := range run {
		cs.Triples[k] += pd.deg
	}
}

// finish orders the sets and indexes them by predicate.
func (b *csetBuilder) finish(j *JoinStats) {
	j.CSets = b.sets
	slices.SortFunc(j.CSets, func(x, y CharacteristicSet) int {
		if x.Count != y.Count {
			return cmp.Compare(y.Count, x.Count)
		}
		return slices.Compare(x.Preds, y.Preds)
	})
	j.byPred = make(map[rdf.ID][]int)
	for i, cs := range j.CSets {
		for _, p := range cs.Preds {
			j.byPred[p] = append(j.byPred[p], i)
		}
	}
}

// sketchBuilder accumulates, per predicate pair and join position, the
// exact join cardinality and the shared-key count.
type sketchBuilder struct {
	index map[pairKey]int
	pairs []keyedSketch
}

type keyedSketch struct {
	key pairKey
	PairSketch
}

// addKey counts one key value: every pair of predicates it carries as a
// subject (s-s, self-pairs included: the likes ⋈ likes shape), every
// pair it carries as an object (o-o), and every subject-side predicate
// against every object-side one (s-o).
func (b *sketchBuilder) addKey(subj, obj []predDeg) {
	for i, x := range subj {
		for _, y := range subj[i:] {
			b.add(pairKey{x.pred, y.pred, JoinSS}, x.deg*y.deg)
		}
		for _, y := range obj {
			b.add(pairKey{x.pred, y.pred, JoinSO}, x.deg*y.deg)
		}
	}
	for i, x := range obj {
		for _, y := range obj[i:] {
			b.add(pairKey{x.pred, y.pred, JoinOO}, x.deg*y.deg)
		}
	}
}

func (b *sketchBuilder) add(k pairKey, join int64) {
	i, ok := b.index[k]
	if !ok {
		i = len(b.pairs)
		b.index[k] = i
		b.pairs = append(b.pairs, keyedSketch{key: k})
	}
	b.pairs[i].Join += join
	b.pairs[i].Keys++
}

// finish keeps the top-K pairs by join volume, ties broken by key, and
// remembers every candidate so a trimmed pair is told from one that
// never co-occurs.
func (b *sketchBuilder) finish(j *JoinStats, topK int) {
	j.TopK = topK
	j.candidates = make(map[pairKey]struct{}, len(b.pairs))
	for _, p := range b.pairs {
		j.candidates[p.key] = struct{}{}
		j.totalVolume += float64(p.Join)
	}
	slices.SortFunc(b.pairs, func(x, y keyedSketch) int {
		if x.Join != y.Join {
			return cmp.Compare(y.Join, x.Join)
		}
		return comparePairKeys(x.key, y.key)
	})
	kept := b.pairs[:min(len(b.pairs), topK)]
	j.sketches = make(map[pairKey]PairSketch, len(kept))
	for _, p := range kept {
		j.sketches[p.key] = p.PairSketch
		j.keptVolume += float64(p.Join)
	}
}

// comparePairKeys orders pair keys by position, then predicates.
func comparePairKeys(x, y pairKey) int {
	if c := cmp.Compare(x.pos, y.pos); c != 0 {
		return c
	}
	if c := cmp.Compare(x.p1, y.p1); c != 0 {
		return c
	}
	return cmp.Compare(x.p2, y.p2)
}

// StarEstimate prices a subject star (every predicate constraining the
// same subject) from the characteristic sets: subjects is the number
// of subjects whose predicate set contains every listed predicate, and
// rows is the estimated star output Σ over matching sets of
// count · Π mean-multiplicity, with repeated predicates multiplying
// their mean multiplicity once per occurrence. ok is false when
// characteristic sets were not collected; a true return with zero
// counts is exact knowledge that no subject emits the combination.
func (c *Collection) StarEstimate(preds []rdf.ID) (subjects, rows float64, ok bool) {
	j := c.Joins
	if j == nil || len(j.byPred) == 0 {
		return 0, 0, false
	}
	if len(preds) == 0 {
		return 0, 0, false
	}
	// Scan the csets of the rarest predicate only.
	rarest := preds[0]
	for _, p := range preds[1:] {
		if len(j.byPred[p]) < len(j.byPred[rarest]) {
			rarest = p
		}
	}
nextSet:
	for _, ci := range j.byPred[rarest] {
		cs := &j.CSets[ci]
		// cs.Preds is ascending, so each lookup is a binary search; the
		// product is taken in preds order to keep the estimate's bits.
		r := float64(cs.Count)
		for _, p := range preds {
			i, in := slices.BinarySearch(cs.Preds, p)
			if !in {
				continue nextSet
			}
			r *= float64(cs.Triples[i]) / float64(cs.Count)
		}
		subjects += float64(cs.Count)
		rows += r
	}
	return subjects, rows, true
}

// PairJoin implements the planner's sketch lookup (the
// plan.JoinStatsProvider contract; pos uses the JoinPos encoding). It
// returns the exact join cardinality and shared-key count for the
// ordered predicate pair when its sketch was kept; an exact zero when
// sketches were collected and the pair provably never shares a key at
// this position; and ok=false — the documented independence fallback —
// when the pair was trimmed by the top-K bound, a predicate is
// unknown, or sketches were not collected.
func (c *Collection) PairJoin(p1, p2 uint64, pos uint8) (join, keys float64, ok bool) {
	j := c.Joins
	if j == nil || j.sketches == nil {
		return 0, 0, false
	}
	id1, id2 := rdf.ID(p1), rdf.ID(p2)
	if _, in := c.ByPredicate[id1]; !in {
		return 0, 0, false
	}
	if _, in := c.ByPredicate[id2]; !in {
		return 0, 0, false
	}
	k := canonicalPair(id1, id2, JoinPos(pos))
	if s, kept := j.sketches[k]; kept {
		return float64(s.Join), float64(s.Keys), true
	}
	if _, cand := j.candidates[k]; cand {
		return 0, 0, false // trimmed by top-K: fall back to independence
	}
	// Both predicates occur but never share a key at this position: the
	// join is provably empty.
	return 0, 0, true
}

// PredTriples implements the planner's scaling denominator: the
// predicate's exact triple count (the population a pair sketch was
// computed over).
func (c *Collection) PredTriples(p uint64) float64 {
	return float64(c.Predicate(rdf.ID(p)).Triples)
}

// JoinStatsSummary reports the join-graph statistics' size and
// coverage — what /stats and EXPLAIN surface so an independence
// fallback can be attributed to the top-K bound.
type JoinStatsSummary struct {
	// CSets is the number of characteristic sets held.
	CSets int
	// SketchPairs is the number of pair sketches kept; CandidatePairs
	// counts every co-occurring pair seen before the top-K trim.
	SketchPairs, CandidatePairs int
	// TopK is the configured sketch bound (0 = sketches disabled).
	TopK int
	// VolumeCoverage is the fraction of the candidates' total join
	// volume the kept sketches cover (1 when nothing was trimmed).
	VolumeCoverage float64
	// MemoryBytes estimates the in-memory footprint of the join-graph
	// statistics.
	MemoryBytes int64
}

// JoinStatsSummary summarizes the collection's join-graph statistics;
// ok is false when none were collected.
func (c *Collection) JoinStatsSummary() (JoinStatsSummary, bool) {
	j := c.Joins
	if j == nil {
		return JoinStatsSummary{}, false
	}
	s := JoinStatsSummary{
		CSets:          len(j.CSets),
		SketchPairs:    len(j.sketches),
		CandidatePairs: len(j.candidates),
		TopK:           j.TopK,
	}
	// Coverage answers "can a pair lookup succeed": 0 when sketches were
	// not collected at all (every pair prices as independence), the kept
	// fraction of the candidate join volume otherwise (1 when nothing
	// was trimmed, including the trivial no-candidates case).
	switch {
	case j.sketches == nil:
		s.VolumeCoverage = 0
	case j.totalVolume > 0:
		s.VolumeCoverage = j.keptVolume / j.totalVolume
	default:
		s.VolumeCoverage = 1
	}
	for _, cs := range j.CSets {
		// Preds + Triples slices plus the struct header.
		s.MemoryBytes += int64(len(cs.Preds))*12 + 48
	}
	// One sketch entry: key (12 bytes padded) + value (16 bytes) plus
	// map overhead; candidate entries hold the key only.
	s.MemoryBytes += int64(len(j.sketches))*40 + int64(len(j.candidates))*24
	return s, true
}

// fingerprintJoins mixes the join-graph statistics into a collection
// fingerprint, so enabling, disabling or re-bounding them changes it
// exactly like a data change would.
func (j *JoinStats) fingerprint(mix func(uint64)) {
	if j == nil {
		mix(0)
		return
	}
	mix(1)
	mix(uint64(j.TopK))
	mix(uint64(len(j.CSets)))
	for _, cs := range j.CSets {
		mix(uint64(len(cs.Preds)))
		for i, p := range cs.Preds {
			mix(uint64(p))
			mix(uint64(cs.Triples[i]))
		}
		mix(uint64(cs.Count))
	}
	keys := make([]pairKey, 0, len(j.sketches))
	for k := range j.sketches {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, comparePairKeys)
	mix(uint64(len(keys)))
	for _, k := range keys {
		s := j.sketches[k]
		mix(uint64(k.pos))
		mix(uint64(k.p1))
		mix(uint64(k.p2))
		mix(uint64(s.Join))
		mix(uint64(s.Keys))
	}
}
