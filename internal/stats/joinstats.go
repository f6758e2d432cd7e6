// Join-graph statistics: characteristic sets and two-predicate join
// sketches, collected in the same loading pass as the per-predicate
// counts. They exist to price exactly the joins the independence
// assumption misprices — correlated predicate pairs (likes ⋈ likes
// triangles) and subject stars — before the first execution, so the
// adaptive re-planner only has to catch what these statistics cannot
// express.
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
	"slices"
	"sort"

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
// join-graph statistics selected by cfg, in one pass over the encoded
// triples (plus one pass over the per-key groups).
func CollectJoinStats(triples []rdf.EncodedTriple, cfg Config) *Collection {
	c := Collect(triples)
	if !cfg.CSets && cfg.SketchTopK < 0 {
		return c
	}
	j := &JoinStats{}

	// Group degrees by key once; characteristic sets read the subject
	// side, sketches read both. The object side is skipped entirely
	// when pair sketches are disabled — csets never consume it.
	subjDeg := make(map[rdf.ID]map[rdf.ID]int64)
	var objDeg map[rdf.ID]map[rdf.ID]int64
	if cfg.SketchTopK >= 0 {
		objDeg = make(map[rdf.ID]map[rdf.ID]int64)
	}
	for _, t := range triples {
		sd := subjDeg[t.S]
		if sd == nil {
			sd = make(map[rdf.ID]int64, 4)
			subjDeg[t.S] = sd
		}
		sd[t.P]++
		if objDeg != nil {
			od := objDeg[t.O]
			if od == nil {
				od = make(map[rdf.ID]int64, 2)
				objDeg[t.O] = od
			}
			od[t.P]++
		}
	}

	if cfg.CSets {
		j.collectCSets(subjDeg)
	}
	if cfg.SketchTopK >= 0 {
		topK := cfg.SketchTopK
		if topK == 0 {
			topK = DefaultSketchTopK
		}
		j.collectSketches(subjDeg, objDeg, topK)
	}
	c.Joins = j
	return c
}

// collectCSets derives the characteristic sets from the per-subject
// predicate degrees.
func (j *JoinStats) collectCSets(subjDeg map[rdf.ID]map[rdf.ID]int64) {
	type accum struct {
		count   int64
		triples map[rdf.ID]int64
	}
	sets := make(map[string]*accum)
	keyOf := make(map[string][]rdf.ID)
	var keyBuf []byte
	for _, degs := range subjDeg {
		preds := make([]rdf.ID, 0, len(degs))
		for p := range degs {
			preds = append(preds, p)
		}
		sort.Slice(preds, func(a, b int) bool { return preds[a] < preds[b] })
		keyBuf = keyBuf[:0]
		for _, p := range preds {
			keyBuf = append(keyBuf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
		}
		k := string(keyBuf)
		a := sets[k]
		if a == nil {
			a = &accum{triples: make(map[rdf.ID]int64, len(preds))}
			sets[k] = a
			keyOf[k] = preds
		}
		a.count++
		for p, d := range degs {
			a.triples[p] += d
		}
	}

	j.CSets = make([]CharacteristicSet, 0, len(sets))
	for k, a := range sets {
		preds := keyOf[k]
		cs := CharacteristicSet{Preds: preds, Count: a.count, Triples: make([]int64, len(preds))}
		for i, p := range preds {
			cs.Triples[i] = a.triples[p]
		}
		j.CSets = append(j.CSets, cs)
	}
	sort.Slice(j.CSets, func(a, b int) bool {
		if j.CSets[a].Count != j.CSets[b].Count {
			return j.CSets[a].Count > j.CSets[b].Count
		}
		return lessPredList(j.CSets[a].Preds, j.CSets[b].Preds)
	})
	j.byPred = make(map[rdf.ID][]int)
	for i, cs := range j.CSets {
		for _, p := range cs.Preds {
			j.byPred[p] = append(j.byPred[p], i)
		}
	}
}

// lessPredList orders predicate lists lexicographically.
func lessPredList(a, b []rdf.ID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// collectSketches enumerates every co-occurring predicate pair per join
// position, computes its exact join cardinality and shared-key count,
// and keeps the top-K pairs by join volume.
func (j *JoinStats) collectSketches(subjDeg, objDeg map[rdf.ID]map[rdf.ID]int64, topK int) {
	j.TopK = topK
	acc := make(map[pairKey]*PairSketch)
	add := func(k pairKey, join int64) {
		s := acc[k]
		if s == nil {
			s = &PairSketch{}
			acc[k] = s
		}
		s.Join += join
		s.Keys++
	}
	for key, sd := range subjDeg {
		// Same-key subject pairs (s-s), including self-pairs: the
		// likes ⋈ likes shape.
		for p1, d1 := range sd {
			for p2, d2 := range sd {
				if p2 < p1 {
					continue
				}
				add(pairKey{p1, p2, JoinSS}, d1*d2)
			}
		}
		// Subject-object pairs (s-o) on the same key value.
		if od := objDeg[key]; od != nil {
			for p1, d1 := range sd {
				for p2, d2 := range od {
					add(pairKey{p1, p2, JoinSO}, d1*d2)
				}
			}
		}
	}
	for _, od := range objDeg {
		for p1, d1 := range od {
			for p2, d2 := range od {
				if p2 < p1 {
					continue
				}
				add(pairKey{p1, p2, JoinOO}, d1*d2)
			}
		}
	}

	j.candidates = make(map[pairKey]struct{}, len(acc))
	keys := make([]pairKey, 0, len(acc))
	for k, s := range acc {
		j.candidates[k] = struct{}{}
		j.totalVolume += float64(s.Join)
		keys = append(keys, k)
	}
	// Top-K by join volume, deterministic tie-break by key.
	sort.Slice(keys, func(a, b int) bool {
		ja, jb := acc[keys[a]].Join, acc[keys[b]].Join
		if ja != jb {
			return ja > jb
		}
		ka, kb := keys[a], keys[b]
		if ka.pos != kb.pos {
			return ka.pos < kb.pos
		}
		if ka.p1 != kb.p1 {
			return ka.p1 < kb.p1
		}
		return ka.p2 < kb.p2
	})
	if len(keys) > topK {
		keys = keys[:topK]
	}
	j.sketches = make(map[pairKey]PairSketch, len(keys))
	for _, k := range keys {
		j.sketches[k] = *acc[k]
		j.keptVolume += float64(acc[k].Join)
	}
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
// fingerprint, so enabling, disabling or re-bounding them invalidates
// cached plans exactly like a data change would.
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
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].pos != keys[b].pos {
			return keys[a].pos < keys[b].pos
		}
		if keys[a].p1 != keys[b].p1 {
			return keys[a].p1 < keys[b].p1
		}
		return keys[a].p2 < keys[b].p2
	})
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
