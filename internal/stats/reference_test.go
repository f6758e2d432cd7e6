package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/watdiv"
)

// The map-based collectors the sorted-run scan replaced, kept verbatim
// as the reference the differential tests hold CollectJoinStats to:
// five maps for the per-predicate counts, a map of maps per subject and
// per object for the join-graph statistics.

// refCollect computes the per-predicate statistics in one pass.
func refCollect(triples []rdf.EncodedTriple) *Collection {
	c := &Collection{ByPredicate: make(map[rdf.ID]*Predicate)}
	type pair struct{ a, b rdf.ID }
	subjSeen := make(map[pair]struct{})
	objSeen := make(map[pair]struct{})
	allSubj := make(map[rdf.ID]struct{})
	allObj := make(map[rdf.ID]struct{})
	for _, t := range triples {
		ps, ok := c.ByPredicate[t.P]
		if !ok {
			ps = &Predicate{}
			c.ByPredicate[t.P] = ps
		}
		ps.Triples++
		sk := pair{t.P, t.S}
		if _, dup := subjSeen[sk]; !dup {
			subjSeen[sk] = struct{}{}
			ps.DistinctSubjects++
		} else {
			ps.MultiValued = true
		}
		ok2 := pair{t.P, t.O}
		if _, dup := objSeen[ok2]; !dup {
			objSeen[ok2] = struct{}{}
			ps.DistinctObjects++
		}
		allSubj[t.S] = struct{}{}
		allObj[t.O] = struct{}{}
	}
	c.TotalTriples = int64(len(triples))
	c.DistinctSubjects = int64(len(allSubj))
	c.DistinctObjects = int64(len(allObj))
	return c
}

// refCollectJoinStats computes the per-predicate statistics plus the
// join-graph statistics selected by cfg, in one pass over the encoded
// triples (plus one pass over the per-key groups).
func refCollectJoinStats(triples []rdf.EncodedTriple, cfg Config) *Collection {
	c := refCollect(triples)
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
		j.refCollectCSets(subjDeg)
	}
	if cfg.SketchTopK >= 0 {
		topK := cfg.SketchTopK
		if topK == 0 {
			topK = DefaultSketchTopK
		}
		j.refCollectSketches(subjDeg, objDeg, topK)
	}
	c.Joins = j
	return c
}

// refCollectCSets derives the characteristic sets from the per-subject
// predicate degrees.
func (j *JoinStats) refCollectCSets(subjDeg map[rdf.ID]map[rdf.ID]int64) {
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

// refCollectSketches enumerates every co-occurring predicate pair per join
// position, computes its exact join cardinality and shared-key count,
// and keeps the top-K pairs by join volume.
func (j *JoinStats) refCollectSketches(subjDeg, objDeg map[rdf.ID]map[rdf.ID]int64, topK int) {
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

// lessPredList orders predicate lists lexicographically.
func lessPredList(a, b []rdf.ID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// sameCollection fails the test unless got is the reference's
// collection to the last unexported field, and fingerprints alike.
func sameCollection(t *testing.T, label string, triples []rdf.EncodedTriple, cfg Config) {
	t.Helper()
	got, want := CollectJoinStats(triples, cfg), refCollectJoinStats(triples, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %+v: collection differs from the map-based reference\n got %+v joins %+v\nwant %+v joins %+v",
			label, cfg, got, got.Joins, want, want.Joins)
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Errorf("%s %+v: fingerprint %x, reference %x", label, cfg, g, w)
	}
}

// statConfigs are the configurations a load can ask for, plus the
// top-K bounds small enough to tie and trim on any input.
var statConfigs = []Config{
	{CSets: true},
	{CSets: true, SketchTopK: 1},
	{CSets: true, SketchTopK: 2},
	{CSets: true, SketchTopK: -1},
	{CSets: false},
	{CSets: false, SketchTopK: 2},
	{CSets: false, SketchTopK: -1},
}

func TestSortedRunStatsMatchReferenceOnWatDiv(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 300, Seed: 3})
	triples := rdf.NewDictionary().EncodeGraph(g)
	for _, cfg := range statConfigs {
		sameCollection(t, "watdiv", triples, cfg)
	}
	if got, want := Collect(triples), refCollect(triples); !reflect.DeepEqual(got, want) {
		t.Errorf("Collect differs from the reference: got %+v want %+v", got, want)
	}
}

// TestSortedRunStatsMatchReferenceOnRandomTriples draws small dense
// triple sets whose few IDs serve as subjects, predicates and objects at
// once, so every shape the collectors distinguish occurs: multi-valued
// and self-joining predicates, keys that are both subject and object,
// pairs tied on join volume at the top-K cut, and repeated triples
// (which the loader removes, but Collect's contract does not require).
func TestSortedRunStatsMatchReferenceOnRandomTriples(t *testing.T) {
	sameCollection(t, "empty", nil, Config{CSets: true})
	sameCollection(t, "empty", nil, Config{SketchTopK: -1})
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys, preds := 2+rng.Intn(12), 1+rng.Intn(6)
		triples := make([]rdf.EncodedTriple, rng.Intn(120))
		for i := range triples {
			triples[i] = rdf.EncodedTriple{
				S: rdf.ID(1 + rng.Intn(keys)),
				P: rdf.ID(1 + rng.Intn(preds)),
				O: rdf.ID(1 + rng.Intn(keys)),
			}
		}
		for _, cfg := range statConfigs {
			sameCollection(t, fmt.Sprintf("seed %d", seed), triples, cfg)
		}
	}
}
