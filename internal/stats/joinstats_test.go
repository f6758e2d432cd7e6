package stats

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

// joinFixture builds a small graph with known join cardinalities:
//
//	subjects 1,2 emit {a,b}; subject 3 emits {a,a,c} (a twice).
//	predicate a: (1,a,10) (2,a,10) (3,a,11) (3,a,12)
//	predicate b: (1,b,10) (2,b,20)
//	predicate c: (3,c,10)
const (
	pA rdf.ID = 100
	pB rdf.ID = 101
	pC rdf.ID = 102
)

func joinFixture() []rdf.EncodedTriple {
	return enc(
		[3]rdf.ID{1, pA, 10},
		[3]rdf.ID{2, pA, 10},
		[3]rdf.ID{3, pA, 11},
		[3]rdf.ID{3, pA, 12},
		[3]rdf.ID{1, pB, 10},
		[3]rdf.ID{2, pB, 20},
		[3]rdf.ID{3, pC, 10},
	)
}

func fullStats(t *testing.T) *Collection {
	t.Helper()
	return CollectJoinStats(joinFixture(), Config{CSets: true})
}

func TestCharacteristicSets(t *testing.T) {
	c := fullStats(t)
	if c.Joins == nil {
		t.Fatalf("join stats not collected")
	}
	// Two csets: {a,b} with 2 subjects (1 triple each per predicate) and
	// {a,c} with 1 subject (a twice).
	if len(c.Joins.CSets) != 2 {
		t.Fatalf("csets = %d, want 2: %+v", len(c.Joins.CSets), c.Joins.CSets)
	}
	ab := c.Joins.CSets[0] // sorted by count desc
	if ab.Count != 2 || len(ab.Preds) != 2 || ab.Preds[0] != pA || ab.Preds[1] != pB {
		t.Errorf("cset[0] = %+v, want {a,b} count 2", ab)
	}
	if ab.Triples[0] != 2 || ab.Triples[1] != 2 {
		t.Errorf("cset{a,b} triples = %v, want [2 2]", ab.Triples)
	}
	ac := c.Joins.CSets[1]
	if ac.Count != 1 || ac.Preds[0] != pA || ac.Preds[1] != pC || ac.Triples[0] != 2 {
		t.Errorf("cset[1] = %+v, want {a,c} count 1 with a-triples 2", ac)
	}
}

func TestStarEstimateExactOnStars(t *testing.T) {
	c := fullStats(t)
	// Star {a,b}: subjects 1 and 2 each contribute deg_a·deg_b = 1 → 2.
	subj, rows, ok := c.StarEstimate([]rdf.ID{pA, pB})
	if !ok || subj != 2 || rows != 2 {
		t.Errorf("StarEstimate(a,b) = (%g, %g, %v), want (2, 2, true)", subj, rows, ok)
	}
	// Star {a,c}: subject 3 contributes deg_a·deg_c = 2·1 = 2.
	subj, rows, ok = c.StarEstimate([]rdf.ID{pA, pC})
	if !ok || subj != 1 || rows != 2 {
		t.Errorf("StarEstimate(a,c) = (%g, %g, %v), want (1, 2, true)", subj, rows, ok)
	}
	// Star {a}: every subject; rows = a's triple count.
	subj, rows, ok = c.StarEstimate([]rdf.ID{pA})
	if !ok || subj != 3 || rows != 4 {
		t.Errorf("StarEstimate(a) = (%g, %g, %v), want (3, 4, true)", subj, rows, ok)
	}
	// Star {b,c}: no subject emits both — exact zero.
	subj, rows, ok = c.StarEstimate([]rdf.ID{pB, pC})
	if !ok || subj != 0 || rows != 0 {
		t.Errorf("StarEstimate(b,c) = (%g, %g, %v), want (0, 0, true)", subj, rows, ok)
	}
	// Repeated predicate: {a,a} multiplies a's mean multiplicity twice:
	// cset{a,b}: 2·1·1 = 2; cset{a,c}: 1·2·2 = 4 → 6.
	_, rows, ok = c.StarEstimate([]rdf.ID{pA, pA})
	if !ok || rows != 6 {
		t.Errorf("StarEstimate(a,a) = %g, want 6", rows)
	}
}

// starEstimateByMap is the map-per-cset StarEstimate this package used
// to run, kept as the reference the search-based one must equal bit for
// bit.
func starEstimateByMap(j *JoinStats, preds []rdf.ID) (subjects, rows float64) {
	for ci := range j.CSets {
		cs := &j.CSets[ci]
		mult := make(map[rdf.ID]float64, len(cs.Preds))
		for i, p := range cs.Preds {
			mult[p] = float64(cs.Triples[i]) / float64(cs.Count)
		}
		r := float64(cs.Count)
		contained := true
		for _, p := range preds {
			m, in := mult[p]
			contained = contained && in
			r *= m
		}
		if contained {
			subjects += float64(cs.Count)
			rows += r
		}
	}
	return subjects, rows
}

// TestCSetPredsSortedForStarEstimate: StarEstimate finds a predicate in
// a characteristic set by binary search, so every set's Preds must be
// strictly ascending however the triples arrived — here subjects emit
// their predicates in descending ID order with uneven multiplicities —
// and its estimates must equal the map-based reference exactly.
func TestCSetPredsSortedForStarEstimate(t *testing.T) {
	var spo [][3]rdf.ID
	for s := rdf.ID(1); s <= 60; s++ {
		for p := rdf.ID(120); p >= 100; p-- {
			if (uint64(s)*7+uint64(p)*3)%5 < 2 {
				continue
			}
			for o := rdf.ID(0); o <= (s+p)%3; o++ {
				spo = append(spo, [3]rdf.ID{s, p, 1000 + o})
			}
		}
	}
	c := CollectJoinStats(enc(spo...), Config{CSets: true})
	if len(c.Joins.CSets) < 5 {
		t.Fatalf("fixture yields %d characteristic sets, want a spread", len(c.Joins.CSets))
	}
	for _, cs := range c.Joins.CSets {
		for i := 1; i < len(cs.Preds); i++ {
			if cs.Preds[i-1] >= cs.Preds[i] {
				t.Fatalf("cset Preds not strictly ascending: %v", cs.Preds)
			}
		}
	}
	stars := [][]rdf.ID{{100}, {120, 100}, {105, 110, 115}, {110, 105, 110}, {119, 118, 117, 116}, {100, 999}, {99}}
	for _, preds := range stars {
		subj, rows, ok := c.StarEstimate(preds)
		wantSubj, wantRows := starEstimateByMap(c.Joins, preds)
		if !ok || subj != wantSubj || rows != wantRows {
			t.Errorf("StarEstimate(%v) = (%v, %v, %v), map reference (%v, %v)", preds, subj, rows, ok, wantSubj, wantRows)
		}
	}
}

func TestPairSketchCardinalities(t *testing.T) {
	c := fullStats(t)
	cases := []struct {
		p1, p2     rdf.ID
		pos        JoinPos
		join, keys float64
	}{
		// s-s a⋈b: subjects 1,2 each 1·1 → join 2, keys 2.
		{pA, pB, JoinSS, 2, 2},
		// s-s order-independent.
		{pB, pA, JoinSS, 2, 2},
		// s-s a⋈a self-pair: 1+1+4 = 6 over 3 subjects.
		{pA, pA, JoinSS, 6, 3},
		// o-o a⋈b: object 10 has deg_a 2, deg_b 1 → 2; key count 1.
		{pA, pB, JoinOO, 2, 1},
		// s-o: subject keys of a that appear as objects of a... none.
		// Subject 1..3 never appear as objects, so a s-o a is empty —
		// exact zero with ok=true.
		{pA, pA, JoinSO, 0, 0},
	}
	for _, tt := range cases {
		join, keys, ok := c.PairJoin(uint64(tt.p1), uint64(tt.p2), uint8(tt.pos))
		if !ok || join != tt.join || keys != tt.keys {
			t.Errorf("PairJoin(%d,%d,%v) = (%g, %g, %v), want (%g, %g, true)",
				tt.p1, tt.p2, tt.pos, join, keys, ok, tt.join, tt.keys)
		}
	}
	// Unknown predicate: fall back to independence.
	if _, _, ok := c.PairJoin(9999, uint64(pA), uint8(JoinSS)); ok {
		t.Errorf("PairJoin with unknown predicate reported ok")
	}
	// JoinOS is the transposed JoinSO: o-s b⋈? — object 10 of a joins
	// subject... no subject is 10, so exact zero again; just check the
	// transposition is consistent.
	j1, k1, ok1 := c.PairJoin(uint64(pA), uint64(pB), uint8(JoinSO))
	j2, k2, ok2 := c.PairJoin(uint64(pB), uint64(pA), uint8(JoinOS))
	if j1 != j2 || k1 != k2 || ok1 != ok2 {
		t.Errorf("SO(a,b)=(%g,%g,%v) != OS(b,a)=(%g,%g,%v)", j1, k1, ok1, j2, k2, ok2)
	}
}

func TestTopKTrimFallsBackToIndependence(t *testing.T) {
	// Keep only the single largest pair: everything else must report
	// ok=false (the independence fallback), never a fake zero.
	c := CollectJoinStats(joinFixture(), Config{SketchTopK: 1})
	// a⋈a s-s (join 6) is the volume leader and must be kept.
	if join, _, ok := c.PairJoin(uint64(pA), uint64(pA), uint8(JoinSS)); !ok || join != 6 {
		t.Fatalf("top-1 sketch lost the largest pair: (%g, %v)", join, ok)
	}
	// a⋈b s-s was a candidate but is trimmed → independence fallback.
	if _, _, ok := c.PairJoin(uint64(pA), uint64(pB), uint8(JoinSS)); ok {
		t.Errorf("trimmed pair reported a sketch value instead of falling back")
	}
	// b⋈c s-s never co-occurs → still an exact zero.
	if join, _, ok := c.PairJoin(uint64(pB), uint64(pC), uint8(JoinSS)); !ok || join != 0 {
		t.Errorf("never-co-occurring pair = (%g, %v), want exact zero", join, ok)
	}
	sum, ok := c.JoinStatsSummary()
	if !ok || sum.SketchPairs != 1 || sum.CandidatePairs <= 1 {
		t.Errorf("summary = %+v, want 1 kept of several candidates", sum)
	}
	if sum.VolumeCoverage <= 0 || sum.VolumeCoverage >= 1 {
		t.Errorf("volume coverage = %g, want in (0,1) after trimming", sum.VolumeCoverage)
	}
}

func TestSketchesDisabledFallBack(t *testing.T) {
	c := CollectJoinStats(joinFixture(), Config{CSets: true, SketchTopK: -1})
	if _, _, ok := c.PairJoin(uint64(pA), uint64(pB), uint8(JoinSS)); ok {
		t.Errorf("disabled sketches still answered a pair lookup")
	}
	if _, _, ok := c.StarEstimate([]rdf.ID{pA, pB}); !ok {
		t.Errorf("csets disabled although requested")
	}
	// A cset-only collection reports zero sketch coverage — no pair
	// lookup can succeed, so the summary must not claim 100%.
	if js, ok := c.JoinStatsSummary(); !ok || js.VolumeCoverage != 0 || js.SketchPairs != 0 {
		t.Errorf("cset-only summary = %+v (ok=%v), want zero sketch coverage", js, ok)
	}
	// Plain Collect keeps Joins nil and both lookups fall back.
	plain := Collect(joinFixture())
	if plain.Joins != nil {
		t.Fatalf("Collect attached join stats")
	}
	if _, _, ok := plain.StarEstimate([]rdf.ID{pA}); ok {
		t.Errorf("plain collection answered a star estimate")
	}
}

func TestFingerprintSensitiveToJoinStats(t *testing.T) {
	base := Collect(joinFixture()).Fingerprint()
	full := fullStats(t).Fingerprint()
	csetOnly := CollectJoinStats(joinFixture(), Config{CSets: true, SketchTopK: -1}).Fingerprint()
	trimmed := CollectJoinStats(joinFixture(), Config{CSets: true, SketchTopK: 1}).Fingerprint()
	seen := map[uint64]string{base: "base"}
	for name, fp := range map[string]uint64{"full": full, "csetOnly": csetOnly, "trimmed": trimmed} {
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision between %s and %s", prev, name)
		}
		seen[fp] = name
	}
	// Same config, same data → identical fingerprints.
	again := CollectJoinStats(joinFixture(), Config{CSets: true}).Fingerprint()
	if again != full {
		t.Errorf("fingerprint not deterministic: %x vs %x", again, full)
	}
}

func TestSummaryReportsJoinStats(t *testing.T) {
	d := rdf.NewDictionary()
	s, _ := d.Encode(rdf.NewIRI("http://s"))
	p, _ := d.Encode(rdf.NewIRI("http://example.org/follows"))
	o, _ := d.Encode(rdf.NewIRI("http://o"))
	c := CollectJoinStats([]rdf.EncodedTriple{{S: s, P: p, O: o}}, Config{CSets: true})
	sum := c.Summary(d)
	if !strings.Contains(sum, "join stats:") || !strings.Contains(sum, "characteristic sets") {
		t.Errorf("summary missing join-stats block:\n%s", sum)
	}
	js, ok := c.JoinStatsSummary()
	if !ok || js.CSets != 1 || js.MemoryBytes <= 0 {
		t.Errorf("JoinStatsSummary = %+v, %v", js, ok)
	}
}
