package stats

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

// enc builds encoded triples from int IDs for compact fixtures.
func enc(spo ...[3]rdf.ID) []rdf.EncodedTriple {
	out := make([]rdf.EncodedTriple, len(spo))
	for i, t := range spo {
		out[i] = rdf.EncodedTriple{S: t[0], P: t[1], O: t[2]}
	}
	return out
}

func TestCollectBasicCounts(t *testing.T) {
	// predicate 100: subjects {1,2}, objects {10, 11, 12}; subject 1 has
	// two objects (multi-valued).
	// predicate 200: subjects {1}, objects {20}.
	c := Collect(enc(
		[3]rdf.ID{1, 100, 10},
		[3]rdf.ID{1, 100, 11},
		[3]rdf.ID{2, 100, 12},
		[3]rdf.ID{1, 200, 20},
	))
	if c.TotalTriples != 4 {
		t.Errorf("TotalTriples = %d, want 4", c.TotalTriples)
	}
	p100 := c.Predicate(100)
	if p100.Triples != 3 || p100.DistinctSubjects != 2 || p100.DistinctObjects != 3 {
		t.Errorf("p100 = %+v", p100)
	}
	if !p100.MultiValued {
		t.Errorf("p100 not detected as multi-valued")
	}
	p200 := c.Predicate(200)
	if p200.Triples != 1 || p200.MultiValued {
		t.Errorf("p200 = %+v", p200)
	}
	if c.DistinctSubjects != 2 {
		t.Errorf("DistinctSubjects = %d, want 2", c.DistinctSubjects)
	}
	if c.DistinctObjects != 4 {
		t.Errorf("DistinctObjects = %d, want 4", c.DistinctObjects)
	}
}

func TestPredicateAbsent(t *testing.T) {
	c := Collect(nil)
	p := c.Predicate(42)
	if p.Triples != 0 || p.MultiValued {
		t.Errorf("absent predicate = %+v, want zero value", p)
	}
	if p.SubjectsPerTriple() != 1 {
		t.Errorf("zero-triple SubjectsPerTriple = %v, want 1", p.SubjectsPerTriple())
	}
}

func TestSubjectsPerTriple(t *testing.T) {
	c := Collect(enc(
		[3]rdf.ID{1, 100, 10},
		[3]rdf.ID{1, 100, 11},
		[3]rdf.ID{1, 100, 12},
		[3]rdf.ID{2, 100, 13},
	))
	got := c.Predicate(100).SubjectsPerTriple()
	if got != 0.5 {
		t.Errorf("SubjectsPerTriple = %v, want 0.5", got)
	}
}

func TestSameObjectDifferentPredicates(t *testing.T) {
	// Distinct-object counting is per predicate.
	c := Collect(enc(
		[3]rdf.ID{1, 100, 10},
		[3]rdf.ID{1, 200, 10},
	))
	if c.Predicate(100).DistinctObjects != 1 || c.Predicate(200).DistinctObjects != 1 {
		t.Errorf("per-predicate object counts wrong")
	}
	if c.DistinctObjects != 1 {
		t.Errorf("global DistinctObjects = %d, want 1", c.DistinctObjects)
	}
}

func TestSummary(t *testing.T) {
	d := rdf.NewDictionary()
	s, _ := d.Encode(rdf.NewIRI("http://s"))
	p, _ := d.Encode(rdf.NewIRI("http://example.org/follows"))
	o, _ := d.Encode(rdf.NewIRI("http://o"))
	c := Collect([]rdf.EncodedTriple{{S: s, P: p, O: o}})
	sum := c.Summary(d)
	if !strings.Contains(sum, "http://example.org/follows") {
		t.Errorf("summary missing predicate name:\n%s", sum)
	}
	if !strings.Contains(sum, "total: 1 triples") {
		t.Errorf("summary missing totals:\n%s", sum)
	}
}
