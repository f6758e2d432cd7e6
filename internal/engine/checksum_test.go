package engine

import (
	"testing"

	"repro/internal/rdf"
)

func ckRel(parts [][]Row) *Relation {
	return NewRelation(Schema{"a", "b"}, parts, "")
}

func TestChecksumStableAndSensitive(t *testing.T) {
	base := ckRel([][]Row{{{1, 2}, {3, 4}}, {{5, 6}}})
	if base.Checksum() != ckRel([][]Row{{{1, 2}, {3, 4}}, {{5, 6}}}).Checksum() {
		t.Fatal("identical relations hash differently")
	}
	variants := map[string]*Relation{
		"value changed":  ckRel([][]Row{{{1, 2}, {3, 7}}, {{5, 6}}}),
		"rows reordered": ckRel([][]Row{{{3, 4}, {1, 2}}, {{5, 6}}}),
		"row moved":      ckRel([][]Row{{{1, 2}}, {{3, 4}, {5, 6}}}),
		"row dropped":    ckRel([][]Row{{{1, 2}, {3, 4}}, {}}),
	}
	for name, v := range variants {
		if v.Checksum() == base.Checksum() {
			t.Errorf("%s: checksum unchanged", name)
		}
	}
	// Row boundaries are part of the digest: one row [1 2 3 4] is not the
	// rows [1 2] and [3 4], and one empty row is not two.
	if NewRelation(Schema{"a", "b", "c", "d"}, [][]Row{{{1, 2, 3, 4}}}, "").Checksum() == ckRel([][]Row{{{1, 2}, {3, 4}}}).Checksum() {
		t.Error("rows regrouped: checksum unchanged")
	}
	if NewRelation(Schema{}, [][]Row{{{}}}, "").Checksum() == NewRelation(Schema{}, [][]Row{{{}, {}}}, "").Checksum() {
		t.Error("empty row added: checksum unchanged")
	}
}

func TestChecksumEmptyPartitionsDistinct(t *testing.T) {
	a := ckRel([][]Row{{}, {}})
	b := ckRel([][]Row{{}, {}, {}})
	if a.Checksum() == b.Checksum() {
		t.Fatal("partition count not reflected in checksum")
	}
}

func TestChecksumMatchesAfterRebuild(t *testing.T) {
	rows := []Row{}
	for i := 0; i < 500; i++ {
		rows = append(rows, Row{rdf.ID(i), rdf.ID(i * 3)})
	}
	a, err := Partition(Schema{"x", "y"}, rows, "x", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(Schema{"x", "y"}, rows, "x", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum() != b.Checksum() {
		t.Fatal("deterministic rebuild produced different checksum")
	}
}
