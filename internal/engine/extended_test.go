package engine

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rdf"
)

// stageNet sums the NetBytes of every stage whose name matches.
func stageNet(c *cluster.Clock, name string) int64 {
	var total int64
	for _, st := range c.Stages() {
		if st.Name == name {
			total += st.Stats.NetBytes
		}
	}
	return total
}

func sortedRows(rel *Relation) []Row {
	rows := rel.Rows()
	out := make([]Row, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool { return lessRows(out[i], out[j]) })
	return out
}

func TestLeftJoinPadsUnmatched(t *testing.T) {
	e := testExec(t)
	left := rel(t, Schema{"a", "b"}, "a", Row{1, 10}, Row{2, 20}, Row{3, 30})
	right := rel(t, Schema{"b", "c"}, "b", Row{10, 100}, Row{10, 101}, Row{30, 300})
	out, err := e.LeftJoin(left, right, "t")
	if err != nil {
		t.Fatalf("LeftJoin: %v", err)
	}
	if !reflect.DeepEqual(out.Schema(), Schema{"a", "b", "c"}) {
		t.Fatalf("schema = %v", out.Schema())
	}
	want := []Row{
		{1, 10, 100},
		{1, 10, 101},
		{2, 20, rdf.NullID}, // unmatched left row survives, null-padded
		{3, 30, 300},
	}
	if got := sortedRows(out); !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestLeftJoinRejectsDisjointSchemas(t *testing.T) {
	e := testExec(t)
	left := rel(t, Schema{"a", "b"}, "a", Row{1, 2})
	right := rel(t, Schema{"x", "y"}, "x", Row{3, 4})
	if _, err := e.LeftJoin(left, right, "t"); err == nil {
		t.Fatal("left join without shared columns did not error")
	}
}

func TestUnionAll(t *testing.T) {
	e := testExec(t)
	a := rel(t, Schema{"a", "b"}, "a", Row{1, 2}, Row{3, 4})
	b := rel(t, Schema{"a", "b"}, "a", Row{5, 6})
	out, err := e.UnionAll(a, b)
	if err != nil {
		t.Fatalf("UnionAll: %v", err)
	}
	if out.Partitions() != a.Partitions()+b.Partitions() {
		t.Errorf("partitions = %d, want %d", out.Partitions(), a.Partitions()+b.Partitions())
	}
	want := []Row{{1, 2}, {3, 4}, {5, 6}}
	if got := sortedRows(out); !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	if _, err := e.UnionAll(); err == nil {
		t.Error("union of zero relations did not error")
	}
	c := rel(t, Schema{"a", "z"}, "a", Row{7, 8})
	if _, err := e.UnionAll(a, c); err == nil {
		t.Error("union with mismatched schema did not error")
	}
}

func TestTopKOrdersAndSlices(t *testing.T) {
	e := testExec(t)
	var rows []Row
	for i := 20; i >= 1; i-- {
		rows = append(rows, Row{rdf.ID(i), rdf.ID(i * 2)})
	}
	r := rel(t, Schema{"a", "b"}, "a", rows...)
	out, err := e.TopK(r, LessRowsID, 3, 2)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if out.Partitions() != 1 {
		t.Fatalf("top-K output has %d partitions, want 1", out.Partitions())
	}
	want := []Row{{3, 6}, {4, 8}, {5, 10}}
	if got := out.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	all, err := e.TopK(r, LessRowsID, -1, 0)
	if err != nil {
		t.Fatalf("TopK unlimited: %v", err)
	}
	if got := all.Rows(); len(got) != 20 || !sort.SliceIsSorted(got, func(i, j int) bool { return lessRows(got[i], got[j]) }) {
		t.Errorf("unlimited TopK: %d rows, sorted=%v", len(got), sort.SliceIsSorted(got, func(i, j int) bool { return lessRows(got[i], got[j]) }))
	}
}

// TestTopKPushdownShrinksTransfer checks the top-K exchange pushdown:
// a small limit forwards only offset+limit rows per partition, so the
// stage's NetBytes must be strictly below the unlimited sort's.
func TestTopKPushdownShrinksTransfer(t *testing.T) {
	var rows []Row
	for i := 0; i < 400; i++ {
		rows = append(rows, Row{rdf.ID(i + 1), rdf.ID(i + 1)})
	}
	limited := testExec(t)
	r1 := rel(t, Schema{"a", "b"}, "a", rows...)
	if _, err := limited.TopK(r1, LessRowsID, 5, 0); err != nil {
		t.Fatalf("TopK limited: %v", err)
	}
	unlimited := testExec(t)
	if _, err := unlimited.TopK(r1, LessRowsID, -1, 0); err != nil {
		t.Fatalf("TopK unlimited: %v", err)
	}
	ln, un := stageNet(limited.Clock, "topk"), stageNet(unlimited.Clock, "topk")
	if ln <= 0 || un <= 0 {
		t.Fatalf("topk stages uncharged (limited=%d unlimited=%d)", ln, un)
	}
	if ln >= un {
		t.Errorf("limited top-K transferred %d B, not below unlimited %d B", ln, un)
	}
}

func TestAggregateCounts(t *testing.T) {
	e := testExec(t)
	r := rel(t, Schema{"g", "v"}, "g",
		Row{1, 10}, Row{1, rdf.NullID}, Row{1, 11},
		Row{2, rdf.NullID},
		Row{3, 30}, Row{3, 30})
	out, err := e.Aggregate(r, []string{"g"}, []AggCount{{Var: "", As: "n"}, {Var: "v", As: "c"}})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if !reflect.DeepEqual(out.Schema(), Schema{"g", "n", "c"}) {
		t.Fatalf("schema = %v", out.Schema())
	}
	// COUNT(*) counts every row of the group; COUNT(?v) skips unbound.
	want := []Row{{1, 3, 2}, {2, 1, 0}, {3, 2, 2}}
	if got := out.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	if out.Partitions() != 1 {
		t.Errorf("aggregate output has %d partitions, want 1", out.Partitions())
	}
	if _, err := e.Aggregate(r, []string{"zzz"}, nil); err == nil {
		t.Error("unknown group column did not error")
	}
	if _, err := e.Aggregate(r, []string{"g"}, []AggCount{{Var: "zzz", As: "n"}}); err == nil {
		t.Error("unknown counted column did not error")
	}
}

// TestLimitTransfersOnlyPrefix pins the driver-side LIMIT pushdown:
// collecting a LIMIT k result charges k rows across the wire, not the
// whole relation.
func TestLimitTransfersOnlyPrefix(t *testing.T) {
	e := testExec(t)
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{rdf.ID(i + 1), rdf.ID(i + 1)})
	}
	r := rel(t, Schema{"a", "b"}, "a", rows...)
	got, err := e.Limit(r, 5, 0)
	if err != nil {
		t.Fatalf("Limit: %v", err)
	}
	if totalRows(got) != 5 {
		t.Fatalf("Limit returned %d rows, want 5", totalRows(got))
	}
	if net := stageNet(e.Clock, "collect"); net != 5*2*bytesPerValue {
		t.Errorf("LIMIT 5 charged %d B, want %d B", net, 5*2*bytesPerValue)
	}
}
