package engine

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rdf"
)

// testExec returns a 3-worker exec over a fresh clock.
func testExec(t *testing.T) *Exec {
	t.Helper()
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	return NewExec(c, cluster.NewClock())
}

func rel(t *testing.T, schema Schema, key string, rows ...Row) *Relation {
	t.Helper()
	r, err := Partition(schema, rows, key, 4)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return r
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{"a", "b", "c"}
	if s.Index("b") != 1 || s.Index("z") != -1 {
		t.Errorf("Index wrong")
	}
	if !s.Contains("c") || s.Contains("z") {
		t.Errorf("Contains wrong")
	}
	if got := s.Shared(Schema{"c", "a", "z"}); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("Shared = %v, want [a c] (left order)", got)
	}
	cl := s.Clone()
	cl[0] = "x"
	if s[0] != "a" {
		t.Errorf("Clone aliases the original")
	}
}

func TestPartitionColocatesKeys(t *testing.T) {
	rows := []Row{{1, 10}, {1, 11}, {2, 20}, {3, 30}, {1, 12}}
	r, err := Partition(Schema{"s", "o"}, rows, "s", 4)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if r.NumRows() != 5 {
		t.Errorf("NumRows = %d, want 5", r.NumRows())
	}
	// All rows with s=1 must share a partition.
	home := -1
	for p := 0; p < r.Partitions(); p++ {
		for _, row := range r.Part(p).Rows() {
			if row[0] == 1 {
				if home == -1 {
					home = p
				} else if home != p {
					t.Fatalf("key 1 in partitions %d and %d", home, p)
				}
			}
		}
	}
	if !slices.Equal(r.partCols, []string{"s"}) {
		t.Errorf("partition columns = %q", r.partCols)
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(Schema{"a"}, nil, "zzz", 2); err == nil {
		t.Errorf("Partition with bad key succeeded")
	}
	if _, err := Partition(Schema{"a"}, nil, "a", 0); err == nil {
		t.Errorf("Partition with 0 partitions succeeded")
	}
}

func TestFilter(t *testing.T) {
	e := testExec(t)
	r := rel(t, Schema{"s", "o"}, "s", Row{1, 5}, Row{2, 6}, Row{3, 7})
	out, err := e.Filter(r, "o>5", func(row Row) bool { return row[1] > 5 })
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	got := out.SortedRows()
	want := []Row{{2, 6}, {3, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Filter result = %v, want %v", got, want)
	}
	if !slices.Equal(out.partCols, []string{"s"}) {
		t.Errorf("Filter lost partition key")
	}
}

func TestProject(t *testing.T) {
	e := testExec(t)
	r := rel(t, Schema{"s", "p", "o"}, "s", Row{1, 2, 3}, Row{4, 5, 6})
	out, err := e.Project(r, []string{"o", "s"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if !reflect.DeepEqual(out.Schema(), Schema{"o", "s"}) {
		t.Errorf("schema = %v", out.Schema())
	}
	got := out.SortedRows()
	want := []Row{{3, 1}, {6, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	if !slices.Equal(out.partCols, []string{"s"}) {
		t.Errorf("projection keeping key column lost partition key: %q", out.partCols)
	}
	out2, err := e.Project(r, []string{"o"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if out2.partCols != nil {
		t.Errorf("projection dropping key column kept partition key %q", out2.partCols)
	}
	if _, err := e.Project(r, []string{"nope"}); err == nil {
		t.Errorf("Project with unknown column succeeded")
	}
}

func TestShuffleJoinNatural(t *testing.T) {
	e := testExec(t)
	e.BroadcastThreshold = -1 // force shuffle joins
	follows := rel(t, Schema{"a", "b"}, "a",
		Row{1, 2}, Row{1, 3}, Row{2, 3}, Row{4, 1})
	likes := rel(t, Schema{"b", "c"}, "b",
		Row{2, 100}, Row{3, 200}, Row{3, 300})
	out, err := e.Join(follows, likes, "follows⋈likes")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !reflect.DeepEqual(out.Schema(), Schema{"a", "b", "c"}) {
		t.Fatalf("schema = %v", out.Schema())
	}
	got := out.SortedRows()
	want := []Row{
		{1, 2, 100}, {1, 3, 200}, {1, 3, 300},
		{2, 3, 200}, {2, 3, 300},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("join rows = %v, want %v", got, want)
	}
}

func TestBroadcastJoinMatchesShuffleJoin(t *testing.T) {
	build := []Row{{2, 100}, {3, 200}}
	probe := []Row{{1, 2}, {1, 3}, {2, 3}, {9, 9}}
	mk := func(threshold int64) []Row {
		e := testExec(t)
		e.BroadcastThreshold = threshold
		l := rel(t, Schema{"a", "b"}, "a", probe...)
		r := rel(t, Schema{"b", "c"}, "b", build...)
		out, err := e.Join(l, r, "j")
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		if !reflect.DeepEqual(out.Schema(), Schema{"a", "b", "c"}) {
			t.Fatalf("schema = %v", out.Schema())
		}
		return out.SortedRows()
	}
	bc := mk(1 << 20) // small build side broadcasts
	sh := mk(-1)      // forced shuffle
	if !reflect.DeepEqual(bc, sh) {
		t.Errorf("broadcast join = %v, shuffle join = %v", bc, sh)
	}
}

func TestBroadcastJoinLeftBuild(t *testing.T) {
	// The LEFT side is tiny: it must become the build side while the
	// output schema stays left-first.
	e := testExec(t)
	small := rel(t, Schema{"a", "b"}, "a", Row{1, 2})
	big := make([]Row, 3000)
	for i := range big {
		big[i] = Row{rdf.ID(i%5 + 1), rdf.ID(i + 10)}
	}
	large := rel(t, Schema{"b", "c"}, "b", big...)
	out, err := e.Join(small, large, "small⋈large")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !reflect.DeepEqual(out.Schema(), Schema{"a", "b", "c"}) {
		t.Fatalf("schema = %v", out.Schema())
	}
	// b=2 appears in large at rows where i%5+1 == 2.
	wantMatches := 0
	for i := range big {
		if big[i][0] == 2 {
			wantMatches++
		}
	}
	if out.NumRows() != wantMatches {
		t.Errorf("join produced %d rows, want %d", out.NumRows(), wantMatches)
	}
}

func TestJoinOnMultipleSharedColumns(t *testing.T) {
	e := testExec(t)
	e.BroadcastThreshold = -1
	l := rel(t, Schema{"x", "y", "v"}, "x",
		Row{1, 1, 10}, Row{1, 2, 20}, Row{2, 2, 30})
	r := rel(t, Schema{"x", "y", "w"}, "x",
		Row{1, 1, 100}, Row{1, 2, 200}, Row{2, 1, 300})
	out, err := e.Join(l, r, "multi")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	got := out.SortedRows()
	want := []Row{{1, 1, 10, 100}, {1, 2, 20, 200}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestJoinShuffleAvoidanceOnCoPartitionedInputs(t *testing.T) {
	// Two relations partitioned on the join key must pay zero shuffle
	// bytes — the engine behaviour that makes PT subject-joins cheap.
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	clock := cluster.NewClock()
	e := NewExec(c, clock)
	e.BroadcastThreshold = -1
	l := rel(t, Schema{"s", "a"}, "s", Row{1, 10}, Row{2, 20}, Row{3, 30})
	r := rel(t, Schema{"s", "b"}, "s", Row{1, 100}, Row{2, 200})
	out, err := e.Join(l, r, "aligned")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("join rows = %d, want 2", out.NumRows())
	}
	for _, st := range clock.Stages() {
		if st.Stats.NetBytes != 0 {
			t.Errorf("stage %q shuffled %d bytes; co-partitioned join must be shuffle-free", st.Name, st.Stats.NetBytes)
		}
	}

	// Control: join on a non-partition column must shuffle.
	clock.Reset()
	l2 := rel(t, Schema{"a", "s"}, "a", Row{10, 1}, Row{20, 2})
	r2 := rel(t, Schema{"s", "b"}, "b", Row{1, 100}, Row{2, 200})
	if _, err := e.Join(l2, r2, "misaligned"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	var moved int64
	for _, st := range clock.Stages() {
		moved += st.Stats.NetBytes
	}
	if moved == 0 {
		t.Errorf("misaligned join shuffled no bytes")
	}
}

func TestCartesianJoin(t *testing.T) {
	e := testExec(t)
	l := rel(t, Schema{"a"}, "a", Row{1}, Row{2})
	r := rel(t, Schema{"b"}, "b", Row{10}, Row{20})
	out, err := e.Join(l, r, "cross")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if out.NumRows() != 4 {
		t.Errorf("cartesian rows = %d, want 4", out.NumRows())
	}
	if !reflect.DeepEqual(out.Schema(), Schema{"a", "b"}) {
		t.Errorf("schema = %v", out.Schema())
	}
	got := out.SortedRows()
	want := []Row{{1, 10}, {1, 20}, {2, 10}, {2, 20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestDistinct(t *testing.T) {
	e := testExec(t)
	r := rel(t, Schema{"a", "b"}, "a",
		Row{1, 2}, Row{1, 2}, Row{1, 3}, Row{2, 2}, Row{1, 2})
	out, err := e.Distinct(r)
	if err != nil {
		t.Fatalf("Distinct: %v", err)
	}
	got := out.SortedRows()
	want := []Row{{1, 2}, {1, 3}, {2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distinct rows = %v, want %v", got, want)
	}
}

// TestUnion: a union keeps duplicates (bag semantics) and refuses
// mismatched schemas.
func TestUnion(t *testing.T) {
	e := testExec(t)
	a := rel(t, Schema{"x"}, "x", Row{1}, Row{2})
	b := rel(t, Schema{"x"}, "x", Row{2}, Row{3})
	out, err := e.UnionAll(a, b)
	if err != nil {
		t.Fatalf("UnionAll: %v", err)
	}
	if out.NumRows() != 4 {
		t.Errorf("union rows = %d, want 4 (bag semantics)", out.NumRows())
	}
	c := rel(t, Schema{"y"}, "y", Row{1})
	if _, err := e.UnionAll(a, c); err == nil {
		t.Errorf("UnionAll with mismatched schema succeeded")
	}
}

func TestCollectAndLimit(t *testing.T) {
	e := testExec(t)
	r := rel(t, Schema{"a"}, "a", Row{3}, Row{1}, Row{2}, Row{4}, Row{5})
	rows, err := e.Collect(r)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if totalRows(rows) != 5 {
		t.Errorf("Collect = %d rows, want 5", totalRows(rows))
	}
	lim, err := e.Limit(r, 2, 0)
	if err != nil {
		t.Fatalf("Limit: %v", err)
	}
	if totalRows(lim) != 2 {
		t.Errorf("Limit(2) = %d rows", totalRows(lim))
	}
	all, err := e.Limit(r, -1, 0)
	if err != nil {
		t.Fatalf("Limit(-1): %v", err)
	}
	if totalRows(all) != 5 {
		t.Errorf("Limit(-1) = %d rows, want 5", totalRows(all))
	}
	off, err := e.Limit(r, -1, 3)
	if err != nil {
		t.Fatalf("Limit offset: %v", err)
	}
	if totalRows(off) != 2 {
		t.Errorf("Offset(3) = %d rows, want 2", totalRows(off))
	}
	none, err := e.Limit(r, -1, 99)
	if err != nil {
		t.Fatalf("Limit big offset: %v", err)
	}
	if totalRows(none) != 0 {
		t.Errorf("Offset(99) = %d rows, want 0", totalRows(none))
	}
	// offset+limit past math.MaxInt is no limit; it once wrapped negative
	// and took no row.
	for _, c := range []struct{ limit, offset, want int }{
		{math.MaxInt, 0, 5}, {math.MaxInt, 1, 4}, {math.MaxInt - 1, 2, 3},
		{2, math.MaxInt, 0}, {math.MaxInt, math.MaxInt, 0},
	} {
		got, err := e.Limit(r, c.limit, c.offset)
		if err != nil {
			t.Fatalf("Limit(%d, offset %d): %v", c.limit, c.offset, err)
		}
		if totalRows(got) != c.want {
			t.Errorf("Limit(%d, offset %d) = %d rows, want %d", c.limit, c.offset, totalRows(got), c.want)
		}
	}
}

func TestScanChargesDisk(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: 2})
	clock := cluster.NewClock()
	e := NewExec(c, clock)
	r := rel(t, Schema{"s", "o"}, "s", Row{1, 2}, Row{3, 4})
	if _, err := e.Scan(r, "vp_follows", 1<<20); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	stages := clock.Stages()
	if len(stages) != 1 {
		t.Fatalf("stages = %d", len(stages))
	}
	if stages[0].Stats.DiskBytes == 0 {
		t.Errorf("scan charged no disk bytes")
	}
}

func TestEstimatedBytes(t *testing.T) {
	r := rel(t, Schema{"a", "b"}, "a", Row{1, 2}, Row{3, 4}, Row{5, 6})
	if got := r.EstimatedBytes(); got != 3*2*bytesPerValue {
		t.Errorf("EstimatedBytes = %d, want %d", got, 3*2*bytesPerValue)
	}
}

func TestCompareIDs(t *testing.T) {
	dict := rdf.NewDictionary()
	five, _ := dict.Encode(rdf.NewTypedLiteral("5", rdf.XSDInteger))
	alpha, _ := dict.Encode(rdf.NewLiteral("alpha"))
	d := dict.Snapshot()

	lt := func(c int) bool { return c < 0 }
	eq := func(c int) bool { return c == 0 }
	if !CompareIDs(d, five, lt, rdf.NewTypedLiteral("10", rdf.XSDInteger)) {
		t.Errorf("5 < 10 numeric comparison failed")
	}
	if CompareIDs(d, five, eq, rdf.NewTypedLiteral("10", rdf.XSDInteger)) {
		t.Errorf("5 == 10 returned true")
	}
	// String comparison: "alpha" < "beta" lexically.
	if !CompareIDs(d, alpha, lt, rdf.NewLiteral("beta")) {
		t.Errorf("alpha < beta failed")
	}
	// Mixed: numeric vs non-numeric falls back to term ordering.
	if !CompareIDs(d, five, eq, rdf.NewTypedLiteral("5", rdf.XSDInteger)) {
		t.Errorf("5 == 5 failed")
	}
}

// TestNumericValue: an integer literal parses into its sign and
// canonical digits however long it is, and integers compare by value —
// past int64, with signs and leading zeros — where a wrapped int64
// misordered them.
func TestNumericValue(t *testing.T) {
	tests := []struct {
		term rdf.Term
		want integer
		ok   bool
	}{
		{rdf.NewTypedLiteral("42", rdf.XSDInteger), integer{digits: "42"}, true},
		{rdf.NewTypedLiteral("-7", rdf.XSDInteger), integer{neg: true, digits: "7"}, true},
		{rdf.NewTypedLiteral("+3", rdf.XSDInteger), integer{digits: "3"}, true},
		{rdf.NewTypedLiteral("+007", rdf.XSDInteger), integer{digits: "7"}, true},
		{rdf.NewTypedLiteral("-000", rdf.XSDInteger), integer{}, true},
		{rdf.NewTypedLiteral("99999999999999999999", rdf.XSDInteger), integer{digits: "99999999999999999999"}, true},
		{rdf.NewTypedLiteral("x", rdf.XSDInteger), integer{}, false},
		{rdf.NewTypedLiteral("", rdf.XSDInteger), integer{}, false},
		{rdf.NewTypedLiteral("-", rdf.XSDInteger), integer{}, false},
		{rdf.NewTypedLiteral("1e3", rdf.XSDInteger), integer{}, false},
		{rdf.NewLiteral("42"), integer{}, false},
		{rdf.NewIRI("http://42"), integer{}, false},
	}
	for _, tt := range tests {
		got, ok := integerValue(tt.term)
		if got != tt.want || ok != tt.ok {
			t.Errorf("integerValue(%v) = %+v,%v want %+v,%v", tt.term, got, ok, tt.want, tt.ok)
		}
	}
	// Ascending, with equal neighbours in one group.
	order := [][]string{
		{"-99999999999999999999"},
		{"-9223372036854775809"},
		{"-10"},
		{"-7", "-007"},
		{"0", "-0", "+000"},
		{"7", "+007", "0007"},
		{"10"},
		{"9223372036854775807"},
		{"9223372036854775808"},
		{"18446744073709551616"},
		{"99999999999999999999"},
		{"100000000000000000000"},
	}
	lit := func(v string) rdf.Term { return rdf.NewTypedLiteral(v, rdf.XSDInteger) }
	for i, gi := range order {
		for j, gj := range order {
			for _, a := range gi {
				for _, b := range gj {
					want := 0
					if i < j {
						want = -1
					} else if i > j {
						want = 1
					}
					if got := CompareTerms(lit(a), lit(b)); got != want {
						t.Errorf("CompareTerms(%s, %s) = %d, want %d", a, b, got, want)
					}
				}
			}
		}
	}
}
