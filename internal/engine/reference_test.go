package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rdf"
)

// refJoin is a naive nested-loop natural join used as the reference
// model for the engine's distributed joins.
func refJoin(lSchema Schema, lRows []Row, rSchema Schema, rRows []Row) (Schema, []Row) {
	shared := lSchema.Shared(rSchema)
	outSchema, _, keep := joinLayout(lSchema, rSchema, shared, nil)
	lKey := keyIndexes(lSchema, shared)
	rKey := keyIndexes(rSchema, shared)
	var out []Row
	for _, lr := range lRows {
		for _, rr := range rRows {
			match := true
			for i := range shared {
				if lr[lKey[i]] != rr[rKey[i]] {
					match = false
					break
				}
			}
			if match {
				out = append(out, concatRow(lr, rr, keep))
			}
		}
	}
	return outSchema, out
}

// sortRows orders rows lexicographically for set comparison.
func sortRows(rows []Row) []Row {
	out := make([]Row, len(rows))
	copy(out, rows)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && lessRows(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestJoinMatchesReferenceModel drives randomized relations through
// every physical join strategy (shuffle, forced broadcast, aligned and
// misaligned partitioning) and compares against the nested-loop
// reference.
func TestJoinMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 5})

	schemas := [][2]Schema{
		{Schema{"a", "b"}, Schema{"b", "c"}},                // single shared var (ID-keyed fast path)
		{Schema{"a", "b"}, Schema{"a", "b"}},                // all columns shared (packed two-column key)
		{Schema{"a", "b", "c"}, Schema{"c", "a"}},           // two shared vars
		{Schema{"x", "y"}, Schema{"y", "z", "w"}},           // wider right side
		{Schema{"a", "b", "c", "d"}, Schema{"c", "a", "b"}}, // three shared vars (hashed key + re-check)
	}
	for trial := 0; trial < 40; trial++ {
		pair := schemas[trial%len(schemas)]
		lSchema, rSchema := pair[0], pair[1]
		lRows := randomRows(rng, len(lSchema), 1+rng.Intn(60), 8)
		rRows := randomRows(rng, len(rSchema), 1+rng.Intn(60), 8)

		_, wantRaw := refJoin(lSchema, lRows, rSchema, rRows)
		want := sortRows(wantRaw)

		for _, mode := range []struct {
			name      string
			threshold int64
			lKey      string
			rKey      string
		}{
			{"shuffle-misaligned", -1, "", ""},
			{"shuffle-aligned", -1, lSchema[0], rSchema[0]},
			{"broadcast", 1 << 30, "", ""},
		} {
			l := partitionMaybe(t, lSchema, lRows, mode.lKey, 5)
			r := partitionMaybe(t, rSchema, rRows, mode.rKey, 5)
			e := NewExec(c, cluster.NewClock())
			e.BroadcastThreshold = mode.threshold
			got, err := e.Join(l, r, "ref")
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, mode.name, err)
			}
			gotRows := sortRows(got.Rows())
			if len(gotRows) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(gotRows, want) {
				t.Fatalf("trial %d %s: engine join disagrees with reference\n got %v\nwant %v",
					trial, mode.name, gotRows, want)
			}
		}
	}
}

// partitionMaybe partitions by key when given, otherwise spreads rows
// round-robin with no partition-key claim.
func partitionMaybe(t *testing.T, schema Schema, rows []Row, key string, n int) *Relation {
	t.Helper()
	if key != "" {
		rel, err := Partition(schema, rows, key, n)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	parts := make([][]Row, n)
	for i, r := range rows {
		parts[i%n] = append(parts[i%n], r)
	}
	return NewRelation(schema, parts, "")
}

func randomRows(rng *rand.Rand, width, n, valueRange int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, width)
		for j := range r {
			r[j] = rdf.ID(rng.Intn(valueRange) + 1)
		}
		rows[i] = r
	}
	return rows
}

// TestDistinctMatchesReference compares Distinct against a map-based
// reference on random inputs, row-by-row, across the packed (width ≤2)
// and hashed (width ≥3) dedup key paths.
func TestDistinctMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	for trial := 0; trial < 40; trial++ {
		width := 1 + trial%4
		schema := Schema{"a", "b", "c", "d"}[:width]
		rows := randomRows(rng, width, 1+rng.Intn(80), 5)
		rel := partitionMaybe(t, schema, rows, "", 4)
		e := NewExec(c, cluster.NewClock())
		got, err := e.Distinct(rel)
		if err != nil {
			t.Fatal(err)
		}
		var uniq []Row
		seen := map[[4]rdf.ID]bool{}
		for _, r := range rows {
			var k [4]rdf.ID
			copy(k[:], r)
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, r)
			}
		}
		if !reflect.DeepEqual(sortRows(got.Rows()), sortRows(uniq)) {
			t.Fatalf("trial %d width %d: Distinct disagrees with reference\n got %v\nwant %v",
				trial, width, sortRows(got.Rows()), sortRows(uniq))
		}
		// Distinct's output is shuffled on every column; it must record
		// that so a second Distinct dedups in place.
		if !reflect.DeepEqual(got.partCols, []string(schema)) {
			t.Errorf("trial %d: Distinct partCols = %v, want %v", trial, got.partCols, schema)
		}
	}
}

// TestHashedKeyCollisions forces every multi-column hashed key to fold
// to the same uint64 and re-runs the join strategies and Distinct
// against their references: the column-wise re-check must absorb
// arbitrary collisions without wrong or dropped rows.
func TestHashedKeyCollisions(t *testing.T) {
	testCollideHashedKeys = true
	defer func() { testCollideHashedKeys = false }()

	rng := rand.New(rand.NewSource(9))
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 5})
	lSchema := Schema{"a", "b", "c", "l"}
	rSchema := Schema{"b", "c", "a", "r"}
	for trial := 0; trial < 20; trial++ {
		lRows := randomRows(rng, 4, 1+rng.Intn(40), 4)
		rRows := randomRows(rng, 4, 1+rng.Intn(40), 4)
		_, wantRaw := refJoin(lSchema, lRows, rSchema, rRows)
		want := sortRows(wantRaw)
		for _, threshold := range []int64{-1, 1 << 30} { // shuffle, broadcast
			l := partitionMaybe(t, lSchema, lRows, "", 5)
			r := partitionMaybe(t, rSchema, rRows, "", 5)
			e := NewExec(c, cluster.NewClock())
			e.BroadcastThreshold = threshold
			got, err := e.Join(l, r, "collide")
			if err != nil {
				t.Fatal(err)
			}
			gotRows := sortRows(got.Rows())
			if len(gotRows) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(gotRows, want) {
				t.Fatalf("trial %d threshold %d: colliding-key join disagrees with reference\n got %v\nwant %v",
					trial, threshold, gotRows, want)
			}
		}

		rows := randomRows(rng, 3, 1+rng.Intn(60), 3)
		rel := partitionMaybe(t, Schema{"a", "b", "c"}, rows, "", 5)
		e := NewExec(c, cluster.NewClock())
		got, err := e.Distinct(rel)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[3]rdf.ID]bool{}
		for _, r := range rows {
			seen[[3]rdf.ID{r[0], r[1], r[2]}] = true
		}
		if got.NumRows() != len(seen) {
			t.Fatalf("trial %d: colliding-key Distinct = %d rows, want %d", trial, got.NumRows(), len(seen))
		}
	}
}

// TestDistinctZeroWidth pins the zero-column edge: empty rows spread
// across partitions must still dedup globally (all of them shuffle to
// one partition — a zero-column layout can never claim alignment).
func TestDistinctZeroWidth(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	parts := make([][]Row, 4)
	parts[0] = []Row{{}}
	parts[2] = []Row{{}, {}}
	rel := NewRelation(Schema{}, parts, "")
	e := NewExec(c, cluster.NewClock())
	got, err := e.Distinct(rel)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 {
		t.Fatalf("zero-width Distinct = %d rows, want 1", got.NumRows())
	}
}

// TestJoinEmptyAndSkewedPartitions exercises the join core's edge
// layouts: one side empty, and all rows crammed into a single
// partition with the rest empty.
func TestJoinEmptyAndSkewedPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	lSchema := Schema{"a", "b"}
	rSchema := Schema{"b", "c"}
	lRows := randomRows(rng, 2, 50, 6)
	rRows := randomRows(rng, 2, 50, 6)

	skew := func(schema Schema, rows []Row) *Relation {
		parts := make([][]Row, 4)
		parts[0] = rows
		return NewRelation(schema, parts, "")
	}
	empty := func(schema Schema) *Relation {
		return NewRelation(schema, make([][]Row, 4), "")
	}

	_, wantRaw := refJoin(lSchema, lRows, rSchema, rRows)
	want := sortRows(wantRaw)
	for _, threshold := range []int64{-1, 1 << 30} {
		e := NewExec(c, cluster.NewClock())
		e.BroadcastThreshold = threshold
		got, err := e.Join(skew(lSchema, lRows), skew(rSchema, rRows), "skew")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortRows(got.Rows()), want) {
			t.Fatalf("threshold %d: skewed-partition join disagrees with reference", threshold)
		}

		e = NewExec(c, cluster.NewClock())
		e.BroadcastThreshold = threshold
		got, err = e.Join(skew(lSchema, lRows), empty(rSchema), "empty")
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != 0 {
			t.Fatalf("threshold %d: join against empty side produced %d rows", threshold, got.NumRows())
		}
	}
}

// TestShuffleJoinRecordsMultiColumnPartitioning verifies the output of
// a multi-column shuffle join carries its join-key partitioning, and
// that a downstream join on the same key sequence skips the shuffle
// for that side (paying only the other side's movement).
func TestShuffleJoinRecordsMultiColumnPartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})
	lSchema := Schema{"a", "b", "l"}
	rSchema := Schema{"a", "b", "r"}
	l := partitionMaybe(t, lSchema, randomRows(rng, 3, 120, 6), "", 4)
	r := partitionMaybe(t, rSchema, randomRows(rng, 3, 120, 6), "", 4)

	e := NewExec(c, cluster.NewClock())
	e.BroadcastThreshold = -1
	first, err := e.Join(l, r, "first")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.partCols, []string{"a", "b"}) {
		t.Fatalf("multi-column join partCols = %v, want [a b]", first.partCols)
	}

	// Second join on the same two columns: only the fresh side moves.
	other := partitionMaybe(t, Schema{"a", "b", "o"}, randomRows(rng, 3, 40, 6), "", 4)
	clock := cluster.NewClock()
	e2 := NewExec(c, clock)
	e2.BroadcastThreshold = -1
	if _, err := e2.Join(first, other, "second"); err != nil {
		t.Fatal(err)
	}
	stages := clock.Stages()
	last := stages[len(stages)-1]
	wantNet := int64(other.NumRows()) * int64(len(other.Schema())) * bytesPerValue
	if last.Stats.NetBytes != wantNet {
		t.Errorf("second join shuffled %d bytes, want %d (aligned side must not move)",
			last.Stats.NetBytes, wantNet)
	}

	// The reference model agrees with the aligned re-join.
	_, wantRaw := refJoin(first.Schema(), first.Rows(), other.Schema(), other.Rows())
	e3 := NewExec(c, cluster.NewClock())
	e3.BroadcastThreshold = -1
	got, err := e3.Join(first, other, "check")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortRows(got.Rows()), sortRows(wantRaw)) {
		t.Fatal("aligned multi-column re-join disagrees with reference")
	}
}
