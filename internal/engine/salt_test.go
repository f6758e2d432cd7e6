package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rdf"
)

// zipfRows builds n rows whose key column concentrates hotFrac of the
// rows on one value — the zipfian hot-key shape salting exists for.
func zipfRows(rng *rand.Rand, width, n int, keyCol int, hotFrac float64) []Row {
	rows := make([]Row, n)
	hot := int(float64(n) * hotFrac)
	for i := range rows {
		r := make(Row, width)
		for j := range r {
			r[j] = rdf.ID(1 + rng.Intn(50))
		}
		if i < hot {
			r[keyCol] = rdf.ID(999)
		} else {
			r[keyCol] = rdf.ID(1 + rng.Intn(200))
		}
		rows[i] = r
	}
	return rows
}

// TestSaltedShuffleJoinMatchesReference drives zipf-skewed inputs
// through the shuffle join with salting active and compares against
// the nested-loop reference: salting must never change the result
// multiset, only the placement.
func TestSaltedShuffleJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	for trial := 0; trial < 25; trial++ {
		lSchema, rSchema := Schema{"a", "b"}, Schema{"b", "c"}
		lRows := zipfRows(rng, 2, 100+rng.Intn(200), 1, 0.3+0.4*rng.Float64())
		rRows := zipfRows(rng, 2, 100+rng.Intn(200), 0, 0.3*rng.Float64())

		_, wantRaw := refJoin(lSchema, lRows, rSchema, rRows)
		want := sortRows(wantRaw)

		left, err := Partition(lSchema, lRows, "a", 8)
		if err != nil {
			t.Fatal(err)
		}
		right, err := Partition(rSchema, rRows, "c", 8)
		if err != nil {
			t.Fatal(err)
		}
		e := NewExec(c, cluster.NewClock())
		e.BroadcastThreshold = -1 // pin the shuffle path
		out, err := e.Join(left, right, "salted")
		if err != nil {
			t.Fatal(err)
		}
		got := sortRows(out.Rows())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: salted shuffle join differs from reference (%d vs %d rows)", trial, len(got), len(want))
		}
		if cols := out.PartitionCols(); cols != nil {
			t.Errorf("trial %d: salted join output claims partitioning %v; salted placement is not the key hash", trial, cols)
		}
	}
}

// TestSaltedShuffleSpreadsHotKey checks the point of salting: with one
// key carrying most of one side's rows, the salted join's priced stage
// time (dominated by the slowest worker) must beat the unsalted run,
// which serializes the hot key's probe work on a single worker.
func TestSaltedShuffleSpreadsHotKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := cluster.MustNew(cluster.Config{Workers: 8, DefaultPartitions: 16})
	lSchema, rSchema := Schema{"a", "b"}, Schema{"b", "c"}
	lRows := zipfRows(rng, 2, 4000, 1, 0.9)
	rRows := zipfRows(rng, 2, 4000, 0, 0.9)

	run := func(noSalt bool) (time.Duration, int64) {
		left, err := Partition(lSchema, lRows, "a", 16)
		if err != nil {
			t.Fatal(err)
		}
		right, err := Partition(rSchema, rRows, "c", 16)
		if err != nil {
			t.Fatal(err)
		}
		clk := cluster.NewClock()
		e := NewExec(c, clk)
		e.BroadcastThreshold = -1
		e.noSalt = noSalt
		out, err := e.Join(left, right, "skewed")
		if err != nil {
			t.Fatal(err)
		}
		var join cluster.StageRecord
		for _, s := range clk.Stages() {
			if s.Name == "join skewed" {
				join = s
			}
		}
		if join.Name == "" {
			t.Fatalf("join stage missing from trace (noSalt=%v); rows=%d", noSalt, out.NumRows())
		}
		return join.Makespan, join.Stats.NetBytes
	}

	saltedSpan, saltedNet := run(false)
	unsaltedSpan, unsaltedNet := run(true)

	if saltedSpan >= unsaltedSpan {
		t.Errorf("salted makespan %v not shorter than unsalted %v", saltedSpan, unsaltedSpan)
	}
	if saltedNet <= unsaltedNet {
		t.Errorf("salted shuffle shipped %d bytes, expected more than unsalted %d (replicated probe rows)", saltedNet, unsaltedNet)
	}
}

// TestSaltingDisabledBelowVolumeFloor keeps tiny relations on the
// plain shuffle path: their histograms cannot mean anything and the
// output partitioning must stay usable downstream.
func TestSaltingDisabledBelowVolumeFloor(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	lRows := []Row{{1, 9}, {2, 9}, {3, 9}}
	rRows := []Row{{9, 4}, {9, 5}}
	left, err := Partition(Schema{"a", "b"}, lRows, "a", 8)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Partition(Schema{"b", "c"}, rRows, "c", 8)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(c, cluster.NewClock())
	e.BroadcastThreshold = -1
	out, err := e.Join(left, right, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 6 {
		t.Fatalf("join produced %d rows, want 6", out.NumRows())
	}
	if cols := out.PartitionCols(); len(cols) != 1 || cols[0] != "b" {
		t.Errorf("tiny join lost its key partitioning: %v", cols)
	}
}
