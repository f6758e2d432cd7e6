package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rdf"
	"repro/internal/testenv"
)

// refProbe is the naive model of the batch probe kernel: for every
// probe row in order, every build row with equal key columns from the
// last indexed to the first (the index chains newest-first), emitted
// left columns first through the keep lists; with outer set, a probe
// row without a match emits once against a right row of NullIDs.
func refProbe(build, probe []Row, buildKey, probeKey []int, buildLeft bool, lKeep, rKeep []int, nullRight Row) []Row {
	emit := func(br, pr Row) Row {
		lr, rr := br, pr
		if !buildLeft {
			lr, rr = pr, br
		}
		var out Row
		if lKeep == nil {
			out = append(out, lr...)
		}
		for _, i := range lKeep {
			out = append(out, lr[i])
		}
		for _, i := range rKeep {
			out = append(out, rr[i])
		}
		return out
	}
	var out []Row
	for _, pr := range probe {
		matched := false
		for b := len(build) - 1; b >= 0; b-- {
			if keysEqual(build[b], buildKey, pr, probeKey) {
				out = append(out, emit(build[b], pr))
				matched = true
			}
		}
		if !matched && nullRight != nil {
			out = append(out, emit(nullRight, pr))
		}
	}
	return out
}

// TestProbeBatchMatchesReference drives the batch kernel through every
// entry point that reaches it — the partition probe, the outer probe,
// the streaming batch probe and the row-at-a-time streaming probe —
// over one-, two- and three-column keys (ID-keyed, packed, hashed, and
// hashed with every key forced to collide), pruned and unpruned keeps,
// either build orientation, an empty build side and a probe side that
// misses entirely, and requires the naive model's rows in its order.
func TestProbeBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	left, right := Schema{"a", "b", "c", "x"}, Schema{"c", "b", "a", "y", "z"}
	for _, collide := range []bool{false, true} {
		testCollideHashedKeys = collide
		for nKeys := 1; nKeys <= 3; nKeys++ {
			lKey, rKey := []int{0, 1, 2}[:nKeys], []int{2, 1, 0}[:nKeys]
			for _, shape := range []struct {
				name                   string
				nBuild, nProbe, domain int
				probeOffset            rdf.ID
			}{
				{"dense", 60, 90, 3, 0},
				{"sparse", 60, 90, 12, 0},
				{"empty build", 0, 40, 3, 0},
				{"all miss", 60, 40, 3, 1000},
			} {
				for _, pruned := range []bool{false, true} {
					for _, buildLeft := range []bool{false, true} {
						name := fmt.Sprintf("collide=%v/keys=%d/%s/pruned=%v/buildLeft=%v", collide, nKeys, shape.name, pruned, buildLeft)
						buildW, probeW := len(right), len(left)
						buildKey, probeKey := rKey, lKey
						if buildLeft {
							buildW, probeW = len(left), len(right)
							buildKey, probeKey = lKey, rKey
						}
						build := randomRows(rng, buildW, shape.nBuild, shape.domain)
						probe := randomRows(rng, probeW, shape.nProbe, shape.domain)
						for _, pr := range probe {
							pr[probeKey[0]] += shape.probeOffset
						}
						var lKeep, rKeep []int
						rKeep = []int{3, 4}
						width := len(left) + len(rKeep)
						if pruned {
							lKeep, rKeep = []int{3, 0}, []int{4}
							width = len(lKeep) + len(rKeep)
						}

						want := refProbe(build, probe, buildKey, probeKey, buildLeft, lKeep, rKeep, nil)
						jp := NewJoinProbe(build, buildKey)
						got := jp.Probe(probe, probeKey, buildLeft, width, lKeep, rKeep)
						if !sameRows(got, want) {
							t.Errorf("%s: JoinProbe.Probe = %v, want %v", name, got, want)
						}
						if len(want) == 0 && got != nil {
							t.Errorf("%s: a probe without output returned a non-nil slice", name)
						}

						// The streaming surface derives the same layout from
						// schemas; its keep list names the surviving columns.
						var keep []string
						if pruned {
							keep = []string{"x", "a", "z"}
						}
						// nKeys shared columns: rename the rest apart.
						ls, rs := left.Clone(), right.Clone()
						for _, col := range []int{2, 1, 0}[nKeys:] {
							rs[col] += "'"
						}
						// The streaming build indexes its sink's batches where
						// they lie: several blocks of uneven sizes, one empty.
						sj := NewStreamJoin(ls, rs, keep)
						hash := sj.BuildBlocks(nil, splitBlocks(buildW, build), buildLeft)
						probeBlock := NewBlock(probeW, probe)
						wantS := refProbe(build, probe, buildKey, probeKey, buildLeft, sj.lKeep, sj.rKeep, nil)
						if got := hash.ProbeBatch(probeBlock, false).Rows(); !sameRows(got, wantS) {
							t.Errorf("%s: ProbeBatch = %v, want %v", name, got, wantS)
						}
						arena := NewRowArena(len(sj.OutSchema()), 0)
						for _, pr := range probe {
							hash.Probe(pr, arena)
						}
						if got := arena.Rows(); !sameRows(got, wantS) {
							t.Errorf("%s: row-at-a-time Probe = %v, want %v", name, got, wantS)
						}

						if buildLeft {
							continue // outer probes build the right side
						}
						nullRight := make(Row, len(right))
						wantO := refProbe(build, probe, buildKey, probeKey, false, sj.lKeep, sj.rKeep, nullRight)
						if got := hash.ProbeBatch(probeBlock, true).Rows(); !sameRows(got, wantO) {
							t.Errorf("%s: outer ProbeBatch = %v, want %v", name, got, wantO)
						}
					}
				}
			}
		}
	}
	testCollideHashedKeys = false
}

// splitBlocks copies rows into blocks of 1, 3, 9, … rows, with an empty
// block after the first.
func splitBlocks(width int, rows []Row) []Block {
	out := []Block{NewBlock(width, rows[:min(1, len(rows))]), NewBlock(width, nil)}
	for lo, size := min(1, len(rows)), 3; lo < len(rows); lo, size = lo+size, size*3 {
		out = append(out, NewBlock(width, rows[lo:min(lo+size, len(rows))]))
	}
	return out
}

// sameRows compares row lists positionally, treating nil and empty
// alike.
func sameRows(a, b []Row) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestProbeAllMissAllocatesNothing: a probe that emits nothing must
// not pay for its input — no output arena, no per-row scratch — so it
// allocates the same at 100 probe rows and at 10,000: nothing in a
// query's region, once the region's slabs are warm, and on the heap only
// the chain-head slice. The collector is off while it counts: a
// collection empties the slab pool.
func TestProbeAllMissAllocatesNothing(t *testing.T) {
	testenv.SkipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(4))
	build := NewBlock(2, randomRows(rng, 2, 500, 400))
	ix := buildJoinIndex(nil, []Block{build}, []int{0})
	hash := NewStreamJoin(Schema{"k", "p"}, Schema{"k", "b"}, nil).BuildBlocks(nil, splitBlocks(2, build.Rows()), false)
	region := NewRegion()
	for _, n := range []int{100, 10000} {
		rows := randomRows(rng, 2, n, 400)
		for _, pr := range rows {
			pr[0] += 1000
		}
		probe := NewBlock(2, rows)
		var out Block
		emit := joinEmit{width: 3, rKeep: []int{1}}
		inRegion := func() {
			out = ix.probeBatch(region, probe, []int{0}, &emit)
			region.Release()
		}
		if a := testenv.AllocsPerRun(t, 20, inRegion); a != 0 || out.Len() != 0 {
			t.Errorf("broadcast probe of %d missing rows in a region: %v allocations, %d rows", n, a, out.Len())
		}
		if a := testenv.AllocsPerRun(t, 20, func() { out = ix.probeBatch(nil, probe, []int{0}, &emit) }); a > 1 || out.Len() != 0 {
			t.Errorf("broadcast probe of %d missing rows: %v allocations, %d rows", n, a, out.Len())
		}
		if a := testenv.AllocsPerRun(t, 20, func() { out = hash.ProbeBatch(probe, false) }); a > 1 || out.Len() != 0 {
			t.Errorf("ProbeBatch of %d missing rows: %v allocations, %d rows", n, a, out.Len())
		}
	}
}

// sameRowContents compares row lists value by value: a width-0 row is
// the same row whether its slice is nil or empty.
func sameRowContents(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool { return slices.Equal(x, y) })
}

// TestJoinOutputPartitionAllocatesOnce: an output partition of a shuffle
// join or a broadcast probe is one allocation, whatever its row count.
// The same join is run with every probe row matching and with none, over
// a build side of one row per partition claimed partitioned on the key,
// so neither side moves and the runs differ only in their output. The
// collector is off while it counts: a collection empties the pool the
// probes' chain heads come from, and refilling it is not the output's
// cost.
func TestJoinOutputPartitionAllocatesOnce(t *testing.T) {
	testenv.SkipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const parts = 8
	c := cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: parts})
	keyed := func(schema Schema, perPart int, key func(p int) rdf.ID) *Relation {
		rows := make([][]Row, parts)
		for p := range rows {
			for i := 0; i < perPart; i++ {
				rows[p] = append(rows[p], Row{key(p), rdf.ID(i)})
			}
		}
		return NewRelation(schema, rows, "k")
	}
	build := keyed(Schema{"k", "b"}, 1, func(p int) rdf.ID { return rdf.ID(p + 1) })
	for _, strategy := range []JoinStrategy{StrategyShuffle, StrategyBroadcast} {
		for _, perPart := range []int{100, 10_000} {
			allocs := func(hit bool) float64 {
				probe := keyed(Schema{"k", "a"}, perPart, func(p int) rdf.ID {
					if hit {
						return rdf.ID(p + 1)
					}
					return rdf.ID(p + 1001)
				})
				want := 0
				if hit {
					want = parts * perPart
				}
				e := NewExec(c, cluster.NewClock())
				return testenv.AllocsPerRun(t, 20, func() {
					out, err := e.JoinWith(probe, build, "pin", strategy)
					if err != nil || out.NumRows() != want {
						t.Fatalf("join: %d rows, want %d (err %v)", out.NumRows(), want, err)
					}
				})
			}
			if extra := allocs(true) - allocs(false); extra != parts {
				t.Errorf("strategy %d, %d rows per partition: %d output partitions cost %.0f allocations, want %d",
					strategy, perPart, parts, extra, parts)
			}
		}
	}
}
