package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rdf"
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
						sj := NewStreamJoin(ls, rs, keep)
						hash := sj.Build(build, buildLeft)
						wantS := refProbe(build, probe, buildKey, probeKey, buildLeft, sj.lKeep, sj.rKeep, nil)
						if got := hash.ProbeBatch(probe, false); !sameRows(got, wantS) {
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
						if got := hash.ProbeBatch(probe, true); !sameRows(got, wantO) {
							t.Errorf("%s: outer ProbeBatch = %v, want %v", name, got, wantO)
						}
						if !pruned {
							wantJ := refProbe(build, probe, buildKey, probeKey, false, nil, rKeep, nullRight)
							if got := jp.ProbeOuter(probe, probeKey, width, rKeep, nullRight); !sameRows(got, wantJ) {
								t.Errorf("%s: JoinProbe.ProbeOuter = %v, want %v", name, got, wantJ)
							}
						}
					}
				}
			}
		}
	}
	testCollideHashedKeys = false
}

// sameRows compares row lists positionally, treating nil and empty
// alike.
func sameRows(a, b []Row) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestProbeAllMissAllocatesNothing: a probe that emits nothing must
// not pay for its input — no output arena, no per-row scratch — so it
// allocates the same at 100 probe rows and at 10,000: nothing, or (when
// the collector or the race detector emptied the scratch pool between
// runs) the pooled chain-head slice again.
func TestProbeAllMissAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	build := randomRows(rng, 2, 500, 400)
	jp := NewJoinProbe(build, []int{0})
	hash := NewStreamJoin(Schema{"k", "p"}, Schema{"k", "b"}, nil).Build(build, false)
	const poolRefill = 2 // the pooled *[]int32 and its backing array
	for _, n := range []int{100, 10000} {
		probe := randomRows(rng, 2, n, 400)
		for _, pr := range probe {
			pr[0] += 1000
		}
		var out []Row
		if a := testing.AllocsPerRun(20, func() { out = jp.Probe(probe, []int{0}, false, 3, nil, []int{1}) }); a > poolRefill || out != nil {
			t.Errorf("JoinProbe.Probe of %d missing rows: %v allocations, %d rows", n, a, len(out))
		}
		if a := testing.AllocsPerRun(20, func() { out = hash.ProbeBatch(probe, false) }); a > poolRefill || out != nil {
			t.Errorf("ProbeBatch of %d missing rows: %v allocations, %d rows", n, a, len(out))
		}
	}
}

// sameRowContents compares row lists value by value: a width-0 row is
// the same row whether its slice is nil or empty.
func sameRowContents(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool { return slices.Equal(x, y) })
}

// TestKernelScratchMatchesOneShotKernels works one KernelScratch through
// a long random mix of kernels — partition joins, a broadcast build
// probed by several partitions, cartesians, distincts; key widths that
// take the ID-keyed, the packed and the hashed index in turn; inputs
// that grow, shrink and go empty — and requires of every call the rows
// the one-shot kernel returns. Reuse then costs nothing: the same call
// again allocates zero times. Trim leaves no buffer over its bound and
// the scratch still working.
func TestKernelScratchMatchesOneShotKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var s KernelScratch
	for iter := 0; iter < 400; iter++ {
		nk := 1 + rng.Intn(3)
		lKey, rKey := rng.Perm(4)[:nk], rng.Perm(4)[:nk]
		var lKeep []int
		if rng.Intn(2) == 0 {
			lKeep = rng.Perm(4)[:rng.Intn(4)]
		}
		rKeep := rng.Perm(4)[:rng.Intn(4)]
		width := len(lKeep) + len(rKeep)
		if lKeep == nil {
			width = 4 + len(rKeep)
		}
		size := func() int { return []int{0, 1, 7, 60, 500}[rng.Intn(5)] }
		l, r := randomRows(rng, 4, size(), 6), randomRows(rng, 4, size(), 6)
		var got, want []Row
		var again func()
		switch rng.Intn(4) {
		case 0:
			again = func() { got = s.JoinPartition(l, r, lKey, rKey, width, lKeep, rKeep) }
			want = JoinPartitionKernel(l, r, lKey, rKey, width, lKeep, rKeep)
		case 1:
			s.Build(l, lKey)
			jp := NewJoinProbe(l, lKey)
			for p := 0; p < 3; p++ {
				part := randomRows(rng, 4, size(), 6)
				got, want = s.Probe(part, rKey, true, width, lKeep, rKeep), jp.Probe(part, rKey, true, width, lKeep, rKeep)
				if !sameRowContents(got, want) {
					t.Fatalf("iter %d: Probe of partition %d returned %d rows, JoinProbe.Probe %d", iter, p, len(got), len(want))
				}
			}
			again = func() { got = s.Probe(r, rKey, true, width, lKeep, rKeep) }
			want = jp.Probe(r, rKey, true, width, lKeep, rKeep)
		case 2:
			small := r[:min(len(r), 3)]
			again = func() { got = s.Cartesian(l, small, false, width, lKeep, rKeep) }
			want = CartesianKernel(l, small, false, width, lKeep, rKeep)
		case 3:
			again = func() { got = s.Distinct(l, 4) }
			want = DistinctKernel(l, 4)
		}
		again()
		if !sameRowContents(got, want) {
			t.Fatalf("iter %d: scratch kernel returned %d rows, one-shot kernel %d", iter, len(got), len(want))
		}
		if a := testing.AllocsPerRun(3, again); a != 0 || !sameRowContents(got, want) {
			t.Fatalf("iter %d: the same call on the warm scratch allocates %v times (rows equal: %v)", iter, a, sameRowContents(got, want))
		}
		if iter%50 == 49 {
			const limit = 4 << 10
			if s.Trim(limit); s.LargestBuffer() > limit {
				t.Fatalf("iter %d: a %d-byte buffer survives Trim(%d)", iter, s.LargestBuffer(), limit)
			}
		}
	}
}
