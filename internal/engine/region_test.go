package engine

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/rdf"
)

// TestRegionCarvesDisjointLineAlignedBuffers: buffers of every size —
// side by side in a slab, in a slab of their own, past the largest class
// — never overlap, start on a cache line, cannot be appended into a
// neighbour, and keep what was written to them until Release, while
// several goroutines carve at once.
func TestRegionCarvesDisjointLineAlignedBuffers(t *testing.T) {
	r := NewRegion()
	defer r.Release()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bufs [][]rdf.ID
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				n := []int{0, 1, 15, 16, 17, 300, slabSmall, slabSmall + 1, maxSmallIDs + 5, 3 * maxSmallIDs}[rng.Intn(10)]
				b := r.IDs(n)
				if len(b) != n || cap(b) != n {
					t.Errorf("IDs(%d): len %d cap %d", n, len(b), cap(b))
					return
				}
				if n > 0 && uintptr(unsafe.Pointer(&b[0]))%64 != 0 {
					t.Errorf("IDs(%d) starts mid-line", n)
				}
				for j := range b {
					b[j] = rdf.ID(g<<24 | i<<12 | j%4096)
				}
				mu.Lock()
				bufs = append(bufs, b)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, b := range bufs {
		for j, v := range b {
			if v&0xfff != rdf.ID(j%4096) || v != b[0]+rdf.ID(j%4096) {
				t.Fatalf("a %d-ID buffer was overwritten at %d: another buffer shares its storage", len(b), j)
			}
		}
	}
}

// TestRegionReleasePoisons: with the PoisonReleased hook on, what a
// released buffer still points at reads PoisonID, an ID the dictionary
// rejects, and the region can be carved from again.
func TestRegionReleasePoisons(t *testing.T) {
	defer PoisonReleased(PoisonReleased(true))
	r := NewRegion()
	b := r.IDs(100)
	for i := range b {
		b[i] = rdf.ID(i + 1)
	}
	r.Release()
	for i, v := range b {
		if v != PoisonID {
			t.Fatalf("released ID %d reads %d, want the poison %d", i, v, PoisonID)
		}
	}
	d := rdf.NewDictionary()
	d.Encode(rdf.NewIRI("http://example.org/a"))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the dictionary decoded PoisonID")
			}
		}()
		d.Term(PoisonID)
	}()
	// The region is empty and usable again.
	if c := r.IDs(3 * maxSmallIDs); len(c) != 3*maxSmallIDs {
		t.Fatalf("a released region carved %d IDs, want %d", len(c), 3*maxSmallIDs)
	}
	r.Release()
}

// TestNilRegionIsTheHeap: a kernel without a region gets fresh, zeroed
// heap storage, and releasing nothing is allowed.
func TestNilRegionIsTheHeap(t *testing.T) {
	var r *Region
	b := r.IDs(5)
	if len(b) != 5 || b[0] != 0 || b[4] != 0 {
		t.Fatalf("nil region IDs(5) = %v", b)
	}
	a := r.Arena(2, 3)
	a.AppendCopy(Row{1, 2})
	if got := a.Block().Rows(); len(got) != 1 || got[0][1] != 2 {
		t.Fatalf("nil region arena holds %v", got)
	}
	r.Release()
}

// TestRegionKernelsMatchHeapKernels: every operator run in a region
// returns the rows it returns on the heap, and the region's buffers are
// what the rows live in until Release.
func TestRegionKernelsMatchHeapKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	left := Schema{"k", "a", "j"}
	right := Schema{"k", "b", "j"}
	l := NewRelation(left, [][]Row{randomRows(rng, 3, 400, 40), randomRows(rng, 3, 7, 40), nil}, "")
	rr := NewRelation(right, [][]Row{randomRows(rng, 3, 90, 40), randomRows(rng, 3, 300, 40)}, "")
	run := func(e *Exec) []string {
		var out []string
		add := func(rel *Relation, err error) {
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rel.SortedRows() {
				out = append(out, string(rune(len(row)))+rowKey(row))
			}
			out = append(out, "|")
		}
		for _, s := range []JoinStrategy{StrategyShuffle, StrategyBroadcast} {
			add(e.JoinWith(l, rr, "j", s))
		}
		add(e.LeftJoin(l, rr, "lj"))
		add(e.Filter(l, "f", func(r Row) bool { return r[1]%3 == 0 }))
		add(e.Project(l, []string{"j", "k"}))
		add(e.Distinct(l))
		add(e.Union(l, l))
		add(e.TopK(l, lessRows, 25, 5))
		add(e.JoinKeep(l, NewRelation(Schema{"z"}, [][]Row{{{1}, {2}}}, ""), "cross", StrategyAuto, nil))
		return out
	}
	c := testExec(t).Cluster
	heap := run(NewExec(c, cluster.NewClock()))
	region := NewRegion()
	e := NewExec(c, cluster.NewClock())
	e.Region = region
	got := run(e)
	region.Release()
	if len(got) != len(heap) {
		t.Fatalf("region run produced %d rows, heap run %d", len(got), len(heap))
	}
	for i := range got {
		if got[i] != heap[i] {
			t.Fatalf("row %d differs between the region and the heap", i)
		}
	}
}

func rowKey(r Row) string {
	b := make([]byte, 0, 4*len(r))
	for _, v := range r {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}
