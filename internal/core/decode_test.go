package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/testenv"
)

// decodeTestStore loads n subjects whose objects span every kind of
// term — IRIs, blank nodes, plain, typed and language-tagged literals —
// so a decoded cell has every field of a Term to get right.
func decodeTestStore(t *testing.T, n int) *Store {
	t.Helper()
	g := rdf.NewGraph(0)
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%ss%d", testNS, i))
		var o rdf.Term
		switch i % 5 {
		case 0:
			o = rdf.NewIRI(fmt.Sprintf("%so%d", testNS, i%97))
		case 1:
			o = rdf.NewBlank(fmt.Sprintf("b%d", i%31))
		case 2:
			o = rdf.NewLiteral(fmt.Sprintf("text %d", i%53))
		case 3:
			o = rdf.NewTypedLiteral(fmt.Sprint(i%71), rdf.XSDInteger)
		default:
			o = rdf.NewLangLiteral(fmt.Sprintf("mot %d", i%43), "fr")
		}
		g.AddSPO(s, rdf.NewIRI(testNS+"p"), o)
		g.AddSPO(s, rdf.NewIRI(testNS+"q"), rdf.NewIRI(fmt.Sprintf("%sx%d", testNS, i%13)))
	}
	c := cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: 4})
	s, err := Load(g, Options{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cutBlocks cuts all into blocks of random sizes, as a result's
// partitions arrive: empty ones among them, a zero Block first and an
// empty slice last.
func cutBlocks(rng *rand.Rand, all engine.Block) []engine.Block {
	blocks := []engine.Block{{}}
	for lo := 0; lo < all.Len(); {
		hi := min(all.Len(), lo+rng.Intn(all.Len()/3+2))
		blocks = append(blocks, all.Slice(lo, hi))
		lo = hi
	}
	return append(blocks, all.Slice(all.Len(), all.Len()))
}

// TestDecodeRowsSameAtAnyParallelism: how many workers decode a result
// is scheduling, never a result. At GOMAXPROCS 1, 2 and 8 decodeRows
// returns what decoding every cell in order through decodeCell returns
// — over results cut into blocks that the decode's row ranges straddle,
// with NullID cells and a COUNT column, at widths 0 to 4 and at row
// counts on both sides of decodeSplitCells — and every row is a window
// that an append cannot grow into the next row. Whole queries return
// their rows in the same order at every GOMAXPROCS too, on both
// executors, with released regions poisoned.
func TestDecodeRowsSameAtAnyParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s := decodeTestStore(t, 600)
	terms := s.dict.Snapshot()
	reference := func(blocks []engine.Block, countCols []bool) [][]rdf.Term {
		var rows [][]rdf.Term
		for _, b := range blocks {
			for r := 0; r < b.Len(); r++ {
				var row []rdf.Term
				for j, id := range b.Row(r) {
					row = append(row, decodeCell(terms, id, j < len(countCols) && countCols[j], nil))
				}
				rows = append(rows, row)
			}
		}
		return rows
	}
	rng := rand.New(rand.NewSource(40))
	for width := 0; width <= 4; width++ {
		// The second column, where there is one, holds raw counts.
		var countCols []bool
		if width >= 2 {
			countCols = make([]bool, width)
			countCols[1] = true
		}
		rowCounts := []int{0, 1, 5}
		if width > 0 {
			split := (decodeSplitCells + width - 1) / width // the fewest rows split
			rowCounts = append(rowCounts, split-1, split, split+1, 3*split+7)
		}
		for _, n := range rowCounts {
			ids := make([]rdf.ID, n*width)
			for k := range ids {
				if countCols != nil && countCols[k%width] {
					ids[k] = rdf.ID(rng.Uint32())
				} else {
					ids[k] = rdf.ID(rng.Intn(s.dict.Len() + 1)) // 0 is NullID
				}
			}
			blocks := cutBlocks(rng, engine.MakeBlock(width, n, ids))
			want := reference(blocks, countCols)
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				label := fmt.Sprintf("width %d, %d rows, GOMAXPROCS %d", width, n, procs)
				got := s.decodeRows(blocks, countCols)
				if got == nil || len(got) != n {
					t.Fatalf("%s: decoded %d rows (nil %v)", label, len(got), got == nil)
				}
				check := func(when string) {
					for i := range got {
						if len(got[i]) != width || cap(got[i]) != width {
							t.Fatalf("%s%s: row %d has length %d, capacity %d", label, when, i, len(got[i]), cap(got[i]))
						}
						for j := range got[i] {
							if got[i][j] != want[i][j] {
								t.Fatalf("%s%s: row %d col %d decoded to %#v, want %#v", label, when, i, j, got[i][j], want[i][j])
							}
						}
					}
				}
				check("")
				for i := range got {
					_ = append(got[i], rdf.NewLiteral("spill"))
				}
				check(", after appending to every row")
			}
		}
	}

	defer engine.PoisonReleased(engine.PoisonReleased(true))
	big := decodeTestStore(t, 3000)
	q := sparql.MustParse("SELECT ?s ?o ?x WHERE { ?s <" + testNS + "p> ?o . ?s <" + testNS + "q> ?x }")
	for _, streaming := range []bool{false, true} {
		var want string
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			res, err := big.Query(q, QueryOptions{Streaming: streaming})
			if err != nil {
				t.Fatalf("streaming %v, GOMAXPROCS %d: %v", streaming, procs, err)
			}
			if len(res.Rows)*len(q.Projection()) < decodeSplitCells {
				t.Fatalf("streaming %v: %d rows do not reach the split", streaming, len(res.Rows))
			}
			got := renderInOrder(res)
			if procs == 1 {
				want = got
			} else if got != want {
				t.Errorf("streaming %v: rows at GOMAXPROCS %d differ from GOMAXPROCS 1", streaming, procs)
			}
		}
	}
}

// TestDisplayRowsDecodeOnlyWhatTheyShow: a DisplayRows limited to k
// rows shows the first k rows the unlimited one shows, in the same
// order, for an ORDER BY result (query order) and for any other (the
// display sort, which needs every row decoded), with NullID cells and
// a COUNT column. An ordered result decodes only the rows shown: a
// fresh DisplayRows then holds k rows of cells, not the result's.
func TestDisplayRowsDecodeOnlyWhatTheyShow(t *testing.T) {
	s := decodeTestStore(t, 200)
	rng := rand.New(rand.NewSource(45))
	const n, width = 500, 3
	ids := make([]rdf.ID, n*width)
	for k := range ids {
		if k%width == 1 {
			ids[k] = rdf.ID(rng.Intn(1000)) // a raw count
		} else {
			ids[k] = rdf.ID(rng.Intn(s.dict.Len() + 1)) // 0 is NullID
		}
	}
	rows := IDRows{Block: engine.MakeBlock(width, n, ids), CountCols: []bool{false, true, false}, Terms: s.dict.Snapshot()}
	for _, ordered := range []bool{true, false} {
		var all DisplayRows
		all.Decode(rows, ordered, 0)
		if all.Len() != n {
			t.Fatalf("ordered %v: %d rows shown of %d, no limit", ordered, all.Len(), n)
		}
		for _, limit := range []int{-1, 1, 3, 7, n - 1, n, n + 5} {
			label := fmt.Sprintf("ordered %v, limit %d", ordered, limit)
			var d DisplayRows
			d.Decode(rows, ordered, limit)
			want := n
			if limit > 0 {
				want = min(limit, n)
			}
			if d.Len() != want {
				t.Fatalf("%s: %d rows shown, want %d", label, d.Len(), want)
			}
			for i := range want {
				if got, ref := d.Row(i), all.Row(i); !slices.Equal(got, ref) {
					t.Fatalf("%s: row %d is %v, the unlimited display's %v", label, i, got, ref)
				}
			}
			if decoded := cap(d.cells) / width; ordered && decoded != want || !ordered && decoded != n {
				t.Errorf("%s: holds %d rows of cells for %d shown of %d", label, decoded, want, n)
			}
		}
	}
}

// TestDecodeRowsAllocsIndependentOfRowCount: on two processors a large
// result decodes as a stage of two row ranges, and what that allocates
// — the row headers, a backing slice per range, the stage — is the
// same for 5,000 rows as for 50,000.
func TestDecodeRowsAllocsIndependentOfRowCount(t *testing.T) {
	testenv.SkipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := denseStarStore(t, 50)
	allocs := func(n int) float64 {
		ids := make([]rdf.ID, 3*n)
		for k := range ids {
			ids[k] = rdf.ID(1 + k%50)
		}
		blocks := []engine.Block{engine.MakeBlock(3, n, ids)}
		return testenv.ParallelAllocsPerRun(t, 10, func() {
			if rows := s.decodeRows(blocks, nil); len(rows) != n {
				t.Fatalf("decoded %d rows of %d", len(rows), n)
			}
		})
	}
	small, large := allocs(5000), allocs(50000)
	t.Logf("allocations per decode on 2 processors: %.0f at 5,000 rows, %.0f at 50,000", small, large)
	if large != small {
		t.Errorf("decoding allocates %.0f times at 5,000 rows and %.0f at 50,000; want the same", small, large)
	}
}
