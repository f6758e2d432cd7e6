package engine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// TestBlockRowIsCapacityClipped: a row handed out by a block — built
// from rows, by an arena, or sliced — cannot grow into the next one.
func TestBlockRowIsCapacityClipped(t *testing.T) {
	a := NewRowArena(2, 3)
	for _, r := range []Row{{1, 2}, {3, 4}, {5, 6}} {
		a.AppendCopy(r)
	}
	for name, b := range map[string]Block{
		"NewBlock": NewBlock(2, []Row{{1, 2}, {3, 4}, {5, 6}}),
		"arena":    a.Block(),
		"Slice":    NewBlock(2, []Row{{9, 9}, {1, 2}, {3, 4}, {5, 6}}).Slice(1, 4),
	} {
		for i := 0; i < b.Len()-1; i++ {
			r := b.Row(i)
			if len(r) != 2 || cap(r) != 2 {
				t.Errorf("%s: row %d has len %d cap %d, want 2 and 2", name, i, len(r), cap(r))
			}
			_ = append(r, 99)
		}
		if got := b.Rows(); !sameRowContents(got, []Row{{1, 2}, {3, 4}, {5, 6}}) {
			t.Errorf("%s: appending to rows changed the block to %v", name, got)
		}
	}
}

// TestBlockWidthZeroKeepsCount: an existence relation's rows carry no
// IDs, so only the stored count says how many there are — through a
// slice, a union, a shuffle and a limit.
func TestBlockWidthZeroKeepsCount(t *testing.T) {
	b := MakeBlock(0, 5, nil)
	if s := b.Slice(1, 4); s.Len() != 3 || s.Width() != 0 || len(s.Rows()) != 3 {
		t.Errorf("Slice(1, 4) of 5 empty rows: %d rows, width %d", s.Len(), s.Width())
	}
	rel := NewBlockRelation(Schema{}, []Block{b, {}, MakeBlock(0, 2, nil)}, "")
	e := testExec(t)
	u, err := e.UnionAll(rel, rel)
	if err != nil || u.NumRows() != 14 {
		t.Errorf("UnionAll of two 7-row existence relations: %d rows, err %v", u.NumRows(), err)
	}
	parts, moved := shuffleRows(nil, rel, nil, 4)
	if totalRows(parts) != 7 || len(parts) != 4 {
		t.Errorf("shuffle of 7 empty rows into 4 partitions kept %d rows", totalRows(parts))
	}
	for p := range parts {
		if moved[p] != 0 {
			t.Errorf("shuffling width-0 rows charged %d bytes to partition %d", moved[p], p)
		}
	}
	for _, c := range []struct{ limit, offset, want int }{{6, 0, 6}, {10, 0, 7}, {-1, 3, 4}, {2, 6, 1}, {-1, 9, 0}} {
		got, err := e.Limit(rel, c.limit, c.offset)
		if err != nil || totalRows(got) != c.want {
			t.Errorf("Limit(%d, %d) of 7 empty rows: %d rows, want %d (err %v)", c.limit, c.offset, totalRows(got), c.want, err)
		}
	}
}

// TestBlockSliceSharesStorage: a slice is a window on its block's IDs,
// not a copy, and a slice of a slice is a window on the same storage.
func TestBlockSliceSharesStorage(t *testing.T) {
	b := NewBlock(3, randomRows(rand.New(rand.NewSource(1)), 3, 10, 50))
	s := b.Slice(2, 7)
	if s.Len() != 5 || s.Width() != 3 || &s.IDs()[0] != &b.IDs()[6] {
		t.Fatalf("Slice(2, 7): %d rows of width %d, not over the block's IDs", s.Len(), s.Width())
	}
	ss := s.Slice(1, 3)
	if &ss.IDs()[0] != &b.IDs()[9] || !slices.Equal(ss.Row(1), b.Row(4)) {
		t.Fatalf("a slice of a slice does not share the block's storage")
	}
	if e := b.Slice(4, 4); e.Len() != 0 || e.Width() != 3 {
		t.Errorf("an empty slice has %d rows of width %d", e.Len(), e.Width())
	}
}

// TestBlockRowsRoundTrip: rows copied into a block — directly or as a
// relation's partitions — and read back are the rows given, for every
// width, width 0 included.
func TestBlockRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for width := 0; width <= 4; width++ {
		for _, n := range []int{0, 1, 17} {
			rows := randomRows(rng, width, n, 1000)
			if got := NewBlock(width, rows).Rows(); !sameRowContents(got, rows) {
				t.Errorf("width %d, %d rows: round trip gave %v, want %v", width, n, got, rows)
			}
			parts := [][]Row{rows[:n/2], nil, rows[n/2:]}
			if got := NewRelation(Schema{"a", "b", "c", "d"}[:width], parts, "").Rows(); !sameRowContents(got, rows) {
				t.Errorf("width %d, %d rows: relation round trip gave %v, want %v", width, n, got, rows)
			}
		}
	}
}

// TestTopPermMatchesFullSort: selecting a block's first k rows returns
// exactly the first k row numbers of the stable full sort — over blocks
// full of duplicate rows, under the total row order and under an order
// on the first column alone, where only the tie rule decides — and a
// selection over many rows calls less about once per row, where the
// full sort calls it about 2·n·log₂n times.
func TestTopPermMatchesFullSort(t *testing.T) {
	orders := map[string]func(x, y Row) bool{
		"rows":   lessRows,
		"column": func(x, y Row) bool { return x[0] < y[0] },
	}
	rng := rand.New(rand.NewSource(35))
	for width := 1; width <= 3; width++ {
		for _, n := range []int{0, 1, 2, 7, 64, 65, 1000} {
			a := NewRowArena(width, n)
			row := make(Row, width)
			for i := 0; i < n; i++ {
				for j := range row {
					row[j] = rdf.ID(rng.Intn(4)) // few values: many duplicate rows
				}
				a.AppendCopy(row)
			}
			b := a.Block()
			for name, less := range orders {
				full := sortPerm(b, less, make([]int32, n))
				for _, k := range []int{-1, 0, 1, n / 2, n - 1, n, n + 1} {
					want := full
					if k >= 0 && k < n {
						want = full[:k]
					}
					if got := topPerm(b, less, k, nil); !slices.Equal(got, want) {
						t.Errorf("width %d, n %d, k %d, %s order: row numbers %v, want %v", width, n, k, name, got, want)
					}
					if got, wantRows := SortBlock(b, less, k).Rows(), SortBlock(b, less, -1).Rows()[:len(want)]; !sameRowContents(got, wantRows) {
						t.Errorf("width %d, n %d, k %d, %s order: rows %v, want %v", width, n, k, name, got, wantRows)
					}
				}
			}
		}
	}

	const n, k = 100_000, 10
	a := NewRowArena(1, n)
	for _, v := range rng.Perm(n) {
		a.AppendCopy(Row{rdf.ID(v)})
	}
	calls := 0
	perm := topPerm(a.Block(), func(x, y Row) bool { calls++; return x[0] < y[0] }, k, nil)
	for i, p := range perm {
		if got := a.Block().Row(int(p))[0]; got != rdf.ID(i) {
			t.Fatalf("selected row %d holds %d, want %d", i, got, i)
		}
	}
	t.Logf("%d calls of less to select %d of %d rows", calls, k, n)
	if calls > n*11/10 {
		t.Errorf("selecting %d of %d rows called less %d times, want at most %d", k, n, calls, n*11/10)
	}
}
