package engine

import (
	"math/rand"
	"slices"
	"testing"
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
	u, err := e.Union(rel, rel)
	if err != nil || u.NumRows() != 14 {
		t.Errorf("Union of two 7-row existence relations: %d rows, err %v", u.NumRows(), err)
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
