package columnar

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rdf"
	"repro/internal/testenv"
)

// refScalarBytes is the reference size of a scalar column: each row
// group encoded by EncodeIDs.
func refScalarBytes(vals []rdf.ID) int64 {
	var total int64
	for start := 0; start < len(vals); start += DefaultRowGroupSize {
		total += EncodeIDs(vals[start:min(start+DefaultRowGroupSize, len(vals))]).SizeBytes()
	}
	return total
}

// refListBytes is the reference size of a list column: each row group
// encoded as a chunk of per-row lengths plus a chunk of its flattened
// values.
func refListBytes(lists [][]rdf.ID) int64 {
	var total int64
	for start := 0; start < len(lists); start += DefaultRowGroupSize {
		group := lists[start:min(start+DefaultRowGroupSize, len(lists))]
		lengths := make([]rdf.ID, len(group))
		var flat []rdf.ID
		for i, l := range group {
			lengths[i] = rdf.ID(len(l))
			flat = append(flat, l...)
		}
		total += EncodeIDs(lengths).SizeBytes() + EncodeIDs(flat).SizeBytes()
	}
	return total
}

// maxFuzzRows caps the rows one fuzz input may describe.
const maxFuzzRows = 1 << 18

// sizeSpec describes a column as records of three uvarints (v, n, k),
// each adding n rows. In a scalar column row i holds v+i when k&1 is
// set and v otherwise, and a record with v = 0 and k&2 set is n NULLs
// added by AddNulls. In a list column each row holds m = (k>>2)%8
// values, the j-th v+i*m+j when k&1 is set and v otherwise, and a
// record with m = 0 and k&2 set is n empty lists added by AddNulls.
func sizeSpec(recs ...[3]uint64) []byte {
	var b []byte
	for _, r := range recs {
		for _, x := range r {
			b = binary.AppendUvarint(b, x)
		}
	}
	return b
}

// FuzzColumnSize feeds a Sizer the column a spec describes and
// compares its size with the reference encoders'.
func FuzzColumnSize(f *testing.F) {
	for _, v := range []uint64{127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, math.MaxUint32} {
		f.Add(false, sizeSpec([3]uint64{v, 3, 0}, [3]uint64{v - 1, 200, 1}))
		f.Add(true, sizeSpec([3]uint64{v, 3, 2 << 2}, [3]uint64{v - 1, 50, 1 | 3<<2}))
	}
	for _, run := range []uint64{127, 128, 16383, 16384} {
		f.Add(false, sizeSpec([3]uint64{7, run, 0}, [3]uint64{8, run, 0}))
		f.Add(true, sizeSpec([3]uint64{7, run, 1 << 2}, [3]uint64{0, run, 0}))
	}
	f.Add(false, []byte(nil))
	f.Add(true, []byte(nil))
	f.Add(false, sizeSpec([3]uint64{0, 1000, 2}))                      // all NULL, through AddNulls
	f.Add(false, sizeSpec([3]uint64{0, 140000, 0}))                    // all NULL, one Add at a time
	f.Add(true, sizeSpec([3]uint64{0, 140000, 2}))                     // all empty lists
	f.Add(false, sizeSpec([3]uint64{1, 65535, 1}, [3]uint64{9, 2, 0})) // distinct values, then a run across 65,536
	f.Add(false, sizeSpec([3]uint64{1, 131071, 1}, [3]uint64{5, 3, 1}))
	f.Add(false, sizeSpec([3]uint64{5, 65537, 0}, [3]uint64{0, 65536, 2}, [3]uint64{6, 1, 0}))
	f.Add(true, sizeSpec([3]uint64{1, 65535, 1 | 1<<2}, [3]uint64{0, 2, 2}, [3]uint64{3, 65536, 3 << 2}))
	f.Add(true, sizeSpec([3]uint64{4, 131073, 1 | 7<<2}))
	f.Fuzz(func(t *testing.T, list bool, spec []byte) {
		var z Sizer
		var scalars []rdf.ID
		var lists [][]rdf.ID
		rows := 0
		for len(spec) > 0 && rows < maxFuzzRows {
			var rec [3]uint64
			for i := range rec {
				x, n := binary.Uvarint(spec)
				if n <= 0 {
					spec = nil
					break
				}
				rec[i], spec = x, spec[n:]
			}
			if spec == nil {
				break
			}
			v, n, k := rdf.ID(rec[0]), int(min(rec[1], uint64(maxFuzzRows-rows))), rec[2]
			rows += n
			if !list {
				if v == 0 && k&2 != 0 {
					z.AddNulls(n)
					scalars = append(scalars, make([]rdf.ID, n)...)
					continue
				}
				for i := range n {
					x := v
					if k&1 != 0 {
						x += rdf.ID(i)
					}
					z.Add(x)
					scalars = append(scalars, x)
				}
				continue
			}
			m := int(k>>2) % 8
			if m == 0 && k&2 != 0 {
				z.AddNulls(n)
				lists = append(lists, make([][]rdf.ID, n)...)
				continue
			}
			for i := range n {
				l := make([]rdf.ID, m)
				for j := range l {
					l[j] = v
					if k&1 != 0 {
						l[j] += rdf.ID(i*m + j)
					}
				}
				z.AddList(l)
				lists = append(lists, l)
			}
		}
		want := refScalarBytes(scalars)
		if list {
			want = refListBytes(lists)
		}
		if got := z.Bytes(); got != want {
			t.Fatalf("list %v, %d rows: sized %d bytes, the reference encoding is %d", list, rows, got, want)
		}
	})
}

// TestColumnPruningSizes prices a file of a dense, a sparse and a list
// column: the columns' sizes plus the footers are the file's size, and
// a sparse column costs less than a dense one.
func TestColumnPruningSizes(t *testing.T) {
	const n = 5000
	dense, sparse := make([]rdf.ID, n), make([]rdf.ID, n)
	lists := make([][]rdf.ID, n)
	var zd, zs, zl Sizer
	for i := range n {
		dense[i] = rdf.ID(i + 1)
		zd.Add(dense[i])
		if i == 42 {
			sparse[i] = 7
			lists[i] = []rdf.ID{8, 9}
		}
		zs.Add(sparse[i])
		zl.AddList(lists[i])
	}
	if zs.Bytes() >= zd.Bytes() {
		t.Errorf("sparse column (%d bytes) not smaller than dense (%d bytes)", zs.Bytes(), zd.Bytes())
	}
	file := FileFooterBytes + zd.Bytes() + ColumnFooterBytes("dense") +
		zs.Bytes() + ColumnFooterBytes("sparse") + zl.Bytes() + ColumnFooterBytes("likes")
	want := int64(64) + refScalarBytes(dense) + int64(len("dense")+16) +
		refScalarBytes(sparse) + int64(len("sparse")+16) + refListBytes(lists) + int64(len("likes")+16)
	if file != want {
		t.Errorf("columns and footers sum to %d bytes, the encoded file is %d", file, want)
	}
}

// TestEmptyFile prices a file whose one column has no rows: the column
// is empty and the file is its footers.
func TestEmptyFile(t *testing.T) {
	var z Sizer
	if z.Bytes() != 0 {
		t.Errorf("an empty column sizes to %d bytes", z.Bytes())
	}
	if got := FileFooterBytes + z.Bytes() + ColumnFooterBytes("s"); got != 81 {
		t.Errorf("a file of one empty column %q is %d bytes, want 81", "s", got)
	}
}

// TestSizerAllocatesNothing feeds a Sizer more than a row group of
// scalar, list and absent rows without an allocation.
func TestSizerAllocatesNothing(t *testing.T) {
	testenv.SkipUnderRace(t)
	list := []rdf.ID{3, 4, 5}
	allocs := testenv.AllocsPerRun(t, 5, func() {
		var scalar, lists Sizer
		for i := range DefaultRowGroupSize {
			scalar.Add(rdf.ID(i))
			lists.AddList(list)
		}
		scalar.AddNulls(3 * DefaultRowGroupSize)
		lists.AddNulls(3 * DefaultRowGroupSize)
		_ = scalar.Bytes() + lists.Bytes()
	})
	if allocs != 0 {
		t.Errorf("sizing allocated %.0f objects, want none", allocs)
	}
}
