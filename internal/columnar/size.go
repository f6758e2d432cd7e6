package columnar

import (
	"math/bits"

	"repro/internal/rdf"
)

// DefaultRowGroupSize is the number of rows per row group, mirroring
// Parquet's practice of slicing files into independently encoded groups.
const DefaultRowGroupSize = 65536

// FileFooterBytes is what a file adds for its footer and magic.
const FileFooterBytes = 64

// ColumnFooterBytes returns the footer metadata a column named name
// adds to its file.
func ColumnFooterBytes(name string) int64 { return int64(len(name)) + 16 }

// Sizer computes one column's encoded size from its rows, fed in row
// order, without building the encoding. Each row group of
// DefaultRowGroupSize rows is encoded on its own, and each of its
// chunks costs the smaller of its plain and RLE layouts: exactly the
// bytes EncodeIDs would produce for it.
//
// A scalar column is fed with Add. A list column is fed with AddList
// and is stored as a chunk of per-row lengths plus a chunk of its
// flattened values, both cut at the same row boundaries. AddNulls adds
// absent rows to either kind. The zero Sizer is an empty column.
type Sizer struct {
	bytes int64     // the closed row groups
	rows  int       // rows in the open row group
	row   chunkSize // one entry per row: the value, or the list's length
	flat  chunkSize // a list column's values
}

// Add adds one scalar row; NullID marks an absent cell.
func (z *Sizer) Add(v rdf.ID) {
	z.next()
	z.row.add(v, 1)
	z.rows++
}

// AddList adds one list row; an empty list marks an absent cell.
func (z *Sizer) AddList(vals []rdf.ID) {
	z.next()
	z.row.add(rdf.ID(len(vals)), 1)
	for _, v := range vals {
		z.flat.add(v, 1)
	}
	z.rows++
}

// AddNulls adds n absent rows: NullID cells, or empty lists.
func (z *Sizer) AddNulls(n int) {
	for n > 0 {
		z.next()
		k := min(n, DefaultRowGroupSize-z.rows)
		z.row.add(rdf.NullID, k)
		z.rows += k
		n -= k
	}
}

// Bytes returns the encoded size of the rows added so far.
func (z *Sizer) Bytes() int64 { return z.bytes + z.row.size() + z.flat.size() }

// next closes the open row group if it is full.
func (z *Sizer) next() {
	if z.rows == DefaultRowGroupSize {
		z.bytes += z.row.size() + z.flat.size()
		z.row, z.flat, z.rows = chunkSize{}, chunkSize{}, 0
	}
}

// chunkSize follows one chunk's plain and RLE sizes as values arrive.
type chunkSize struct {
	plain, rle int64  // rle leaves out the open run
	val        rdf.ID // the open run's value
	run        int    // the open run's length; 0 before the first value
}

// add appends n copies of v.
func (c *chunkSize) add(v rdf.ID, n int) {
	c.plain += int64(n * uvarintLen(uint64(v)))
	if c.run > 0 && v == c.val {
		c.run += n
		return
	}
	c.rle += c.openRun()
	c.val, c.run = v, n
}

// size returns the chunk's encoded size: the smaller layout, ties to
// RLE, as EncodeIDs chooses.
func (c *chunkSize) size() int64 { return min(c.plain, c.rle+c.openRun()) }

// openRun returns the size of the open run's (length, value) pair.
func (c *chunkSize) openRun() int64 {
	if c.run == 0 {
		return 0
	}
	return int64(uvarintLen(uint64(c.run)) + uvarintLen(uint64(c.val)))
}

// uvarintLen returns the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
