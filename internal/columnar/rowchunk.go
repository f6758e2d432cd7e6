package columnar

import (
	"fmt"

	"repro/internal/rdf"
)

// RowChunk is one batch of fixed-width rows encoded column at a time,
// each column its own Chunk, so a column that repeats (a join key, or
// one dense in NullID) compresses under RLE. The benchmark's columnar
// probes measure encoding and decoding join output in this form.
//
// Width-0 chunks (existence results) are valid: they carry a row count
// and no columns.
type RowChunk struct {
	cols []Chunk
	rows int
}

// EncodeRows encodes a batch of rows of the given width. Every row must
// have exactly width values; rows may be nil when width is 0.
func EncodeRows(width int, rows [][]rdf.ID) (RowChunk, error) {
	rc := RowChunk{rows: len(rows)}
	if width == 0 {
		return rc, nil
	}
	col := make([]rdf.ID, len(rows))
	rc.cols = make([]Chunk, width)
	for c := 0; c < width; c++ {
		for i, r := range rows {
			if len(r) != width {
				return RowChunk{}, fmt.Errorf("columnar: row %d has width %d, chunk width is %d", i, len(r), width)
			}
			col[i] = r[c]
		}
		rc.cols[c] = EncodeIDs(col)
	}
	return rc, nil
}

// Rows returns the number of rows in the chunk.
func (rc RowChunk) Rows() int { return rc.rows }

// Width returns the number of columns.
func (rc RowChunk) Width() int { return len(rc.cols) }

// SizeBytes returns the total encoded size across columns — the
// chunk's wire/in-flight footprint.
func (rc RowChunk) SizeBytes() int64 {
	var n int64
	for _, c := range rc.cols {
		n += c.SizeBytes()
	}
	return n
}

// Column returns the encoded chunk of one column.
func (rc RowChunk) Column(i int) Chunk { return rc.cols[i] }

// Decode materializes the chunk back into row-major form. Width-0
// chunks decode to rows of length zero.
func (rc RowChunk) Decode() ([][]rdf.ID, error) {
	out := make([][]rdf.ID, rc.rows)
	if len(rc.cols) == 0 {
		for i := range out {
			out[i] = []rdf.ID{}
		}
		return out, nil
	}
	flat := make([]rdf.ID, rc.rows*len(rc.cols))
	for i := range out {
		out[i] = flat[i*len(rc.cols) : (i+1)*len(rc.cols) : (i+1)*len(rc.cols)]
	}
	for c, ch := range rc.cols {
		vals, err := ch.Decode()
		if err != nil {
			return nil, fmt.Errorf("columnar: column %d: %w", c, err)
		}
		if len(vals) != rc.rows {
			return nil, fmt.Errorf("columnar: column %d decoded %d values, chunk has %d rows", c, len(vals), rc.rows)
		}
		for i, v := range vals {
			out[i][c] = v
		}
	}
	return out, nil
}
