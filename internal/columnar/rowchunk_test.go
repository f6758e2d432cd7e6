package columnar

import (
	"testing"

	"repro/internal/rdf"
)

// chunkRows encodes rows as chunks of at most chunkSize rows each.
func chunkRows(width int, rows [][]rdf.ID, chunkSize int) ([]RowChunk, error) {
	var out []RowChunk
	for start := 0; start < len(rows); start += chunkSize {
		rc, err := EncodeRows(width, rows[start:min(start+chunkSize, len(rows))])
		if err != nil {
			return nil, err
		}
		out = append(out, rc)
	}
	return out, nil
}

// TestRowChunkRLEAcrossMorselBoundaries verifies that a long run of
// equal values split across chunk edges round-trips: each chunk
// re-encodes its slice of the run independently (RLE state never spans
// a chunk), and decoding re-concatenates the original rows exactly.
func TestRowChunkRLEAcrossMorselBoundaries(t *testing.T) {
	const width, n, chunkSize = 2, 1000, 64
	rows := make([][]rdf.ID, n)
	for i := range rows {
		// Column 0: runs of 100 equal values, deliberately misaligned
		// with the 64-row chunk boundary. Column 1: unique values, so the
		// encoder picks plain for one column and RLE for the other.
		rows[i] = []rdf.ID{rdf.ID(i/100 + 1), rdf.ID(i + 1)}
	}
	chunks, err := chunkRows(width, rows, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if want := (n + chunkSize - 1) / chunkSize; len(chunks) != want {
		t.Fatalf("got %d chunks, want %d", len(chunks), want)
	}
	sawRLE := false
	var decoded [][]rdf.ID
	for ci, rc := range chunks {
		if rc.Column(0).Encoding() == EncRLE {
			sawRLE = true
		}
		got, err := rc.Decode()
		if err != nil {
			t.Fatalf("chunk %d: %v", ci, err)
		}
		decoded = append(decoded, got...)
	}
	if !sawRLE {
		t.Errorf("run-heavy column never chose RLE")
	}
	if len(decoded) != n {
		t.Fatalf("decoded %d rows, want %d", len(decoded), n)
	}
	for i := range rows {
		for c := 0; c < width; c++ {
			if decoded[i][c] != rows[i][c] {
				t.Fatalf("row %d col %d: got %d, want %d", i, c, decoded[i][c], rows[i][c])
			}
		}
	}
}

// TestRowChunkNullDense exercises a column dominated by NullID — the
// Property-Table shape RLE exists for — across several chunks.
func TestRowChunkNullDense(t *testing.T) {
	const n, chunkSize = 500, 128
	rows := make([][]rdf.ID, n)
	for i := range rows {
		v := rdf.NullID
		if i%97 == 0 {
			v = rdf.ID(i + 1)
		}
		rows[i] = []rdf.ID{v}
	}
	chunks, err := chunkRows(1, rows, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var back [][]rdf.ID
	for _, rc := range chunks {
		if rc.Column(0).Encoding() != EncRLE {
			t.Errorf("null-dense column encoded as %v, want RLE", rc.Column(0).Encoding())
		}
		total += rc.SizeBytes()
		got, err := rc.Decode()
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, got...)
	}
	// A null-dense RLE column must compress far below one byte per value.
	if total >= int64(n) {
		t.Errorf("null-dense chunks take %d bytes for %d values; RLE should compress below 1 B/value", total, n)
	}
	for i := range rows {
		if back[i][0] != rows[i][0] {
			t.Fatalf("row %d: got %d, want %d", i, back[i][0], rows[i][0])
		}
	}
}

// TestRowChunkEmptyAndZeroWidth covers the degenerate morsels the
// streaming executor produces: empty batches (no chunks at all) and
// width-0 existence rows (row count, no columns).
func TestRowChunkEmptyAndZeroWidth(t *testing.T) {
	chunks, err := chunkRows(3, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Fatalf("empty input produced %d chunks, want 0", len(chunks))
	}

	rc, err := EncodeRows(0, [][]rdf.ID{{}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Rows() != 3 || rc.Width() != 0 || rc.SizeBytes() != 0 {
		t.Fatalf("width-0 chunk: rows=%d width=%d bytes=%d, want 3/0/0", rc.Rows(), rc.Width(), rc.SizeBytes())
	}
	back, err := rc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("width-0 decode returned %d rows, want 3", len(back))
	}
	for i, r := range back {
		if len(r) != 0 {
			t.Fatalf("width-0 decode row %d has %d values", i, len(r))
		}
	}

	// Width mismatch is an error, not a panic or silent truncation.
	if _, err := EncodeRows(2, [][]rdf.ID{{1, 2}, {3}}); err == nil {
		t.Error("EncodeRows accepted a short row")
	}
}
