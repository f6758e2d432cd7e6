// Package columnar prices Parquet-like columns of dictionary-encoded
// RDF IDs. A column is cut into row groups, and each group's chunk is
// stored as plain varints or as (run length, value) varint pairs,
// whichever is smaller. A list column is a chunk of per-row lengths
// plus a chunk of its flattened values.
//
// The paper stores the Property Table in Parquet precisely because
// run-length encoding makes its many NULLs nearly free (§3.1). Sizer
// computes these exact plain and RLE sizes in closed form, one value
// at a time, without building the encoding: it is how a load prices
// the files of Table 1. The encoders (EncodeIDs, Chunk, RowChunk)
// remain for the benchmark probes and as the reference the sizer is
// tested against.
package columnar

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdf"
)

// Encoding identifies how a chunk's bytes are laid out.
type Encoding uint8

// Supported encodings.
const (
	// EncPlain stores each value as a varint.
	EncPlain Encoding = iota
	// EncRLE stores (run length, value) varint pairs.
	EncRLE
)

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "PLAIN"
	case EncRLE:
		return "RLE"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// Chunk is one encoded column chunk of rdf.ID values. NullID (0)
// represents an absent cell; the encodings treat it as an ordinary value,
// which is exactly why NULL-dense Property Table columns compress so
// well under RLE.
type Chunk struct {
	enc  Encoding
	n    int
	data []byte
}

// EncodeIDs encodes vals, choosing whichever of the plain and RLE
// layouts is smaller — mirroring Parquet's per-chunk encoding selection.
func EncodeIDs(vals []rdf.ID) Chunk {
	rle := encodeRLE(vals)
	plain := encodePlain(vals)
	if len(rle) <= len(plain) {
		return Chunk{enc: EncRLE, n: len(vals), data: rle}
	}
	return Chunk{enc: EncPlain, n: len(vals), data: plain}
}

func encodePlain(vals []rdf.ID) []byte {
	buf := make([]byte, 0, len(vals))
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func encodeRLE(vals []rdf.ID) []byte {
	var buf []byte
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(j-i)), uint64(vals[i]))
		i = j
	}
	return buf
}

// Len returns the number of values in the chunk.
func (c Chunk) Len() int { return c.n }

// SizeBytes returns the encoded byte size (the chunk's on-disk cost).
func (c Chunk) SizeBytes() int64 { return int64(len(c.data)) }

// Encoding returns the layout the chunk was stored with.
func (c Chunk) Encoding() Encoding { return c.enc }

// Decode materializes the chunk's values.
func (c Chunk) Decode() ([]rdf.ID, error) {
	out := make([]rdf.ID, 0, c.n)
	data := c.data
	for len(out) < c.n {
		run, n := uint64(1), 0
		if c.enc == EncRLE {
			if run, n = binary.Uvarint(data); n <= 0 {
				return nil, fmt.Errorf("columnar: corrupt run length at value %d", len(out))
			}
			data = data[n:]
		}
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("columnar: corrupt %v chunk at value %d", c.enc, len(out))
		}
		data = data[n:]
		for ; run > 0; run-- {
			out = append(out, rdf.ID(v))
		}
	}
	if len(out) != c.n {
		return nil, fmt.Errorf("columnar: decoded %d values, expected %d", len(out), c.n)
	}
	return out, nil
}
