// Package sizeenc estimates on-disk sizes for stored tables by running
// real deflate compression over the real term strings — the honest
// stand-in for Parquet dictionary pages and Accumulo block compression
// that keeps Table 1's size ratios meaningful.
package sizeenc

import (
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/rdf"
)

// flateWriters recycles deflate writers: a fresh one zeroes about
// 1.2 MB of tables, which dominated the cost of sizing the many small
// partition files a load writes. Reset restores the state NewWriter
// leaves, so a recycled writer emits the same bytes as a fresh one.
var flateWriters = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		// flate.NewWriter fails only on invalid compression levels.
		panic(fmt.Sprintf("sizeenc: flate writer: %v", err))
	}
	return fw
}}

// CompressedTermBytes returns the deflate-compressed size of the terms
// named by ids, iterated in ascending ID order for determinism.
func CompressedTermBytes(dict *rdf.Dictionary, ids map[rdf.ID]struct{}) int64 {
	ordered := make([]rdf.ID, 0, len(ids))
	for id := range ids {
		ordered = append(ordered, id)
	}
	slices.Sort(ordered)
	cw := &CountingWriter{}
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(cw)
	// One record per term through a reused buffer (flate.Writer takes
	// no strings; io.WriteString would copy each). Writes to a
	// CountingWriter cannot fail.
	var rec []byte
	for _, id := range ordered {
		t := dict.Term(id)
		rec = append(rec[:0], t.Value...)
		rec = append(rec, t.Datatype...)
		rec = append(rec, t.Lang...)
		rec = append(rec, '\n')
		fw.Write(rec)
	}
	fw.Close()
	flateWriters.Put(fw)
	return cw.N
}

// CountingWriter counts the bytes written through it.
type CountingWriter struct{ N int64 }

// Write implements io.Writer.
func (w *CountingWriter) Write(p []byte) (int, error) {
	w.N += int64(len(p))
	return len(p), nil
}
