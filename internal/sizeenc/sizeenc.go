// Package sizeenc estimates on-disk sizes for stored tables by running
// real deflate compression over the real term strings — the honest
// stand-in for Parquet dictionary pages and Accumulo block compression
// that keeps Table 1's size ratios meaningful.
package sizeenc

import (
	"compress/flate"
	"fmt"
	"sync"

	"repro/internal/rdf"
)

// TermSizer is what sizing a term set needs, recycled whole: a fresh
// deflate writer zeroes about 1.2 MB of tables, which dominated the cost
// of sizing the many small partition files a load writes, and the
// counter it writes to and the record buffer would each cost an
// allocation per call. Reset restores the state NewWriter leaves, so a
// recycled writer emits the same bytes as a fresh one.
//
// A worker that sizes many files takes one sizer (GetTermSizer) for
// all of them and puts it back once (Put): a pool Get on a processor
// whose own slot is empty builds a new writer even while another
// processor's slot holds an idle one, so every Get saved is a chance
// less of building one.
type TermSizer struct {
	fw  *flate.Writer
	out CountingWriter
	rec []byte
}

var termSizers = sync.Pool{New: func() any {
	z := &TermSizer{}
	fw, err := flate.NewWriter(&z.out, flate.BestSpeed)
	if err != nil {
		// flate.NewWriter fails only on invalid compression levels.
		panic(fmt.Sprintf("sizeenc: flate writer: %v", err))
	}
	z.fw = fw
	return z
}}

// GetTermSizer takes a sizer from the pool, to be handed back with Put.
func GetTermSizer() *TermSizer { return termSizers.Get().(*TermSizer) }

// Put hands the sizer back to the pool; z must not be used after.
func (z *TermSizer) Put() { termSizers.Put(z) }

// CompressedTermBytes returns the deflate-compressed size of the terms
// named by ids, which must be ascending and distinct (slices.Sort then
// slices.Compact): the order makes the size deterministic. A call on a
// warm pool allocates nothing.
func CompressedTermBytes(dict *rdf.Dictionary, ids []rdf.ID) int64 {
	z := GetTermSizer()
	n := z.Bytes(dict, ids)
	z.Put()
	return n
}

// Bytes is CompressedTermBytes on this sizer.
func (z *TermSizer) Bytes(dict *rdf.Dictionary, ids []rdf.ID) int64 {
	terms := dict.Snapshot()
	z.out.N = 0
	z.fw.Reset(&z.out)
	// One record per term through the reused buffer (flate.Writer takes
	// no strings; io.WriteString would copy each). Writes to a
	// CountingWriter cannot fail.
	for _, id := range ids {
		t := terms.Term(id)
		z.rec = append(z.rec[:0], t.Value...)
		z.rec = append(z.rec, t.Datatype...)
		z.rec = append(z.rec, t.Lang...)
		z.rec = append(z.rec, '\n')
		z.fw.Write(z.rec)
	}
	z.fw.Close()
	return z.out.N
}

// CountingWriter counts the bytes written through it.
type CountingWriter struct{ N int64 }

// Write implements io.Writer.
func (w *CountingWriter) Write(p []byte) (int, error) {
	w.N += int64(len(p))
	return len(p), nil
}
