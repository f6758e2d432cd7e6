package rdf_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/rdf"
	"repro/internal/watdiv"
)

// BenchmarkDictionaryIntern interns the term spans of a WatDiv document
// (scale 1000, seed 1: about 21,000 triples) into a fresh dictionary,
// in S, P, O order as a load does, duplicates included: one op is the
// whole document.
func BenchmarkDictionaryIntern(b *testing.B) {
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, watdiv.MustGenerate(watdiv.Config{Scale: 1000, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	var spans []rdf.TermBytes
	r := rdf.NewNTriplesReader(&doc)
	for {
		batch := new(rdf.Batch) // one per window, so every span stays valid
		if err := r.ReadBatch(batch); err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
		for i := range batch.Len() {
			s, p, o := batch.Triple(i)
			spans = append(spans, s, p, o)
		}
	}
	b.ReportMetric(float64(len(spans)), "terms/op")
	for b.Loop() {
		d := rdf.NewDictionary()
		for _, t := range spans {
			if _, err := d.EncodeBytes(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}
