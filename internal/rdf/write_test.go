package rdf_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/watdiv"
)

// TestWriteNTriplesMatchesSprintfRendering holds the append-based
// writer to the rendering it replaced — fmt.Sprintf over the three
// terms' String — on a whole WatDiv document.
func TestWriteNTriplesMatchesSprintfRendering(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 1000, Seed: 1})
	g.AddSPO(rdf.NewBlank("b0"), rdf.NewIRI("http://p"), rdf.NewLangLiteral("tab\t \"quoted\" back\\slash\r\n é \xff", "fr"))
	var want bytes.Buffer
	for _, tr := range g.Triples() {
		fmt.Fprintf(&want, "%s %s %s .\n", tr.S, tr.P, tr.O)
	}
	var got bytes.Buffer
	if err := rdf.WriteNTriples(&got, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteNTriples wrote %d bytes that differ from the %d-byte Sprintf rendering", got.Len(), want.Len())
	}
	for _, tr := range g.Triples()[:50] {
		if got, want := tr.String(), fmt.Sprintf("%s %s %s .", tr.S, tr.P, tr.O); got != want {
			t.Fatalf("Triple.String() = %q, want %q", got, want)
		}
	}
}
