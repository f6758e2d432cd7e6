package sparql_test

import (
	"testing"

	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// FuzzParse: whatever the input, Parse returns a query or an error and
// never panics; and a query it accepts renders (String) to text that
// parses again, without error, to a query rendering the same — so the
// surface syntax and the algebra cannot drift apart. The corpus starts
// from the 26 WatDiv query texts and the parser tests' malformed
// inputs.
func FuzzParse(f *testing.F) {
	for _, q := range append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...) {
		f.Add(q.Text)
	}
	for _, src := range sparql.MalformedSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		again, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("accepted query does not re-parse: %v\ninput: %q\nrendered: %q", err, src, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("rendering is not a fixed point\ninput: %q\nfirst:  %q\nsecond: %q", src, text, got)
		}
	})
}
