package rdf

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseNTriplesBasic(t *testing.T) {
	doc := `
# a comment
<http://example.org/s> <http://example.org/p> <http://example.org/o> .
<http://example.org/s> <http://example.org/p> "plain" .

<http://example.org/s> <http://example.org/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://example.org/s> <http://example.org/p> "chat"@fr .
_:b0 <http://example.org/p> _:b1 .
`
	g, err := ParseNTriples(doc)
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	if g.Len() != 5 {
		t.Fatalf("parsed %d triples, want 5", g.Len())
	}
	ts := g.Triples()
	if ts[0].O != NewIRI("http://example.org/o") {
		t.Errorf("triple 0 object = %v", ts[0].O)
	}
	if ts[1].O != NewLiteral("plain") {
		t.Errorf("triple 1 object = %v", ts[1].O)
	}
	if ts[2].O != NewTypedLiteral("42", XSDInteger) {
		t.Errorf("triple 2 object = %v", ts[2].O)
	}
	if ts[3].O != NewLangLiteral("chat", "fr") {
		t.Errorf("triple 3 object = %v", ts[3].O)
	}
	if ts[4].S != NewBlank("b0") || ts[4].O != NewBlank("b1") {
		t.Errorf("triple 4 = %v", ts[4])
	}
}

func TestParseNTriplesEscapes(t *testing.T) {
	tests := []struct {
		name string
		doc  string
		want string
	}{
		{"quote", `<http://s> <http://p> "a\"b" .`, `a"b`},
		{"backslash", `<http://s> <http://p> "a\\b" .`, `a\b`},
		{"newline", `<http://s> <http://p> "a\nb" .`, "a\nb"},
		{"tab", `<http://s> <http://p> "a\tb" .`, "a\tb"},
		{"cr", `<http://s> <http://p> "a\rb" .`, "a\rb"},
		{"u escape", `<http://s> <http://p> "é" .`, "é"},
		{"U escape", `<http://s> <http://p> "\U0001F600" .`, "😀"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := ParseNTriples(tt.doc)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if got := g.Triples()[0].O.Value; got != tt.want {
				t.Errorf("object = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"missing dot", `<http://s> <http://p> <http://o>`},
		{"unterminated iri", `<http://s <http://p> <http://o> .`},
		{"unterminated literal", `<http://s> <http://p> "abc .`},
		{"literal subject", `"s" <http://p> <http://o> .`},
		{"bad escape", `<http://s> <http://p> "a\qb" .`},
		{"truncated u escape", `<http://s> <http://p> "\u00e" .`},
		{"bad hex", `<http://s> <http://p> "\u00zz" .`},
		{"empty iri", `<> <http://p> <http://o> .`},
		{"garbage after dot", `<http://s> <http://p> <http://o> . xx`},
		{"only two terms", `<http://s> <http://p> .`},
		{"empty lang", `<http://s> <http://p> "x"@ .`},
		{"datatype not iri", `<http://s> <http://p> "x"^^42 .`},
		{"bad blank", `_b <http://p> <http://o> .`},
		{"dangling backslash", `<http://s> <http://p> "x\`},
		{"surrogate rune", `<http://s> <http://p> "\uD800" .`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseNTriples(tt.doc)
			if err == nil {
				t.Errorf("ParseNTriples(%q) succeeded, want error", tt.doc)
			}
			var pe *ParseError
			if !errorsAs(err, &pe) {
				t.Errorf("error %v is not a *ParseError", err)
			} else if pe.Line != 1 {
				t.Errorf("error line = %d, want 1", pe.Line)
			}
		})
	}
}

// errorsAs is a tiny local wrapper to keep the test file free of an
// errors import dance.
func errorsAs(err error, target *(*ParseError)) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestParseErrorLineNumbers(t *testing.T) {
	doc := "<http://s> <http://p> <http://o> .\n# comment\nbad line\n"
	_, err := ParseNTriples(doc)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

// A line over the scanner's limit is a syntax error like any other: a
// *ParseError carrying the line's number, not the scanner's bare
// "token too long".
func TestParseErrorLineTooLong(t *testing.T) {
	doc := "<http://s> <http://p> <http://o> .\n# comment\n<http://s> <http://p> \"" +
		strings.Repeat("x", maxLineBytes) + "\" .\n<http://s> <http://p> <http://o2> .\n"
	_, err := ParseNTriples(doc)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error %T (%v), want *ParseError", err, err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Msg, "1048576-byte limit") {
		t.Errorf("error %q does not name the limit", pe.Msg)
	}
}

// TestReadAllocatesOneStringPerLine pins what ReadAll costs: the
// triple's strings share one allocation, escaped literal or not.
func TestReadAllocatesOneStringPerLine(t *testing.T) {
	line := `<http://example.org/s> <http://example.org/p> "a\tb \u00e9"^^<http://www.w3.org/2001/XMLSchema#string> .` + "\n"
	const lines = 100
	doc := strings.Repeat(line, lines)
	if avg := testing.AllocsPerRun(20, func() {
		r := NewNTriplesReader(strings.NewReader(doc))
		for {
			if _, err := r.Read(); err != nil {
				break
			}
		}
	}); avg > lines+5 { // the source, the reader, its scanner, its buffer and its unescape scratch
		t.Errorf("reading %d lines allocated %.0f times, want one per line", lines, avg)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := NewGraph(0)
	g.AddSPO(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("hello \"world\"\nline2"))
	g.AddSPO(NewBlank("b0"), NewIRI("http://p2"), NewTypedLiteral("5", XSDInteger))
	g.AddSPO(NewIRI("http://s"), NewIRI("http://p3"), NewLangLiteral("bonjour", "fr"))

	var sb strings.Builder
	if err := WriteNTriples(&sb, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	g2, err := ParseNTriples(sb.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip %d triples, want %d", g2.Len(), g.Len())
	}
	for i := range g.Triples() {
		if g.Triples()[i] != g2.Triples()[i] {
			t.Errorf("triple %d: %v != %v", i, g.Triples()[i], g2.Triples()[i])
		}
	}
}

func TestNTriplesRoundTripProperty(t *testing.T) {
	// Any literal lexical form must survive serialize→parse unchanged.
	f := func(lex string) bool {
		if !strings.ContainsRune(lex, '�') && strings.ToValidUTF8(lex, "") != lex {
			return true // skip invalid UTF-8 inputs; N-Triples is UTF-8 text
		}
		g := NewGraph(1)
		g.AddSPO(NewIRI("http://s"), NewIRI("http://p"), NewLiteral(lex))
		var sb strings.Builder
		if err := WriteNTriples(&sb, g); err != nil {
			return false
		}
		g2, err := ParseNTriples(sb.String())
		if err != nil || g2.Len() != 1 {
			return false
		}
		return g2.Triples()[0].O.Value == lex
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNTriplesReaderStreaming(t *testing.T) {
	doc := "<http://s> <http://p> \"1\" .\n<http://s> <http://p> \"2\" .\n"
	r := NewNTriplesReader(strings.NewReader(doc))
	t1, err := r.Read()
	if err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if t1.O.Value != "1" {
		t.Errorf("first object = %q", t1.O.Value)
	}
	t2, err := r.Read()
	if err != nil {
		t.Fatalf("read 2: %v", err)
	}
	if t2.O.Value != "2" {
		t.Errorf("second object = %q", t2.O.Value)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("third read err = %v, want io.EOF", err)
	}
}
