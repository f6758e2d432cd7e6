// Package rdf provides the RDF data model used throughout the PRoST
// reproduction: terms, triples, an N-Triples reader/writer and a
// dictionary encoder that maps terms to dense integer IDs.
//
// The loader's path through the package allocates neither per line nor
// per term: NTriplesReader.ReadBatch parses a window of lines into a
// reused Batch whose terms are spans of the window's text, and
// Dictionary.EncodeBytes interns them as they lie, appending a new
// term's text to the dictionary's byte pages. The
// dictionary holds no pointer per term — text pages, fixed-size
// records and an open-addressed ID index — and the Terms it returns
// view its pages. Read, ReadAll and Graph build the same triples as
// values, for tests, baselines and anything that wants the document in
// memory.
//
// The model intentionally covers exactly the subset of RDF 1.1 exercised
// by the paper's workload (WatDiv): IRIs, plain / typed / language-tagged
// literals and blank nodes. Generalized RDF (literals in subject
// position, IRIs as graph names, …) is out of scope.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three syntactic categories of RDF terms.
type TermKind uint8

// The three RDF term kinds. The zero value is KindIRI so that
// Term{Value: "http://…"} is a usable IRI term.
const (
	// KindIRI is an IRI reference such as <http://example.org/p>.
	KindIRI TermKind = iota
	// KindLiteral is a literal, optionally carrying a datatype IRI or a
	// language tag.
	KindLiteral
	// KindBlank is a blank node with a document-scoped label.
	KindBlank
)

// String implements fmt.Stringer for debugging output.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindLiteral:
		return "Literal"
	case KindBlank:
		return "Blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Terms are value types and are comparable
// with ==, which makes them usable as map keys (the dictionary encoder
// relies on this).
type Term struct {
	// Kind selects which category the term belongs to.
	Kind TermKind
	// Value holds the IRI string (without angle brackets), the literal's
	// lexical form (unescaped) or the blank node label (without the "_:"
	// prefix), depending on Kind.
	Value string
	// Datatype is the datatype IRI of a typed literal, empty otherwise.
	// Plain literals leave both Datatype and Lang empty (implicitly
	// xsd:string, per RDF 1.1).
	Datatype string
	// Lang is the language tag of a language-tagged literal, empty
	// otherwise.
	Lang string
}

// Common XSD datatype IRIs used by the WatDiv generator and tests.
const (
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
)

// NewIRI returns an IRI term for the given absolute IRI string.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewLiteral returns a plain literal term with the given lexical form.
func NewLiteral(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// NewTypedLiteral returns a literal term with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Lang: lang}
}

// NewBlank returns a blank node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal of any flavour.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// String renders the term in N-Triples surface syntax, e.g.
// <http://example.org/s>, "42"^^<…#integer>, "chat"@fr or _:b0.
func (t Term) String() string {
	var buf [96]byte // most terms fit: the string is then the only allocation
	return string(t.AppendNTriples(buf[:0]))
}

// AppendNTriples appends the term's N-Triples surface syntax (what
// String returns) to dst and returns the extended slice. It allocates
// only when dst has to grow.
func (t Term) AppendNTriples(dst []byte) []byte {
	switch t.Kind {
	case KindIRI:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	case KindBlank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	case KindLiteral:
		dst = append(dst, '"')
		dst = appendEscapedLiteral(dst, t.Value)
		dst = append(dst, '"')
		if t.Lang != "" {
			dst = append(dst, '@')
			dst = append(dst, t.Lang...)
		} else if t.Datatype != "" {
			dst = append(dst, "^^<"...)
			dst = append(dst, t.Datatype...)
			dst = append(dst, '>')
		}
		return dst
	default:
		dst = append(dst, "!invalid-term("...)
		dst = strconv.AppendUint(dst, uint64(t.Kind), 10)
		return append(dst, ')')
	}
}

// appendEscapedLiteral appends s with the N-Triples string escapes
// applied. Bytes that are not valid UTF-8 become U+FFFD, one per byte.
func appendEscapedLiteral(dst []byte, s string) []byte {
	start := 0 // s[start:i] is pending, copied verbatim at the next escape
	for i := 0; i < len(s); {
		var esc string
		size := 1
		switch c := s[i]; {
		case c == '"':
			esc = `\"`
		case c == '\\':
			esc = `\\`
		case c == '\n':
			esc = `\n`
		case c == '\r':
			esc = `\r`
		case c == '\t':
			esc = `\t`
		case c >= utf8.RuneSelf:
			var r rune
			if r, size = utf8.DecodeRuneInString(s[i:]); r == utf8.RuneError && size == 1 {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			dst = append(dst, s[start:i]...)
			dst = append(dst, esc...)
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// Compare orders terms deterministically: first by kind (IRI < literal <
// blank), then by value, datatype and language. It returns -1, 0 or +1.
// The ordering exists so tables and test fixtures have a stable sort; it
// is not a SPARQL ORDER BY implementation.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		if t.Kind < o.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, o.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, o.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, o.Lang)
}
