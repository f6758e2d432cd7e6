package rdf

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	tests := []struct {
		name string
		term Term
		want string
	}{
		{"iri", NewIRI("http://example.org/s"), "<http://example.org/s>"},
		{"plain literal", NewLiteral("hello"), `"hello"`},
		{"typed literal", NewTypedLiteral("42", XSDInteger), `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{"lang literal", NewLangLiteral("chat", "fr"), `"chat"@fr`},
		{"blank", NewBlank("b0"), "_:b0"},
		{"escaped quote", NewLiteral(`say "hi"`), `"say \"hi\""`},
		{"escaped backslash", NewLiteral(`a\b`), `"a\\b"`},
		{"escaped newline", NewLiteral("a\nb"), `"a\nb"`},
		{"escaped tab", NewLiteral("a\tb"), `"a\tb"`},
		{"escaped cr", NewLiteral("a\rb"), `"a\rb"`},
		{"empty literal", NewLiteral(""), `""`},
		{"escape first and last", NewLiteral("\"mid\\"), `"\"mid\\"`},
		{"multibyte kept", NewLangLiteral("h\u00e9\u2028\U0001F600", "fr"), "\"h\u00e9\u2028\U0001F600\"@fr"},
		{"invalid utf-8 replaced per byte", NewLiteral("a\xff\xfeb\xc3"), "\"a\uFFFD\uFFFDb\uFFFD\""},
		{"real U+FFFD kept", NewLiteral("\uFFFD"), "\"\uFFFD\""},
		{"lang wins over datatype", Term{Kind: KindLiteral, Value: "x", Datatype: XSDString, Lang: "en"}, `"x"@en`},
		{"longer than the stack buffer", NewIRI("http://example.org/" + strings.Repeat("x", 200)), "<http://example.org/" + strings.Repeat("x", 200) + ">"},
		{"invalid kind", Term{Kind: 7, Value: "x"}, "!invalid-term(7)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.term.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
			// The appender extends what it is given and renders the same text.
			if got := string(tt.term.AppendNTriples([]byte("x\t"))); got != "x\t"+tt.want {
				t.Errorf("AppendNTriples = %q, want %q", got, "x\t"+tt.want)
			}
		})
	}
}

func TestTermKindPredicates(t *testing.T) {
	iri := NewIRI("http://x")
	lit := NewLiteral("x")
	bn := NewBlank("x")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Errorf("IRI predicates wrong: %v %v %v", iri.IsIRI(), iri.IsLiteral(), iri.IsBlank())
	}
	if lit.IsIRI() || !lit.IsLiteral() || lit.IsBlank() {
		t.Errorf("literal predicates wrong")
	}
	if bn.IsIRI() || bn.IsLiteral() || !bn.IsBlank() {
		t.Errorf("blank predicates wrong")
	}
}

func TestTermKindString(t *testing.T) {
	if KindIRI.String() != "IRI" || KindLiteral.String() != "Literal" || KindBlank.String() != "Blank" {
		t.Errorf("TermKind.String() wrong: %s %s %s", KindIRI, KindLiteral, KindBlank)
	}
	if got := TermKind(99).String(); got != "TermKind(99)" {
		t.Errorf("invalid kind String() = %q", got)
	}
}

func TestTermCompareOrdering(t *testing.T) {
	terms := []Term{
		NewBlank("z"),
		NewLiteral("a"),
		NewIRI("http://b"),
		NewIRI("http://a"),
		NewLangLiteral("a", "en"),
		NewTypedLiteral("a", XSDInteger),
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Compare(terms[j]) < 0 })
	// IRIs first (sorted by value), then literals, then blanks.
	if !terms[0].IsIRI() || terms[0].Value != "http://a" {
		t.Errorf("first term = %v, want IRI http://a", terms[0])
	}
	if !terms[1].IsIRI() || terms[1].Value != "http://b" {
		t.Errorf("second term = %v, want IRI http://b", terms[1])
	}
	if !terms[len(terms)-1].IsBlank() {
		t.Errorf("last term = %v, want blank node", terms[len(terms)-1])
	}
}

func TestTermCompareProperties(t *testing.T) {
	// Antisymmetry and identity, property-based.
	f := func(a, b string, kindA, kindB uint8) bool {
		ta := Term{Kind: TermKind(kindA % 3), Value: a}
		tb := Term{Kind: TermKind(kindB % 3), Value: b}
		if ta.Compare(tb) != -tb.Compare(ta) {
			return false
		}
		return ta.Compare(ta) == 0 && tb.Compare(tb) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleValid(t *testing.T) {
	s := NewIRI("http://s")
	p := NewIRI("http://p")
	o := NewLiteral("o")
	tests := []struct {
		name string
		tr   Triple
		want bool
	}{
		{"iri spo", Triple{s, p, o}, true},
		{"blank subject", Triple{NewBlank("b"), p, o}, true},
		{"literal subject", Triple{o, p, s}, false},
		{"literal predicate", Triple{s, o, o}, false},
		{"blank predicate", Triple{s, NewBlank("b"), o}, false},
		{"empty subject", Triple{NewIRI(""), p, o}, false},
		{"iri object", Triple{s, p, NewIRI("http://o")}, true},
		{"blank object", Triple{s, p, NewBlank("b")}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.tr.Valid(); got != tt.want {
				t.Errorf("Valid() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestGraphDistincts(t *testing.T) {
	g := NewGraph(0)
	s1, s2 := NewIRI("http://s1"), NewIRI("http://s2")
	p1, p2 := NewIRI("http://p1"), NewIRI("http://p2")
	g.AddSPO(s1, p1, NewLiteral("a"))
	g.AddSPO(s1, p2, NewLiteral("b"))
	g.AddSPO(s2, p1, NewLiteral("c"))
	g.AddSPO(s2, p1, NewLiteral("c")) // duplicate
	if g.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", g.Len())
	}
	if got := len(g.Predicates()); got != 2 {
		t.Errorf("distinct predicates = %d, want 2", got)
	}
	if got := len(g.Subjects()); got != 2 {
		t.Errorf("distinct subjects = %d, want 2", got)
	}
	if g.Predicates()[0] != p1 {
		t.Errorf("predicates not in first-seen order")
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o"))
	want := `<http://s> <http://p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
