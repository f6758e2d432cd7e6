package rdf

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

// The string parser the byte parser replaced, kept verbatim as the
// reference FuzzNTriplesLine holds the reader to: one string per line
// from the scanner, a strings.Builder per literal.

// refReadAll is the old reader loop over the old parser.
func refReadAll(doc string) ([]Triple, error) {
	sc := bufio.NewScanner(strings.NewReader(doc))
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	var out []Triple
	for lineno := 1; sc.Scan(); lineno++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := refParseTripleLine(line, lineno)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ntriples: read: %w", err)
	}
	return out, nil
}

// refParseTripleLine parses one non-empty, non-comment N-Triples line.
func refParseTripleLine(line string, lineno int) (Triple, error) {
	p := &refLineParser{s: line, line: lineno}
	s, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	pred, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	if err := p.dot(); err != nil {
		return Triple{}, err
	}
	t := Triple{S: s, P: pred, O: o}
	if !t.Valid() {
		return Triple{}, &ParseError{Line: lineno, Msg: "not a valid RDF triple: " + t.String()}
	}
	return t, nil
}

// refLineParser is a tiny cursor over one line of input.
type refLineParser struct {
	s    string
	pos  int
	line int
}

func (p *refLineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *refLineParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

// term parses the next IRI, literal or blank node.
func (p *refLineParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return Term{}, p.errf("unexpected end of line, expected term")
	}
	switch c := p.s[p.pos]; {
	case c == '<':
		return p.iri()
	case c == '"':
		return p.literal()
	case c == '_':
		return p.blank()
	default:
		return Term{}, p.errf("unexpected character %q at column %d", c, p.pos+1)
	}
}

func (p *refLineParser) iri() (Term, error) {
	start := p.pos + 1
	end := strings.IndexByte(p.s[start:], '>')
	if end < 0 {
		return Term{}, p.errf("unterminated IRI")
	}
	iri := p.s[start : start+end]
	if iri == "" {
		return Term{}, p.errf("empty IRI")
	}
	p.pos = start + end + 1
	return NewIRI(iri), nil
}

func (p *refLineParser) blank() (Term, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return Term{}, p.errf("malformed blank node label")
	}
	start := p.pos + 2
	end := start
	for end < len(p.s) && !isTermBoundary(p.s[end]) {
		end++
	}
	if end == start {
		return Term{}, p.errf("empty blank node label")
	}
	p.pos = end
	return NewBlank(p.s[start:end]), nil
}

func (p *refLineParser) literal() (Term, error) {
	// Opening quote already verified by caller.
	p.pos++
	var sb strings.Builder
	for {
		if p.pos >= len(p.s) {
			return Term{}, p.errf("unterminated literal")
		}
		c := p.s[p.pos]
		if c == '"' {
			p.pos++
			break
		}
		if c == '\\' {
			if err := p.escape(&sb); err != nil {
				return Term{}, err
			}
			continue
		}
		sb.WriteByte(c)
		p.pos++
	}
	lex := sb.String()
	// Optional language tag or datatype.
	if p.pos < len(p.s) && p.s[p.pos] == '@' {
		start := p.pos + 1
		end := start
		for end < len(p.s) && !isTermBoundary(p.s[end]) {
			end++
		}
		if end == start {
			return Term{}, p.errf("empty language tag")
		}
		p.pos = end
		return NewLangLiteral(lex, p.s[start:end]), nil
	}
	if strings.HasPrefix(p.s[p.pos:], "^^") {
		p.pos += 2
		if p.pos >= len(p.s) || p.s[p.pos] != '<' {
			return Term{}, p.errf("datatype must be an IRI")
		}
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	return NewLiteral(lex), nil
}

// escape consumes one backslash escape sequence, writing the decoded rune.
func (p *refLineParser) escape(sb *strings.Builder) error {
	if p.pos+1 >= len(p.s) {
		return p.errf("dangling backslash")
	}
	c := p.s[p.pos+1]
	switch c {
	case 't':
		sb.WriteByte('\t')
	case 'n':
		sb.WriteByte('\n')
	case 'r':
		sb.WriteByte('\r')
	case '"':
		sb.WriteByte('"')
	case '\\':
		sb.WriteByte('\\')
	case 'u', 'U':
		n := 4
		if c == 'U' {
			n = 8
		}
		hexStart := p.pos + 2
		if hexStart+n > len(p.s) {
			return p.errf("truncated \\%c escape", c)
		}
		var r rune
		for i := 0; i < n; i++ {
			d := hexDigit(p.s[hexStart+i])
			if d < 0 {
				return p.errf("invalid hex digit %q in \\%c escape", p.s[hexStart+i], c)
			}
			r = r<<4 | rune(d)
		}
		if !utf8.ValidRune(r) {
			return p.errf("escape \\%c%s is not a valid rune", c, p.s[hexStart:hexStart+n])
		}
		sb.WriteRune(r)
		p.pos = hexStart + n
		return nil
	default:
		return p.errf("unknown escape \\%c", c)
	}
	p.pos += 2
	return nil
}

// dot consumes the terminating '.' and any trailing whitespace.
func (p *refLineParser) dot() error {
	p.skipSpace()
	if p.pos >= len(p.s) || p.s[p.pos] != '.' {
		return p.errf("missing terminating '.'")
	}
	p.pos++
	p.skipSpace()
	if p.pos != len(p.s) {
		return p.errf("trailing garbage after '.'")
	}
	return nil
}

// FuzzNTriplesLine holds the byte parser to the string parser it
// replaced: on any document both yield the same triples or reject it
// with the same error, and what is accepted survives a trip through
// WriteNTriples.
func FuzzNTriplesLine(f *testing.F) {
	for _, seed := range []string{
		`<http://example.org/s> <http://example.org/p> <http://example.org/o> .`,
		`<http://s> <http://p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`<http://s> <http://p> "chat"@fr .`,
		`_:b0 <http://example.org/p> _:b1 .`,
		"# a comment\n\n<http://s> <http://p> \"plain\" .\r\n  <http://s> <http://p> \"no newline\" .",
		`<http://s> <http://p> "a\"b\\c\nd\te\rf\u00e9\U0001F600" .`,
		`<http://s> <http://p> "x"^^<http://dt> . `,
		`<http://s> <http://p> <http://o>`,
		`<http://s <http://p> <http://o> .`,
		`<http://s> <http://p> "abc .`,
		`"s" <http://p> <http://o> .`,
		`<http://s> _:p <http://o> .`,
		`<http://s> <http://p> "a\qb" .`,
		`<http://s> <http://p> "\u00e" .`,
		`<http://s> <http://p> "\u00zz" .`,
		`<> <http://p> <http://o> .`,
		`<http://s> <http://p> <http://o> . xx`,
		`<http://s> <http://p> .`,
		`<http://s> <http://p> "x"@ .`,
		`<http://s> <http://p> "x"^^42 .`,
		`_b <http://p> <http://o> .`,
		`_: <http://p> <http://o> .`,
		`<http://s> <http://p> "x\\`,
		`<http://s> <http://p> "\uD800" .`,
		`<http://s> <http://p> "a\\"@en "b\\" .`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		want, wantErr := refReadAll(doc)
		g, err := ParseNTriples(doc)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("byte parser error %v, string parser error %v", err, wantErr)
		}
		if err != nil {
			// A line over the limit is the one error reported differently.
			if _, syntax := wantErr.(*ParseError); syntax && err.Error() != wantErr.Error() {
				t.Fatalf("byte parser: %v\nstring parser: %v", err, wantErr)
			}
			return
		}
		if len(g.Triples()) != len(want) {
			t.Fatalf("byte parser read %d triples, string parser %d", g.Len(), len(want))
		}
		for i, tr := range g.Triples() {
			if tr != want[i] {
				t.Fatalf("triple %d: byte parser %#v, string parser %#v", i, tr, want[i])
			}
		}
		if !utf8.ValidString(doc) {
			return // the writer turns invalid bytes into U+FFFD
		}
		var sb strings.Builder
		if err := WriteNTriples(&sb, g); err != nil {
			t.Fatal(err)
		}
		back, err := ParseNTriples(sb.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", sb.String(), err)
		}
		if len(back.Triples()) != len(want) {
			t.Fatalf("round trip kept %d of %d triples: %q", back.Len(), len(want), sb.String())
		}
		for i, tr := range back.Triples() {
			if tr != want[i] {
				t.Fatalf("triple %d after a round trip: %#v, was %#v", i, tr, want[i])
			}
		}
	})
}

// TestReadMatchesReferenceAcrossWindows holds the windowed reader to
// the line-at-a-time reference on documents many windows long: lines
// cut by a window boundary wherever it falls, a line longer than a
// window, and a syntax error far past the first window, reported with
// the reference's line number and message.
func TestReadMatchesReferenceAcrossWindows(t *testing.T) {
	lines := []string{
		`<http://example.org/s> <http://example.org/p> <http://example.org/o> .`,
		`<http://s> <http://p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		"<http://s> <http://p> \"chat\"@fr .\r",
		`_:b0 <http://example.org/p> _:b1 .`,
		"# a comment",
		"",
		"  \t<http://s>\t<http://p> \"indented\" .  ",
		`<http://s> <http://p> "a\"b\\c\nd\te\rf\u00e9\U0001F600" .`,
		"\u00a0<http://s> <http://p> \"no-break space\" .\u0085",
	}
	var sb strings.Builder
	for i := 0; sb.Len() < 5*windowBytes; i++ {
		sb.WriteString(lines[i%len(lines)])
		sb.WriteString(strings.Repeat(" ", i%7)) // moves every later line across the window boundaries
		sb.WriteByte('\n')
		if i == 3000 {
			sb.WriteString(`<http://s> <http://p> "` + strings.Repeat(`long\t`, windowBytes/3) + `" .` + "\n")
		}
	}
	doc := sb.String()
	for _, c := range []struct {
		doc     string
		invalid bool
	}{
		{doc, false},
		{doc + "<http://s> <http://p> \"no final newline\" .", false},
		{doc + "<http://s> <http://p> oops .\n" + doc, true},
	} {
		want, wantErr := refReadAll(c.doc)
		if _, syntax := wantErr.(*ParseError); syntax != c.invalid {
			t.Fatalf("reference error %v on a document whose invalidity is %v", wantErr, c.invalid)
		}
		g, err := ParseNTriples(c.doc)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("windowed reader error %v, reference %v", err, wantErr)
		}
		if err != nil {
			continue
		}
		if g.Len() != len(want) {
			t.Fatalf("windowed reader read %d triples, reference %d", g.Len(), len(want))
		}
		for i, tr := range g.Triples() {
			if tr != want[i] {
				t.Fatalf("triple %d: windowed reader %#v, reference %#v", i, tr, want[i])
			}
		}
	}
}
