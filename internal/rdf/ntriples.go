package rdf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error in an N-Triples document, carrying
// the 1-based line number where it occurred.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// NTriplesReader streams triples out of an N-Triples document. It accepts
// the line-based RDF 1.1 N-Triples grammar: one triple per line, '#'
// comments, blank lines, and the \t \n \r \" \\ \uXXXX \UXXXXXXXX string
// escapes.
//
// Lines are parsed in place, as bytes: a term is three spans of the
// scanner's buffer (a literal is copied, unescaped, into the reader's
// scratch only when it contains a backslash). ReadBytes hands those
// spans out as they are, so a caller that interns them — the loader —
// allocates nothing for a term it has seen before; Read copies them
// into one exact-size string per line.
type NTriplesReader struct {
	scan *bufio.Scanner
	line int
	// unesc holds the unescaped lexical forms of the current line's
	// literals; spans into it stay valid until the next line is read.
	unesc []byte
}

// maxLineBytes is the longest line the reader accepts.
const maxLineBytes = 1 << 20

// NewNTriplesReader returns a reader consuming r. A line longer than
// 1 MiB is a syntax error.
func NewNTriplesReader(r io.Reader) *NTriplesReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	return &NTriplesReader{scan: sc}
}

// TermBytes is a parsed term whose text still lies in the reader's
// buffers: the fields mean what Term's do, and are valid only until the
// reader's next call.
type TermBytes struct {
	Kind                  TermKind
	Value, Datatype, Lang []byte
}

// Term copies the spans into a Term of their own.
func (t TermBytes) Term() Term {
	return Term{Kind: t.Kind, Value: string(t.Value), Datatype: string(t.Datatype), Lang: string(t.Lang)}
}

// ReadBytes returns the next triple as spans of the reader's buffers,
// valid until the next call, or io.EOF when the document is exhausted.
func (r *NTriplesReader) ReadBytes() (s, p, o TermBytes, err error) {
	for r.scan.Scan() {
		r.line++
		line := bytes.TrimSpace(r.scan.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		lp := lineParser{s: line, line: r.line, unesc: r.unesc[:0]}
		err = lp.triple(&s, &p, &o)
		r.unesc = lp.unesc // keep the scratch at the size it grew to
		return s, p, o, err
	}
	if err := r.scan.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return s, p, o, &ParseError{Line: r.line + 1, Msg: fmt.Sprintf("line longer than the %d-byte limit", maxLineBytes)}
		}
		return s, p, o, fmt.Errorf("ntriples: read: %w", err)
	}
	return s, p, o, io.EOF
}

// Read returns the next triple, or io.EOF when the document is exhausted.
// The triple's strings share one allocation holding exactly their bytes.
func (r *NTriplesReader) Read() (Triple, error) {
	s, p, o, err := r.ReadBytes()
	if err != nil {
		return Triple{}, err
	}
	// A subject or predicate literal was rejected by the parser, so only
	// the object can carry a datatype or language tag.
	text := concat(s.Value, p.Value, o.Value, o.Datatype, o.Lang)
	pEnd := len(s.Value) + len(p.Value)
	oEnd := pEnd + len(o.Value)
	dtEnd := oEnd + len(o.Datatype)
	return Triple{
		S: Term{Kind: s.Kind, Value: text[:len(s.Value)]},
		P: Term{Kind: p.Kind, Value: text[len(s.Value):pEnd]},
		O: Term{Kind: o.Kind, Value: text[pEnd:oEnd], Datatype: text[oEnd:dtEnd], Lang: text[dtEnd:]},
	}, nil
}

// concat returns the parts joined into one string, in one allocation of
// exactly its length.
func concat(parts ...[]byte) string {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, part := range parts {
		sb.Write(part)
	}
	return sb.String()
}

// ReadAll parses every remaining triple into a Graph.
func (r *NTriplesReader) ReadAll() (*Graph, error) {
	g := NewGraph(1024)
	for {
		t, err := r.Read()
		if err == io.EOF {
			return g, nil
		}
		if err != nil {
			return nil, err
		}
		g.Add(t)
	}
}

// ParseNTriples parses a complete N-Triples document held in a string.
func ParseNTriples(doc string) (*Graph, error) {
	return NewNTriplesReader(strings.NewReader(doc)).ReadAll()
}

// ParseTerm parses one term in N-Triples syntax — the text Term.String
// renders — with nothing before or after it.
func ParseTerm(s string) (Term, error) {
	p := lineParser{s: []byte(s), line: 1}
	t, err := p.term()
	if err == nil && p.pos != len(p.s) {
		err = p.errf("trailing text after term at column %d", p.pos+1)
	}
	if err != nil {
		return Term{}, err
	}
	return t.Term(), nil
}

// lineParser is a tiny cursor over one line of input.
type lineParser struct {
	s    []byte
	pos  int
	line int
	// unesc receives the lexical form of each literal that contains an
	// escape. An append may move it; spans handed out before then keep
	// pointing at the old array, whose bytes nothing overwrites while
	// the line is in use.
	unesc []byte
}

// triple parses the whole line — three terms and the terminating dot —
// into s, pred and o.
func (p *lineParser) triple(s, pred, o *TermBytes) (err error) {
	if *s, err = p.term(); err != nil {
		return err
	}
	if *pred, err = p.term(); err != nil {
		return err
	}
	if *o, err = p.term(); err != nil {
		return err
	}
	if err = p.dot(); err != nil {
		return err
	}
	// The subject must be an IRI or blank node and the predicate an IRI
	// (Triple.Valid; the parser never yields an empty IRI or label).
	if s.Kind == KindLiteral || pred.Kind != KindIRI {
		return p.errf("not a valid RDF triple: %s", Triple{S: s.Term(), P: pred.Term(), O: o.Term()})
	}
	return nil
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) skipSpace() {
	for p.pos < len(p.s) && isTermBoundary(p.s[p.pos]) {
		p.pos++
	}
}

// term parses the next IRI, literal or blank node.
func (p *lineParser) term() (TermBytes, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return TermBytes{}, p.errf("unexpected end of line, expected term")
	}
	switch c := p.s[p.pos]; {
	case c == '<':
		iri, err := p.iri()
		return TermBytes{Kind: KindIRI, Value: iri}, err
	case c == '"':
		return p.literal()
	case c == '_':
		return p.blank()
	default:
		return TermBytes{}, p.errf("unexpected character %q at column %d", c, p.pos+1)
	}
}

// iri consumes <...> and returns what is between the brackets.
func (p *lineParser) iri() ([]byte, error) {
	start := p.pos + 1
	end := bytes.IndexByte(p.s[start:], '>')
	if end < 0 {
		return nil, p.errf("unterminated IRI")
	}
	if end == 0 {
		return nil, p.errf("empty IRI")
	}
	p.pos = start + end + 1
	return p.s[start : start+end], nil
}

// untilBoundary consumes and returns the bytes up to the next space or
// tab (or the end of the line).
func (p *lineParser) untilBoundary() []byte {
	start := p.pos
	for p.pos < len(p.s) && !isTermBoundary(p.s[p.pos]) {
		p.pos++
	}
	return p.s[start:p.pos]
}

func (p *lineParser) blank() (TermBytes, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return TermBytes{}, p.errf("malformed blank node label")
	}
	p.pos += 2
	label := p.untilBoundary()
	if len(label) == 0 {
		return TermBytes{}, p.errf("empty blank node label")
	}
	return TermBytes{Kind: KindBlank, Value: label}, nil
}

func isTermBoundary(c byte) bool { return c == ' ' || c == '\t' }

func (p *lineParser) literal() (TermBytes, error) {
	lex, err := p.lexicalForm()
	if err != nil {
		return TermBytes{}, err
	}
	t := TermBytes{Kind: KindLiteral, Value: lex}
	// Optional language tag or datatype.
	switch {
	case p.pos < len(p.s) && p.s[p.pos] == '@':
		p.pos++
		if t.Lang = p.untilBoundary(); len(t.Lang) == 0 {
			return TermBytes{}, p.errf("empty language tag")
		}
	case bytes.HasPrefix(p.s[p.pos:], []byte("^^")):
		p.pos += 2
		if p.pos >= len(p.s) || p.s[p.pos] != '<' {
			return TermBytes{}, p.errf("datatype must be an IRI")
		}
		if t.Datatype, err = p.iri(); err != nil {
			return TermBytes{}, err
		}
	}
	return t, nil
}

// lexicalForm consumes a quoted string (the cursor is on the opening
// quote) and returns its unescaped content: a span of the line itself
// when it holds no backslash, of the unescape scratch otherwise.
func (p *lineParser) lexicalForm() ([]byte, error) {
	p.pos++
	start := p.pos
	n := bytes.IndexAny(p.s[start:], "\"\\")
	if n < 0 {
		return nil, p.errf("unterminated literal")
	}
	p.pos += n
	if p.s[p.pos] == '"' {
		p.pos++
		return p.s[start : p.pos-1], nil
	}
	out := p.unesc
	from := len(out)
	out = append(out, p.s[start:p.pos]...)
	for {
		if p.pos >= len(p.s) {
			return nil, p.errf("unterminated literal")
		}
		c := p.s[p.pos]
		if c == '"' {
			p.pos++
			break
		}
		if c == '\\' {
			var err error
			if out, err = p.escape(out); err != nil {
				return nil, err
			}
			continue
		}
		out = append(out, c)
		p.pos++
	}
	p.unesc = out
	return out[from:len(out):len(out)], nil
}

// escape consumes one backslash escape sequence, appending the decoded
// rune to dst.
func (p *lineParser) escape(dst []byte) ([]byte, error) {
	if p.pos+1 >= len(p.s) {
		return nil, p.errf("dangling backslash")
	}
	c := p.s[p.pos+1]
	switch c {
	case 't':
		dst = append(dst, '\t')
	case 'n':
		dst = append(dst, '\n')
	case 'r':
		dst = append(dst, '\r')
	case '"':
		dst = append(dst, '"')
	case '\\':
		dst = append(dst, '\\')
	case 'u', 'U':
		n := 4
		if c == 'U' {
			n = 8
		}
		hexStart := p.pos + 2
		if hexStart+n > len(p.s) {
			return nil, p.errf("truncated \\%c escape", c)
		}
		var r rune
		for i := 0; i < n; i++ {
			d := hexDigit(p.s[hexStart+i])
			if d < 0 {
				return nil, p.errf("invalid hex digit %q in \\%c escape", p.s[hexStart+i], c)
			}
			r = r<<4 | rune(d)
		}
		if !utf8.ValidRune(r) {
			return nil, p.errf("escape \\%c%s is not a valid rune", c, p.s[hexStart:hexStart+n])
		}
		p.pos = hexStart + n
		return utf8.AppendRune(dst, r), nil
	default:
		return nil, p.errf("unknown escape \\%c", c)
	}
	p.pos += 2
	return dst, nil
}

func hexDigit(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}

// dot consumes the terminating '.' and any trailing whitespace.
func (p *lineParser) dot() error {
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

// WriteNTriples serializes the graph to w, one triple per line.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var line []byte // reused: a triple costs no allocation once it fits
	for _, t := range g.Triples() {
		line = append(t.AppendNTriples(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("ntriples: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ntriples: flush: %w", err)
	}
	return nil
}
