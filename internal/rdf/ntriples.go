package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
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
// The document is read in windows of whole lines. ReadBatch parses one
// window into a Batch: the window's text is copied into the batch, and
// each term is kept as offsets into that copy (a literal with escapes
// is unescaped where it lies). A caller that interns the terms — the
// loader — allocates nothing for a term it has seen before, and can
// parse the next window into a second batch while it interns the
// first. Read serves the triples of the reader's own batch one at a
// time, copying each line's terms into one exact-size string.
type NTriplesReader struct {
	src io.Reader
	// line counts the lines of the windows parsed so far.
	line int
	// rest holds what was read past the last window's final line end.
	rest []byte
	// err is the source's error (io.EOF at its end), reported once rest
	// has been parsed.
	err error

	// b, at and berr are Read's batch, its next triple and the error
	// that ended it.
	b    Batch
	at   int
	berr error
}

// maxLineBytes is the longest line the reader accepts.
const maxLineBytes = 1 << 20

// windowBytes is how much text one window holds at least, unless the
// document ends first: the window then runs to the end of its last line.
const windowBytes = 64 << 10

// NewNTriplesReader returns a reader consuming r. A line longer than
// 1 MiB is a syntax error.
func NewNTriplesReader(r io.Reader) *NTriplesReader {
	return &NTriplesReader{src: r}
}

// TermBytes is a parsed term whose text still lies in a batch's
// buffers: the fields mean what Term's do, and are valid only until the
// batch is reused.
type TermBytes struct {
	Kind                  TermKind
	Value, Datatype, Lang []byte
}

// Term copies the spans into a Term of their own.
func (t TermBytes) Term() Term {
	return Term{Kind: t.Kind, Value: string(t.Value), Datatype: string(t.Datatype), Lang: string(t.Lang)}
}

// Batch is one window of a document, parsed: its text, each escaped
// literal unescaped where it lies, and three term spans per triple, in
// document order. The zero value is ready for ReadBatch, which reuses
// its buffers.
type Batch struct {
	text  []byte
	terms []termSpan
}

// Len returns the number of triples in the batch.
func (b *Batch) Len() int { return len(b.terms) / 3 }

// Size returns the bytes of document text the batch was parsed from.
func (b *Batch) Size() int { return len(b.text) }

// Triple returns the batch's i-th triple as spans of its buffers, valid
// until the batch is reused.
func (b *Batch) Triple(i int) (s, p, o TermBytes) {
	return termBytes(b.text, b.terms[3*i]), termBytes(b.text, b.terms[3*i+1]), termBytes(b.text, b.terms[3*i+2])
}

// termSpan is a parsed term as offsets into the text it was parsed
// from.
type termSpan struct {
	kind          TermKind
	val, dt, lang span
}

// span is the offsets [from, to) of a term's part.
type span struct{ from, to uint32 }

// termBytes resolves t against the text it was parsed from.
func termBytes(text []byte, t termSpan) TermBytes {
	return TermBytes{
		Kind:     t.kind,
		Value:    text[t.val.from:t.val.to],
		Datatype: text[t.dt.from:t.dt.to],
		Lang:     text[t.lang.from:t.lang.to],
	}
}

// ReadBatch reads the document's next window into b and parses it. It
// returns the first error the window holds — a *ParseError, or the
// source's failure once every line read before it has been parsed —
// with the triples before it in b, and io.EOF, b empty, once the
// document is exhausted; after any other error the reader is spent.
// Calls must not overlap, but the batch one call filled may be read
// while the next call parses into another.
func (r *NTriplesReader) ReadBatch(b *Batch) error {
	r.fill(b)
	b.terms = b.terms[:0]
	if len(b.text) == 0 {
		if r.err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("ntriples: read: %w", r.err)
	}
	text := b.text
	b.terms = slices.Grow(b.terms, 3*(bytes.Count(text, []byte{'\n'})+1)) // a triple per line at most
	for start := 0; start < len(text); {
		end := len(text)
		if i := bytes.IndexByte(text[start:], '\n'); i >= 0 {
			end = start + i
		}
		r.line++
		if end-start >= maxLineBytes {
			return &ParseError{Line: r.line, Msg: fmt.Sprintf("line longer than the %d-byte limit", maxLineBytes)}
		}
		// The line without bytes.TrimSpace's white space at either end.
		line := bytes.TrimLeftFunc(text[start:end], unicode.IsSpace)
		from := end - len(line)
		line = bytes.TrimRightFunc(line, unicode.IsSpace)
		start = end + 1
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		lp := lineParser{s: text[:from+len(line)], start: from, pos: from, line: r.line}
		var t [3]termSpan
		if err := lp.triple(&t); err != nil {
			return err
		}
		b.terms = append(b.terms, t[:]...)
	}
	if r.err != nil && r.err != io.EOF { // the window is the last text read
		return fmt.Errorf("ntriples: read: %w", r.err)
	}
	return nil
}

// fill sets b.text to the document's next window: the text held back
// from the last one, then more from the source until the text holds a
// line end at or past windowBytes, or a line too long to accept, or the
// source ends. The window ends at its last line end; what follows is
// held back for the next, unless the source has ended.
func (r *NTriplesReader) fill(b *Batch) {
	b.text = append(slices.Grow(b.text[:0], windowBytes), r.rest...)
	r.rest = r.rest[:0]
	searched := 0 // b.text[:searched] holds no line end
	for empty := 0; r.err == nil; {
		if len(b.text) >= windowBytes {
			if i := bytes.LastIndexByte(b.text[searched:], '\n'); i >= 0 {
				end := searched + i + 1
				r.rest = append(r.rest, b.text[end:]...)
				b.text = b.text[:end]
				return
			}
			if len(b.text) >= maxLineBytes {
				return // the window is one line, which ReadBatch rejects
			}
			searched = len(b.text)
		}
		if len(b.text) == cap(b.text) {
			b.text = slices.Grow(b.text, windowBytes)
		}
		n, err := r.src.Read(b.text[len(b.text):cap(b.text)])
		b.text = b.text[:len(b.text)+n]
		r.err = err
		// A source that keeps returning nothing fails as bufio.Scanner
		// fails it.
		if empty++; n > 0 {
			empty = 0
		} else if empty == 100 && err == nil {
			r.err = io.ErrNoProgress
		}
	}
}

// Read returns the next triple, or io.EOF when the document is exhausted.
// The triple's strings share one allocation holding exactly their bytes.
func (r *NTriplesReader) Read() (Triple, error) {
	for r.at == r.b.Len() {
		if r.berr != nil {
			return Triple{}, r.berr
		}
		r.at, r.berr = 0, r.ReadBatch(&r.b)
	}
	s, p, o := r.b.Triple(r.at)
	r.at++
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
		err = p.errf("trailing text after term at column %d", p.column())
	}
	if err != nil {
		return Term{}, err
	}
	return termBytes(p.s, t).Term(), nil
}

// lineParser is a tiny cursor over one line of input: the line is
// s[start:], and the spans it returns are offsets into s.
type lineParser struct {
	s     []byte
	start int
	pos   int
	line  int
}

// triple parses the whole line — three terms and the terminating dot —
// into t: subject, predicate, object.
func (p *lineParser) triple(t *[3]termSpan) (err error) {
	for i := range t {
		if t[i], err = p.term(); err != nil {
			return err
		}
	}
	if err = p.dot(); err != nil {
		return err
	}
	// The subject must be an IRI or blank node and the predicate an IRI
	// (Triple.Valid; the parser never yields an empty IRI or label).
	if t[0].kind == KindLiteral || t[1].kind != KindIRI {
		term := func(i int) Term { return termBytes(p.s, t[i]).Term() }
		return p.errf("not a valid RDF triple: %s", Triple{S: term(0), P: term(1), O: term(2)})
	}
	return nil
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// column is the 1-based column of the cursor within the line.
func (p *lineParser) column() int { return p.pos - p.start + 1 }

func (p *lineParser) skipSpace() {
	for p.pos < len(p.s) && isTermBoundary(p.s[p.pos]) {
		p.pos++
	}
}

// term parses the next IRI, literal or blank node.
func (p *lineParser) term() (termSpan, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return termSpan{}, p.errf("unexpected end of line, expected term")
	}
	switch c := p.s[p.pos]; {
	case c == '<':
		iri, err := p.iri()
		return termSpan{kind: KindIRI, val: iri}, err
	case c == '"':
		return p.literal()
	case c == '_':
		return p.blank()
	default:
		return termSpan{}, p.errf("unexpected character %q at column %d", c, p.column())
	}
}

// iri consumes <...> and returns what is between the brackets.
func (p *lineParser) iri() (span, error) {
	start := p.pos + 1
	end := bytes.IndexByte(p.s[start:], '>')
	if end < 0 {
		return span{}, p.errf("unterminated IRI")
	}
	if end == 0 {
		return span{}, p.errf("empty IRI")
	}
	p.pos = start + end + 1
	return span{uint32(start), uint32(start + end)}, nil
}

// untilBoundary consumes and returns the bytes up to the next space or
// tab (or the end of the line).
func (p *lineParser) untilBoundary() span {
	start := p.pos
	for p.pos < len(p.s) && !isTermBoundary(p.s[p.pos]) {
		p.pos++
	}
	return span{uint32(start), uint32(p.pos)}
}

func (s span) empty() bool { return s.from == s.to }

func (p *lineParser) blank() (termSpan, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return termSpan{}, p.errf("malformed blank node label")
	}
	p.pos += 2
	label := p.untilBoundary()
	if label.empty() {
		return termSpan{}, p.errf("empty blank node label")
	}
	return termSpan{kind: KindBlank, val: label}, nil
}

func isTermBoundary(c byte) bool { return c == ' ' || c == '\t' }

func (p *lineParser) literal() (termSpan, error) {
	lex, err := p.lexicalForm()
	if err != nil {
		return termSpan{}, err
	}
	t := termSpan{kind: KindLiteral, val: lex}
	// Optional language tag or datatype.
	switch {
	case p.pos < len(p.s) && p.s[p.pos] == '@':
		p.pos++
		if t.lang = p.untilBoundary(); t.lang.empty() {
			return termSpan{}, p.errf("empty language tag")
		}
	case bytes.HasPrefix(p.s[p.pos:], []byte("^^")):
		p.pos += 2
		if p.pos >= len(p.s) || p.s[p.pos] != '<' {
			return termSpan{}, p.errf("datatype must be an IRI")
		}
		if t.dt, err = p.iri(); err != nil {
			return termSpan{}, err
		}
	}
	return t, nil
}

// lexicalForm consumes a quoted string (the cursor is on the opening
// quote) and returns the span of its content. A string with escapes is
// unescaped in place: no escape is shorter than what it stands for, so
// the decoded bytes never overtake the ones still to be read.
func (p *lineParser) lexicalForm() (span, error) {
	p.pos++
	start := p.pos
	n := bytes.IndexAny(p.s[start:], "\"\\")
	if n < 0 {
		return span{}, p.errf("unterminated literal")
	}
	p.pos += n
	w := p.pos // where the next decoded byte goes
	for {
		if p.pos >= len(p.s) {
			return span{}, p.errf("unterminated literal")
		}
		c := p.s[p.pos]
		if c == '"' {
			p.pos++
			return span{uint32(start), uint32(w)}, nil
		}
		if c == '\\' {
			var err error
			if w, err = p.escape(w); err != nil {
				return span{}, err
			}
			continue
		}
		p.s[w] = c
		w++
		p.pos++
	}
}

// escape consumes one backslash escape sequence and writes the rune it
// stands for at s[w:], returning the position after it.
func (p *lineParser) escape(w int) (int, error) {
	if p.pos+1 >= len(p.s) {
		return 0, p.errf("dangling backslash")
	}
	c := p.s[p.pos+1]
	var b byte
	switch c {
	case 't':
		b = '\t'
	case 'n':
		b = '\n'
	case 'r':
		b = '\r'
	case '"':
		b = '"'
	case '\\':
		b = '\\'
	case 'u', 'U':
		n := 4
		if c == 'U' {
			n = 8
		}
		hexStart := p.pos + 2
		if hexStart+n > len(p.s) {
			return 0, p.errf("truncated \\%c escape", c)
		}
		var r rune
		for i := 0; i < n; i++ {
			d := hexDigit(p.s[hexStart+i])
			if d < 0 {
				return 0, p.errf("invalid hex digit %q in \\%c escape", p.s[hexStart+i], c)
			}
			r = r<<4 | rune(d)
		}
		if !utf8.ValidRune(r) {
			return 0, p.errf("escape \\%c%s is not a valid rune", c, p.s[hexStart:hexStart+n])
		}
		p.pos = hexStart + n
		return w + utf8.EncodeRune(p.s[w:], r), nil
	default:
		return 0, p.errf("unknown escape \\%c", c)
	}
	p.s[w] = b
	p.pos += 2
	return w + 1, nil
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
