package serve

import (
	"cmp"
	"slices"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/rdf"
)

// /sparql responses are appended straight into one pooled byte slice,
// nothing allocated per row or per cell, and the bytes are exactly what
// encoding/json's Marshal of one map of bindings per row (JSON) or
// strings.Join over Term.String (TSV) would produce; server_test.go
// keeps those renderings as the reference.

// writeChunkBytes is how much encoded response accumulates before it is
// handed to the ResponseWriter; the pooled buffer stays about this size
// however large the result.
const writeChunkBytes = 32 << 10

// maxPooledRowBytes bounds the decoded rows a pooled encoder keeps for
// the next response (about 4,000 cells). An encoder whose rows grew past
// it is dropped, not pooled, so the pool never pins one huge result,
// nor for long the dictionary pages of a store that is gone: decoded
// terms view those pages.
const maxPooledRowBytes = 256 << 10

// respEncoder is one response's encoding state, reused across requests.
type respEncoder struct {
	buf  []byte           // encoded bytes not yet written out
	rows core.DisplayRows // the response's rows, decoded in display order
	// JSON only: the columns in the order encoding/json writes map keys,
	// and their escaped `"name":` prefixes back to back in keys.
	cols []jsonCol
	keys []byte
}

// jsonCol is one result column's place in a JSON binding object.
type jsonCol struct {
	col      int  // index into the row
	lo, hi   int  // keys[lo:hi] is the column's `"name":`
	lastName bool // no later entry has the same variable name
}

var encoderPool = sync.Pool{New: func() any { return new(respEncoder) }}

// release returns the encoder to the pool, unless one huge row grew its
// buffer far past the write chunk or a large result its decoded rows
// past maxPooledRowBytes.
func (e *respEncoder) release() {
	if cap(e.buf) <= 4*writeChunkBytes && e.rows.RetainedBytes() <= maxPooledRowBytes {
		encoderPool.Put(e)
	}
}

// setVars escapes and orders the variable keys once per response. A map
// has one entry per distinct name, sorted by name, so columns sharing a
// name are grouped (the later column first: among them the last bound
// one is the map's value).
func (e *respEncoder) setVars(vars []string) {
	e.cols, e.keys = e.cols[:0], e.keys[:0]
	for i := range vars {
		e.cols = append(e.cols, jsonCol{col: i})
	}
	slices.SortFunc(e.cols, func(a, b jsonCol) int {
		if c := cmp.Compare(vars[a.col], vars[b.col]); c != 0 {
			return c
		}
		return b.col - a.col
	})
	for i := range e.cols {
		c := &e.cols[i]
		c.lo = len(e.keys)
		e.keys = append(appendJSONString(e.keys, vars[c.col]), ':')
		c.hi = len(e.keys)
		c.lastName = i+1 == len(e.cols) || vars[e.cols[i+1].col] != vars[c.col]
	}
}

// appendJSONHead appends the document up to the first binding.
func appendJSONHead(dst []byte, vars []string) []byte {
	dst = append(dst, `{"head":{"vars":`...)
	if vars == nil {
		dst = append(dst, "null"...) // as Marshal renders a nil slice
	} else {
		dst = append(dst, '[')
		for i, v := range vars {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, `},"results":{"bindings":[`...)
}

// appendJSONRow appends one binding object, preceded by its separator.
// Unbound cells are omitted, per the SPARQL results format.
func (e *respEncoder) appendJSONRow(dst []byte, first bool, row []rdf.Term) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = append(dst, '\n', '{')
	empty, named := true, false // named: the current name already has its value
	for _, c := range e.cols {
		if !named && c.col < len(row) && !unbound(row[c.col]) {
			if !empty {
				dst = append(dst, ',')
			}
			dst = append(dst, e.keys[c.lo:c.hi]...)
			dst = appendBinding(dst, row[c.col])
			empty, named = false, true
		}
		if c.lastName {
			named = false
		}
	}
	return append(dst, '}')
}

// unbound reports whether a result cell is an unbound OPTIONAL
// variable (the zero Term). Unbound cells are omitted from JSON
// bindings (per the SPARQL results format) and rendered empty in TSV.
func unbound(t rdf.Term) bool { return t == rdf.Term{} }

// appendBinding appends an RDF term's SPARQL-JSON binding object.
func appendBinding(dst []byte, t rdf.Term) []byte {
	switch {
	case t.IsIRI():
		dst = append(dst, `{"type":"uri","value":`...)
	case t.IsBlank():
		dst = append(dst, `{"type":"bnode","value":`...)
	default:
		dst = append(dst, `{"type":"literal","value":`...)
		dst = appendJSONString(dst, t.Value)
		if t.Datatype != "" {
			dst = append(dst, `,"datatype":`...)
			dst = appendJSONString(dst, t.Datatype)
		}
		if t.Lang != "" {
			dst = append(dst, `,"xml:lang":`...)
			dst = appendJSONString(dst, t.Lang)
		}
		return append(dst, '}')
	}
	dst = appendJSONString(dst, t.Value)
	return append(dst, '}')
}

// jsonSafe marks the ASCII bytes a JSON string carries as they are;
// the rest — `"`, `\`, `<`, `>`, `&`, control bytes, and every byte from
// utf8.RuneSelf up — appendJSONString looks at, like encoding/json's
// htmlSafeSet.
var jsonSafe = func() (safe [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with its default HTML-safe escaping: `"` and `\` backslashed,
// control bytes as \b \f \n \r \t or \u00XX, `<` `>` `&` as \u003c
// \u003e \u0026, U+2028/U+2029 as \u2028 \u2029, and each byte of
// invalid UTF-8 as \ufffd. A run of safe bytes costs one table lookup
// per byte and is copied in one append.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, copied verbatim at the next escape
	for i := 0; i < len(s); {
		b := s[i]
		if jsonSafe[b] {
			i++
			continue
		}
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendTSVHead appends the tab-separated variable names.
func appendTSVHead(dst []byte, vars []string) []byte {
	for i, v := range vars {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = append(dst, v...)
	}
	return append(dst, '\n')
}

// appendTSVRow appends one row as tab-separated N-Triples terms, an
// unbound cell left empty.
func appendTSVRow(dst []byte, row []rdf.Term) []byte {
	for j, t := range row {
		if j > 0 {
			dst = append(dst, '\t')
		}
		if !unbound(t) {
			dst = t.AppendNTriples(dst)
		}
	}
	return append(dst, '\n')
}
