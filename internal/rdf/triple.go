package rdf

// Triple is a single RDF statement (subject, predicate, object).
type Triple struct {
	S, P, O Term
}

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return string(t.AppendNTriples(nil))
}

// AppendNTriples appends the triple as one N-Triples line (without
// newline) to dst and returns the extended slice.
func (t Triple) AppendNTriples(dst []byte) []byte {
	dst = t.S.AppendNTriples(dst)
	dst = append(dst, ' ')
	dst = t.P.AppendNTriples(dst)
	dst = append(dst, ' ')
	dst = t.O.AppendNTriples(dst)
	return append(dst, " ."...)
}

// Valid reports whether the triple is well-formed RDF: the subject must
// be an IRI or blank node, the predicate an IRI, and the object any term.
func (t Triple) Valid() bool {
	if t.S.Kind == KindLiteral {
		return false
	}
	if t.P.Kind != KindIRI {
		return false
	}
	return t.S.Value != "" && t.P.Value != ""
}

// Graph is an in-memory bag of triples. It preserves insertion order and
// may contain duplicates; deduplication happens at load time in the
// individual stores, mirroring how the paper's loaders consume raw
// N-Triples files.
type Graph struct {
	triples []Triple
}

// NewGraph returns an empty graph with capacity for n triples.
func NewGraph(n int) *Graph {
	return &Graph{triples: make([]Triple, 0, n)}
}

// Add appends a triple to the graph.
func (g *Graph) Add(t Triple) { g.triples = append(g.triples, t) }

// AddSPO appends a triple built from the three terms.
func (g *Graph) AddSPO(s, p, o Term) { g.Add(Triple{S: s, P: p, O: o}) }

// Len returns the number of triples (duplicates included).
func (g *Graph) Len() int { return len(g.triples) }

// Triples returns the backing slice. Callers must not mutate it.
func (g *Graph) Triples() []Triple { return g.triples }
