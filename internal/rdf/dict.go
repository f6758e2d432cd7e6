package rdf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ID is a dense dictionary-encoded identifier for an RDF term. The engine
// operates exclusively on IDs; strings only appear at the edges (loading
// and result rendering). ID 0 is reserved as "no value" (NullID), which
// lets the Property Table represent missing cells with the zero value.
type ID uint32

// NullID is the reserved "no value" identifier.
const NullID ID = 0

// Dictionary is a bidirectional map between RDF terms and dense IDs.
// It is safe for concurrent use: Encode and Lookup share a lock around
// the inverse map, while Term and Len — called once per result cell and
// per term comparison — take none: they read the append-only term list
// through an atomically published snapshot. IDs start at 1 and grow
// densely, so they double as indexes into columnar dictionaries.
type Dictionary struct {
	mu    sync.RWMutex
	terms []Term      // terms[i] is the term for ID(i+1); appended under mu
	ids   map[Term]ID // inverse mapping

	// arr is terms' backing array at full capacity, republished whenever
	// an append moves it; n is the number of terms readers may see,
	// stored after the term itself is in place. A reader loads n, then
	// arr: the array it gets holds at least the first n terms, and no
	// element below n is ever written again.
	arr atomic.Pointer[[]Term]
	n   atomic.Int64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[Term]ID, 1024)}
}

// Encode interns the term and returns its ID, allocating a fresh ID on
// first sight.
func (d *Dictionary) Encode(t Term) ID {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	return d.add(t)
}

// EncodeBytes interns a term still lying in an N-Triples reader's
// buffers. A term seen before costs a map lookup and no allocation (the
// compiler does not materialise the strings of a map index's key); a
// new one is copied into one string of exactly its length, so the
// dictionary never holds on to the input around it.
func (d *Dictionary) EncodeBytes(t TermBytes) ID {
	d.mu.RLock()
	id, ok := d.ids[Term{Kind: t.Kind, Value: string(t.Value), Datatype: string(t.Datatype), Lang: string(t.Lang)}]
	d.mu.RUnlock()
	if ok {
		return id
	}
	text := concat(t.Value, t.Datatype, t.Lang)
	v, dt := len(t.Value), len(t.Value)+len(t.Datatype)
	return d.add(Term{Kind: t.Kind, Value: text[:v], Datatype: text[v:dt], Lang: text[dt:]})
}

// add interns a term no reader found, unless another writer got there
// first.
func (d *Dictionary) add(t Term) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return id
	}
	moved := len(d.terms) == cap(d.terms)
	d.terms = append(d.terms, t)
	if moved {
		full := d.terms[:cap(d.terms)]
		d.arr.Store(&full)
	}
	d.n.Store(int64(len(d.terms)))
	id := ID(len(d.terms))
	d.ids[t] = id
	return id
}

// Lookup returns the ID for a term without interning it. The boolean is
// false when the term has never been encoded, which query translation
// uses to answer literal-constrained patterns with an empty result.
func (d *Dictionary) Lookup(t Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[t]
	return id, ok
}

// Term returns the term for an ID, without locking. It panics on NullID
// or out-of-range IDs, which always indicate an engine bug rather than
// user input.
func (d *Dictionary) Term(id ID) Term {
	n := d.n.Load()
	if id == NullID || int64(id) > n {
		panic(fmt.Sprintf("rdf: dictionary lookup of invalid ID %d (size %d)", id, n))
	}
	return (*d.arr.Load())[id-1]
}

// Len returns the number of distinct terms interned so far.
func (d *Dictionary) Len() int { return int(d.n.Load()) }

// EncodedTriple is a triple after dictionary encoding.
type EncodedTriple struct {
	S, P, O ID
}

// EncodeTriple interns all three terms of t.
func (d *Dictionary) EncodeTriple(t Triple) EncodedTriple {
	return EncodedTriple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
}

// DecodeTriple maps an encoded triple back to its terms.
func (d *Dictionary) DecodeTriple(t EncodedTriple) Triple {
	return Triple{S: d.Term(t.S), P: d.Term(t.P), O: d.Term(t.O)}
}

// EncodeGraph encodes every triple of g, preserving order.
func (d *Dictionary) EncodeGraph(g *Graph) []EncodedTriple {
	out := make([]EncodedTriple, 0, g.Len())
	for _, t := range g.Triples() {
		out = append(out, d.EncodeTriple(t))
	}
	return out
}

// ApproxBytes estimates the in-memory footprint of the dictionary's
// string data, used by the loading-size experiment to account for the
// dictionary that every system ships alongside its tables.
func (d *Dictionary) ApproxBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int64
	for _, t := range d.terms {
		n += int64(len(t.Value) + len(t.Datatype) + len(t.Lang) + 8)
	}
	return n
}
