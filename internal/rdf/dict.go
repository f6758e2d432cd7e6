package rdf

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ID is a dense dictionary-encoded identifier for an RDF term. The engine
// operates exclusively on IDs; strings only appear at the edges (loading
// and result rendering). ID 0 is reserved as "no value" (NullID), which
// lets the Property Table represent missing cells with the zero value.
type ID uint32

// NullID is the reserved "no value" identifier.
const NullID ID = 0

// Page sizes of the dictionary's text: the first page is small, so a
// dictionary of a few terms stays small, and each next one doubles up
// to the cap. A term at least as long as the page that would come next
// gets a page of its own.
const (
	firstPageBytes = 4 << 10
	maxPageBytes   = 256 << 10
)

// Dictionary is a bidirectional map between RDF terms and dense IDs.
// IDs start at 1 and grow densely in first-seen order, so they double
// as indexes into columnar dictionaries.
//
// It holds no pointer per term. Term text is appended to byte pages
// that are never rewritten, each ID has a fixed-size record locating
// its text, and the inverse mapping is an open-addressed table of IDs
// hashed over the text. The collector sees a few page pointers and
// pointer-free arrays, and a new term costs no allocation of its own:
// what interning allocates is a new page, or an array that doubles
// (records, page list, index) and the reader view republished with it.
//
// It is safe for concurrent use: Encode and Lookup share a lock around
// the index, while Term, Snapshot and Len — called per result cell and
// per term comparison — take none: they read the append-only records
// through an atomically published view.
type Dictionary struct {
	mu   sync.RWMutex
	seed maphash.Seed
	// recs[i] locates the text of ID(i+1); pages hold that text; index
	// holds IDs at the slots their terms hash to (0 is an empty slot),
	// probed linearly and kept at most half full. cur is the page being
	// filled and fill its bytes used. All are written under mu.
	recs  []termRec
	pages [][]byte
	index []uint32
	cur   int
	fill  int

	// view holds recs' and pages' backing arrays at full capacity,
	// republished whenever an append moves either; n is the number of
	// terms readers may see, stored after the term itself is in place. A
	// reader loads n, then view: the arrays it gets hold at least the
	// first n records and the pages they name, and no record below n,
	// nor a page byte it covers, is ever written again.
	view atomic.Pointer[dictView]
	n    atomic.Uint32
}

// termRec locates one term: its text is the page's bytes from off on,
// value, datatype and lang lengths in that order.
type termRec struct {
	page, off             uint32
	value, datatype, lang uint32
	kind                  TermKind
}

// dictView is what lock-free readers see of a dictionary.
type dictView struct {
	recs  []termRec
	pages [][]byte
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	d := &Dictionary{seed: maphash.MakeSeed()}
	d.view.Store(&dictView{})
	return d
}

// Encode interns the term and returns its ID, allocating a fresh ID on
// first sight.
func (d *Dictionary) Encode(t Term) ID {
	return d.intern(t.Kind, t.Value, t.Datatype, t.Lang)
}

// EncodeBytes interns a term still lying in an N-Triples reader's
// buffers. It is Encode without building strings: the spans are hashed
// and compared where they lie, and a new term's bytes are copied into
// the dictionary's pages, so nothing is allocated for the term and the
// dictionary never holds on to the input around it.
func (d *Dictionary) EncodeBytes(t TermBytes) ID {
	return d.intern(t.Kind, borrow(t.Value), borrow(t.Datatype), borrow(t.Lang))
}

// borrow views b as a string without copying, for the one call it is
// passed to: the reader reuses its buffers, so nothing may keep it.
func borrow(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// intern returns the ID of the term given by its parts, adding it
// unless it is known.
func (d *Dictionary) intern(kind TermKind, value, datatype, lang string) ID {
	h := d.hash(kind, value, datatype, lang)
	d.mu.RLock()
	_, id := d.find(h, kind, value, datatype, lang)
	d.mu.RUnlock()
	if id != NullID {
		return id
	}
	return d.add(h, kind, value, datatype, lang)
}

// add interns a term no reader found, unless another writer got there
// first.
func (d *Dictionary) add(h uint64, kind TermKind, value, datatype, lang string) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if 2*(len(d.recs)+1) > len(d.index) {
		d.grow()
	}
	slot, id := d.find(h, kind, value, datatype, lang)
	if id != NullID {
		return id
	}
	size := len(value) + len(datatype) + len(lang)
	moved := len(d.recs) == cap(d.recs)
	page, off, pagesMoved := d.reserve(size)
	text := d.pages[page][off : off+size]
	n := copy(text, value)
	n += copy(text[n:], datatype)
	copy(text[n:], lang)
	if moved {
		// Doubling keeps the copies linear in the final size.
		recs := make([]termRec, len(d.recs), max(2*cap(d.recs), 256))
		copy(recs, d.recs)
		d.recs = recs
	}
	d.recs = append(d.recs, termRec{
		page: uint32(page), off: uint32(off),
		value: uint32(len(value)), datatype: uint32(len(datatype)), lang: uint32(len(lang)),
		kind: kind,
	})
	if moved || pagesMoved {
		d.view.Store(&dictView{recs: d.recs[:cap(d.recs)], pages: d.pages[:cap(d.pages)]})
	}
	id = ID(len(d.recs))
	d.index[slot] = uint32(id)
	d.n.Store(uint32(id))
	return id
}

// reserve returns where size bytes of new text go: a page index and an
// offset into it. It reports whether the page list moved. The last
// byte of every page stays unused, so a view that ends where the text
// does — an empty Lang, say — still points into the page and never
// past it, where the collector would find a bad pointer.
func (d *Dictionary) reserve(size int) (page, off int, moved bool) {
	next := firstPageBytes
	if len(d.pages) > 0 {
		if d.fill+size < len(d.pages[d.cur]) {
			off, d.fill = d.fill, d.fill+size
			return d.cur, off, false
		}
		next = min(2*len(d.pages[d.cur]), maxPageBytes)
	}
	moved = len(d.pages) == cap(d.pages)
	if size >= next && len(d.pages) > 0 {
		// A term longer than a page gets one of its own; the page being
		// filled stays the one new text goes to.
		d.pages = append(d.pages, make([]byte, size+1))
		return len(d.pages) - 1, 0, moved
	}
	d.pages = append(d.pages, make([]byte, max(next, size+1)))
	d.cur, d.fill = len(d.pages)-1, size
	return d.cur, 0, moved
}

// grow doubles the index and re-places every ID in it.
func (d *Dictionary) grow() {
	d.index = make([]uint32, max(2*len(d.index), 1024))
	mask := len(d.index) - 1
	terms := d.Snapshot() // every record so far: the last add stored n
	for i := range d.recs {
		t := terms.Term(ID(i + 1))
		slot := int(d.hash(t.Kind, t.Value, t.Datatype, t.Lang)) & mask
		for d.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		d.index[slot] = uint32(i + 1)
	}
}

// find probes the index for the term hashed to h. It returns the
// term's ID and slot, or NullID and the empty slot the term would take.
// The caller holds mu.
func (d *Dictionary) find(h uint64, kind TermKind, value, datatype, lang string) (slot int, id ID) {
	if len(d.index) == 0 {
		return 0, NullID
	}
	mask := len(d.index) - 1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		at := d.index[slot]
		if at == 0 {
			return slot, NullID
		}
		r := &d.recs[at-1]
		if r.kind != kind || int(r.value) != len(value) || int(r.datatype) != len(datatype) || int(r.lang) != len(lang) {
			continue
		}
		text := d.pages[r.page][r.off:]
		if string(text[:len(value)]) == value &&
			string(text[len(value):len(value)+len(datatype)]) == datatype &&
			string(text[len(value)+len(datatype):len(value)+len(datatype)+len(lang)]) == lang {
			return slot, ID(at)
		}
	}
}

// hash mixes a term's kind and the three parts of its text, each part
// on its own, so "ab"+"" and "a"+"b" hash apart.
func (d *Dictionary) hash(kind TermKind, value, datatype, lang string) uint64 {
	const mix = 0x9e3779b97f4a7c15
	h := maphash.String(d.seed, value) ^ uint64(kind)*mix
	if datatype != "" {
		h = h*mix ^ maphash.String(d.seed, datatype)
	}
	if lang != "" {
		h = (h+1)*mix ^ maphash.String(d.seed, lang)
	}
	return h
}

// Lookup returns the ID for a term without interning it. The boolean is
// false when the term has never been encoded, which query translation
// uses to answer literal-constrained patterns with an empty result.
func (d *Dictionary) Lookup(t Term) (ID, bool) {
	h := d.hash(t.Kind, t.Value, t.Datatype, t.Lang)
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, id := d.find(h, t.Kind, t.Value, t.Datatype, t.Lang)
	return id, id != NullID
}

// Term returns the term for an ID, without locking. Its strings are
// views of the dictionary's pages. It panics on NullID or out-of-range
// IDs, which always indicate an engine bug rather than user input. A
// caller resolving many IDs takes one Snapshot instead.
func (d *Dictionary) Term(id ID) (t Term) {
	d.Snapshot().termTo(&t, id)
	return t
}

// Len returns the number of distinct terms interned so far.
func (d *Dictionary) Len() int { return int(d.n.Load()) }

// Snapshot returns a read-only view of the terms interned so far. It
// takes no lock and allocates nothing; a caller resolving many IDs —
// decoding a result, sorting, filtering — takes one per call and reads
// every cell through it.
func (d *Dictionary) Snapshot() Snapshot {
	n := d.n.Load()
	return Snapshot{v: d.view.Load(), n: n}
}

// Snapshot is a dictionary's terms as of one moment: the IDs issued
// until then resolve through it, later ones do not. The zero value
// holds no terms.
type Snapshot struct {
	v *dictView
	n uint32
}

// Term returns the term for an ID, as Dictionary.Term does.
func (s Snapshot) Term(id ID) (t Term) {
	s.termTo(&t, id)
	return t
}

// DecodeInto sets dst[j] to the term for ids[j], for every j, and to
// the zero Term where ids[j] is NullID (an unbound cell). Each term is
// written where it lies in dst, with no temporary copied in: a result
// row decodes this way. dst must be at least as long as ids.
func (s Snapshot) DecodeInto(dst []Term, ids []ID) {
	dst = dst[:len(ids)]
	for j, id := range ids {
		if id == NullID {
			dst[j] = Term{}
			continue
		}
		s.termTo(&dst[j], id)
	}
}

// termTo sets *t to the term for id. Its strings view the page: page
// bytes a record covers are never written again, and add places each
// record's text inside its page, so the views need no bounds check.
// The fields are set one by one through t: a composite literal is
// built in a temporary and copied out in 16-byte moves over 8-byte
// stores, which defeats store forwarding and doubled a lookup.
func (s Snapshot) termTo(t *Term, id ID) {
	if uint32(id)-1 >= s.n {
		invalidID(id, s.n)
	}
	r := &s.v.recs[id-1]
	text := unsafe.Add(unsafe.Pointer(unsafe.SliceData(s.v.pages[r.page])), r.off)
	dt := unsafe.Add(text, r.value)
	t.Kind = r.kind
	t.Value = unsafe.String((*byte)(text), r.value)
	t.Datatype = unsafe.String((*byte)(dt), r.datatype)
	t.Lang = unsafe.String((*byte)(unsafe.Add(dt, r.datatype)), r.lang)
}

// invalidID panics on an ID no term was issued for; out of line, so
// the lookups that check for it stay small.
func invalidID(id ID, n uint32) {
	panic(fmt.Sprintf("rdf: dictionary lookup of invalid ID %d (size %d)", id, n))
}

// EncodedTriple is a triple after dictionary encoding.
type EncodedTriple struct {
	S, P, O ID
}

// EncodeTriple interns all three terms of t.
func (d *Dictionary) EncodeTriple(t Triple) EncodedTriple {
	return EncodedTriple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
}

// EncodeGraph encodes every triple of g, preserving order.
func (d *Dictionary) EncodeGraph(g *Graph) []EncodedTriple {
	out := make([]EncodedTriple, 0, g.Len())
	for _, t := range g.Triples() {
		out = append(out, d.EncodeTriple(t))
	}
	return out
}
