package rdf

import (
	"cmp"
	"encoding/binary"
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

// Sizes of the dictionary's parts. Text pages: the first is small, so
// a dictionary of a few terms stays small, and each next one doubles up
// to the cap; a term at least as long as the page that would come next
// gets a page of its own. Records come in fixed chunks of chunkRecs.
const (
	firstPageBytes = 4 << 10
	maxPageBytes   = 256 << 10
	chunkBits      = 12
	chunkRecs      = 1 << chunkBits
)

// MaxTermBytes bounds a term's text, its value, datatype and language
// tag together. The N-Triples reader refuses longer lines, so no term
// it parses comes near it; Encode and EncodeBytes refuse a longer term
// with a *TermTooLongError.
const MaxTermBytes = 1<<lenBits - 1

// A record's meta word: the value's length in the low lenBits, the kind
// above it, and the tag — the ID of the (datatype, language tag) pair —
// in the top tagBits. Tag 0 is the pair of empty strings. A pair first
// seen once tags 0 to tagInline-1 are taken has no tag: its term's
// record holds tagInline and the term's page text carries the pair
// itself (see add).
const (
	lenBits   = 20
	kindShift = lenBits
	tagShift  = kindShift + 2
	tagBits   = 32 - tagShift
	tagInline = 1<<tagBits - 1
	lenMask   = 1<<lenBits - 1

	// inlineHeader is the two little-endian uint32 lengths, datatype's
	// and language tag's, an inline term's value is preceded by.
	inlineHeader = 8
)

// TermTooLongError is what interning a term longer than MaxTermBytes
// returns.
type TermTooLongError struct {
	// Bytes is the length of the term's text.
	Bytes int
}

func (e *TermTooLongError) Error() string {
	return fmt.Sprintf("rdf: term of %d bytes is longer than the dictionary's %d-byte limit", e.Bytes, MaxTermBytes)
}

// Dictionary is a bidirectional map between RDF terms and dense IDs.
// IDs start at 1 and grow densely in first-seen order, so they double
// as indexes into columnar dictionaries.
//
// It holds no pointer per term. Each ID has a 12-byte record, with no
// pointer in it, in fixed chunks of 4,096 that are never copied: it
// locates the term's value in byte pages that are never rewritten, and
// packs the value's length, the kind and a tag, the ID of the term's
// (datatype, language tag) pair. A pair's text is stored once, in the
// pages, however many literals carry it; 1,022 pairs get a tag, and a
// term with a pair beyond them keeps the pair's text beside its value.
// The inverse mapping is an open-addressed table of IDs hashed over the
// text, grown past two thirds full. The collector sees a few page and
// chunk pointers and pointer-free arrays, and a new term costs no
// allocation of its own: what interning allocates is a new chunk or
// page, an index or list that doubles, and the reader view republished
// when a list moves.
//
// It is safe for concurrent use: Encode and Lookup share a lock around
// the index, while Term, Snapshot and Len — called per result cell and
// per term comparison — take none: they read the append-only records
// through an atomically published view. A reader loads the term count,
// then the view; every record below that count, every page byte and
// tag such a record names, is in place before the count is stored and
// never written again, so a Term's strings, views of the pages, stay
// valid for the dictionary's life.
type Dictionary struct {
	mu   sync.RWMutex
	seed maphash.Seed
	// chunks hold the records, ID i+1's at chunks[i>>chunkBits]; pages
	// hold the text; tags the (datatype, lang) pairs, tag i at index i,
	// and tagIDs their tags by text; index holds IDs at the slots their
	// terms hash to (0 is an empty slot), probed linearly. cur is the page
	// being filled and fill its bytes used, recs the number of records.
	// All are written under mu.
	chunks []*recChunk
	pages  [][]byte
	tags   []tagText
	tagIDs map[tagText]uint32
	index  []uint32
	cur    int
	fill   int
	recs   int

	// view holds the chunk, page and tag lists at full capacity,
	// republished whenever an append moves one; n is the number of
	// terms readers may see, stored after the term itself is in place.
	view atomic.Pointer[dictView]
	n    atomic.Uint32
}

// termRec locates one term: its value is len bytes of the page from
// off on, len, kind and tag packed in meta. It holds no pointer, so the
// collector never scans the chunks.
type termRec struct {
	page, off, meta uint32
}

// recChunk is a fixed run of records, allocated whole and never moved.
type recChunk [chunkRecs]termRec

// tagText is a (datatype, language tag) pair, viewing the pages.
type tagText struct {
	datatype, lang string
}

// noTags is the tag list of a new dictionary: tag 0, the empty pair. Its
// capacity is its length, so the first new tag moves the list.
var noTags = []tagText{{}}

// dictView is what lock-free readers see of a dictionary.
type dictView struct {
	chunks []*recChunk
	pages  [][]byte
	tags   []tagText
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	d := &Dictionary{seed: maphash.MakeSeed(), tags: noTags}
	d.view.Store(&dictView{tags: noTags})
	return d
}

// Encode interns the term and returns its ID, allocating a fresh ID on
// first sight. A term longer than MaxTermBytes is an error.
func (d *Dictionary) Encode(t Term) (ID, error) {
	return d.intern(t.Kind, t.Value, t.Datatype, t.Lang)
}

// EncodeBytes interns a term still lying in an N-Triples reader's
// buffers. It is Encode without building strings: the spans are hashed
// and compared where they lie, and a new term's bytes are copied into
// the dictionary's pages, so nothing is allocated for the term and the
// dictionary never holds on to the input around it.
func (d *Dictionary) EncodeBytes(t TermBytes) (ID, error) {
	return d.intern(t.Kind, borrow(t.Value), borrow(t.Datatype), borrow(t.Lang))
}

// borrow views b as a string without copying, for the one call it is
// passed to: the reader reuses its buffers, so nothing may keep it.
func borrow(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// intern returns the ID of the term given by its parts, adding it
// unless it is known.
func (d *Dictionary) intern(kind TermKind, value, datatype, lang string) (ID, error) {
	if size := len(value) + len(datatype) + len(lang); size > MaxTermBytes {
		return NullID, &TermTooLongError{Bytes: size}
	}
	if kind > KindBlank {
		return NullID, fmt.Errorf("rdf: interning a term of invalid kind %d", kind)
	}
	h := d.hash(kind, value, datatype, lang)
	d.mu.RLock()
	id := NullID
	if tag, ok := d.tagOf(datatype, lang); ok {
		_, id = d.find(h, meta(kind, value, tag), value, datatype, lang)
	}
	d.mu.RUnlock()
	if id != NullID {
		return id, nil
	}
	return d.add(h, kind, value, datatype, lang), nil
}

// meta packs a record's meta word.
func meta(kind TermKind, value string, tag uint32) uint32 {
	return uint32(len(value)) | uint32(kind)<<kindShift | tag<<tagShift
}

// tagOf returns the tag of a (datatype, lang) pair: the pair's own, or
// tagInline once every tag is taken and the pair has none. It is false
// for a pair no term has carried while tags were left. The caller holds
// mu.
func (d *Dictionary) tagOf(datatype, lang string) (uint32, bool) {
	if datatype == "" && lang == "" {
		return 0, true
	}
	if tag, ok := d.tagIDs[tagText{datatype, lang}]; ok {
		return tag, true
	}
	return tagInline, len(d.tags) == tagInline
}

// add interns a term no reader found, unless another writer got there
// first.
func (d *Dictionary) add(h uint64, kind TermKind, value, datatype, lang string) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	moved := false
	tag, ok := d.tagOf(datatype, lang)
	if !ok {
		tag, moved = d.addTag(datatype, lang)
	}
	if 3*(d.recs+1) > 2*len(d.index) {
		d.grow()
	}
	want := meta(kind, value, tag)
	slot, id := d.find(h, want, value, datatype, lang)
	if id != NullID {
		return id // a known term's tag was known: nothing moved
	}
	// The text: the value, or for an inline pair the pair's two lengths,
	// the value and the pair's text.
	size := len(value)
	if tag == tagInline {
		size += inlineHeader + len(datatype) + len(lang)
	}
	page, off, pageMoved := d.reserve(size)
	moved = moved || pageMoved
	text := d.pages[page][off : off+size]
	if tag == tagInline {
		binary.LittleEndian.PutUint32(text, uint32(len(datatype)))
		binary.LittleEndian.PutUint32(text[4:], uint32(len(lang)))
		text, off = text[inlineHeader:], off+inlineHeader
		copy(text[len(value):], datatype)
		copy(text[len(value)+len(datatype):], lang)
	}
	copy(text, value)
	i := d.recs
	if i>>chunkBits == len(d.chunks) {
		moved = moved || len(d.chunks) == cap(d.chunks)
		d.chunks = append(d.chunks, new(recChunk))
	}
	d.chunks[i>>chunkBits][i&(chunkRecs-1)] = termRec{page: uint32(page), off: uint32(off), meta: want}
	d.recs++
	if moved {
		d.publish()
	}
	id = ID(d.recs)
	d.index[slot] = uint32(id)
	d.n.Store(uint32(id))
	return id
}

// addTag gives a pair seen for the first time, while tags are left,
// the next tag, its text copied into the pages. It reports whether the
// tag or page list moved.
func (d *Dictionary) addTag(datatype, lang string) (tag uint32, moved bool) {
	page, off, moved := d.reserve(len(datatype) + len(lang))
	text := d.pages[page][off:]
	copy(text[copy(text, datatype):], lang)
	at := unsafe.Pointer(unsafe.SliceData(text))
	t := tagText{
		datatype: unsafe.String((*byte)(at), len(datatype)),
		lang:     unsafe.String((*byte)(unsafe.Add(at, len(datatype))), len(lang)),
	}
	moved = moved || len(d.tags) == cap(d.tags)
	d.tags = append(d.tags, t)
	if d.tagIDs == nil {
		d.tagIDs = make(map[tagText]uint32)
	}
	tag = uint32(len(d.tags) - 1)
	d.tagIDs[t] = tag
	return tag, moved
}

// publish stores a view of the lists at full capacity. The caller holds
// mu.
func (d *Dictionary) publish() {
	d.view.Store(&dictView{chunks: d.chunks[:cap(d.chunks)], pages: d.pages[:cap(d.pages)], tags: d.tags[:cap(d.tags)]})
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
	// Every record so far, through the lists as they stand: a list that
	// moved since the last publish is not in the view yet.
	terms := Snapshot{v: &dictView{chunks: d.chunks, pages: d.pages, tags: d.tags}, n: uint32(d.recs)}
	var t Term
	for id := ID(1); int(id) <= d.recs; id++ {
		terms.termTo(&t, id)
		slot := int(d.hash(t.Kind, t.Value, t.Datatype, t.Lang)) & mask
		for d.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		d.index[slot] = uint32(id)
	}
}

// find probes the index for the term hashed to h whose record's meta
// word is want. It returns the term's ID and slot, or NullID and the
// empty slot the term would take. The caller holds mu.
func (d *Dictionary) find(h uint64, want uint32, value, datatype, lang string) (slot int, id ID) {
	if len(d.index) == 0 {
		return 0, NullID
	}
	mask := len(d.index) - 1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		at := d.index[slot]
		if at == 0 {
			return slot, NullID
		}
		i := at - 1
		r := &d.chunks[i>>chunkBits][i&(chunkRecs-1)]
		if r.meta != want {
			continue
		}
		page := d.pages[r.page]
		if string(page[r.off:int(r.off)+len(value)]) != value {
			continue
		}
		if want>>tagShift == tagInline {
			dt, l := inlinePair(page, int(r.off), len(value))
			if dt != datatype || l != lang {
				continue
			}
		}
		return slot, ID(at)
	}
}

// inlinePair returns the (datatype, lang) pair stored beside the value
// of length n at off in page.
func inlinePair(page []byte, off, n int) (datatype, lang string) {
	dn := int(binary.LittleEndian.Uint32(page[off-inlineHeader:]))
	ln := int(binary.LittleEndian.Uint32(page[off-4:]))
	at := off + n
	return unsafe.String(&page[at], dn), unsafe.String(&page[at+dn], ln)
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
	if len(t.Value)+len(t.Datatype)+len(t.Lang) > MaxTermBytes || t.Kind > KindBlank {
		return NullID, false // never interned, and its meta word would not fit
	}
	h := d.hash(t.Kind, t.Value, t.Datatype, t.Lang)
	d.mu.RLock()
	defer d.mu.RUnlock()
	tag, ok := d.tagOf(t.Datatype, t.Lang)
	if !ok {
		return NullID, false
	}
	_, id := d.find(h, meta(t.Kind, t.Value, tag), t.Value, t.Datatype, t.Lang)
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

// termTo sets *t to the term for id. Its strings view the pages: page
// bytes a record covers are never written again, and add places each
// record's text inside its page, so the views need no bounds check.
// The fields are set one by one through t: a composite literal is
// built in a temporary and copied out in 16-byte moves over 8-byte
// stores, which defeats store forwarding and doubled a lookup.
func (s Snapshot) termTo(t *Term, id ID) {
	i := uint32(id) - 1
	if i >= s.n {
		invalidID(id, s.n)
	}
	r := &s.v.chunks[i>>chunkBits][i&(chunkRecs-1)]
	text := unsafe.Add(unsafe.Pointer(unsafe.SliceData(s.v.pages[r.page])), r.off)
	n := r.meta & lenMask
	t.Kind = TermKind(r.meta >> kindShift & 3)
	t.Value = unsafe.String((*byte)(text), n)
	if tag := r.meta >> tagShift; tag != tagInline {
		p := &s.v.tags[tag]
		t.Datatype = p.datatype
		t.Lang = p.lang
		return
	}
	t.Datatype, t.Lang = inlinePair(s.v.pages[r.page], int(r.off), int(n))
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

// EncodeTriple interns all three terms of t, and returns the first
// error of the three.
func (d *Dictionary) EncodeTriple(t Triple) (EncodedTriple, error) {
	s, serr := d.Encode(t.S)
	p, perr := d.Encode(t.P)
	o, oerr := d.Encode(t.O)
	return EncodedTriple{S: s, P: p, O: o}, cmp.Or(serr, perr, oerr)
}

// EncodeGraph encodes every triple of g, preserving order. It panics on
// a term longer than MaxTermBytes, which no graph the N-Triples reader
// builds holds; a load from any graph reports one as an error instead.
func (d *Dictionary) EncodeGraph(g *Graph) []EncodedTriple {
	out := make([]EncodedTriple, 0, g.Len())
	for _, t := range g.Triples() {
		e, err := d.EncodeTriple(t)
		if err != nil {
			panic(err)
		}
		out = append(out, e)
	}
	return out
}

// DictionarySize is what a dictionary retains, by part, in bytes of
// capacity: what its structures hold, used or not.
type DictionarySize struct {
	// Records is the record chunks and their list.
	Records int64
	// Text is the text pages and their list.
	Text int64
	// Index is the ID index's slots.
	Index int64
	// Tags is the (datatype, lang) pair list and the map of their tags,
	// counted at one key and tag per pair; their text is in Text.
	Tags int64
}

// Total is the sum of the parts.
func (s DictionarySize) Total() int64 { return s.Records + s.Text + s.Index + s.Tags }

// Retained returns what the dictionary retains.
func (d *Dictionary) Retained() DictionarySize {
	d.mu.RLock()
	defer d.mu.RUnlock()
	const word = int64(unsafe.Sizeof(uintptr(0)))
	s := DictionarySize{
		Records: int64(len(d.chunks))*int64(unsafe.Sizeof(recChunk{})) + int64(cap(d.chunks))*word,
		Text:    int64(cap(d.pages)) * int64(unsafe.Sizeof([]byte(nil))),
		Index:   int64(cap(d.index)) * int64(unsafe.Sizeof(uint32(0))),
		Tags: int64(cap(d.tags))*int64(unsafe.Sizeof(tagText{})) +
			int64(len(d.tagIDs))*int64(unsafe.Sizeof(tagText{})+unsafe.Sizeof(uint32(0))),
	}
	for _, p := range d.pages {
		s.Text += int64(cap(p))
	}
	return s
}
