// Package shard implements true scale-out execution. A prost-shard
// worker process hosts a deterministically loaded copy of the store and
// owns the partitions p with p % shards == shard; the coordinator runs
// the normal single-process planning and scheduling path and delegates
// only per-partition kernels — filtered scans and exchange joins — to
// the shards over TCP. Kernels are pure functions of their fragments
// and every stage's TaskStats derive from coordinator-known values, so
// results and SimTime are bit-identical to single-process execution.
//
// The protocol is one request/response frame pair per shard per
// exchange (package wire framing: magic, type, length, payload, CRC-32C).
// Each message is written once, straight into a frame buffer the call
// borrowed from wire's pool: a small hand-rolled header (uint32 ints,
// length-prefixed strings and int lists) followed by raw row sections in
// the packed layout of wire.AppendRows. A part set — one side of an exchange
// as seen by one shard — is the total partition count followed by one
// row section per partition that shard owns, in ascending partition
// order; both ends derive ownership from the topology, so no indexes
// travel. The frame checksum is the only integrity check: it covers
// every payload byte once per direction.
//
// A row section is the bytes of an engine.Block — width, count, the IDs
// row-major — so each end encodes a block with one pass over its IDs and
// decodes a section into one block, one copy into one flat buffer.
//
// The two ends read a message differently, into the same kind of memory:
// an engine.Region that dies with the exchange. The coordinator decodes a
// response whole, every section into one exactly sized ID buffer carved
// from the query's region, which its blocks keep for the rest of the
// query. The server validates a request whole — every section of every
// part set, before any kernel runs — and then works through it one owned
// partition at a time: decode that partition's sections into IDs carved
// from the request's region, sized from each section's header, run the
// kernel into the same region, append the output section to the response
// frame. The request's region is released once its response is written
// and its frames go back to the pool, so a connection keeps no row, hash
// table or frame between requests; what it does keep — its int lists —
// never exceeds maxRetainBytes.
package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/wire"
)

// Frame type bytes. Requests flow coordinator → shard; every request is
// answered with msgOK (the matching response layout) or msgErr (the
// failure message as raw bytes).
const (
	msgHello byte = 1 + iota
	msgScan
	msgShuffle
	msgBroadcast
	msgCartesian
	msgDistinct
	msgOK
	msgErr
)

// putFrame gives a frame back to wire's pool once its call is over.
// While engine.PoisonReleased is on, its bytes are overwritten first, so
// that a row section still read from a returned frame decodes as
// engine.PoisonID.
func putFrame(frame *[]byte) {
	if engine.Poisoning() {
		b := (*frame)[:cap(*frame)]
		for i := range b {
			b[i] = 0xFF
		}
	}
	wire.PutFrame(frame)
}

// slot is one shard's position in the topology: it owns the partitions
// p with p % shards == shard.
type slot struct{ shard, shards int }

func (sl slot) owns(p int) bool { return p%sl.shards == sl.shard }

// count is how many of total partitions the slot owns.
func (sl slot) count(total int) int { return (total - sl.shard + sl.shards - 1) / sl.shards }

// request is a coordinator → shard message. An exchange request holds
// the whole partition set and each connection ships its slot's part:
// size is the bytes the row sections take for that slot (the frame
// buffer is sized from it before anything is written), appendTo writes
// the slot's view. Reading one back is the server's business (conn).
type request interface {
	size(sl slot) int
	appendTo(b []byte, sl slot) []byte
}

// helloReq opens a connection: the coordinator states the topology and
// dataset it expects, and the shard refuses the handshake on any
// mismatch — a shard serving different partitions or a differently
// loaded dataset would silently corrupt results otherwise. The
// response is an empty msgOK.
type helloReq struct {
	Shard, Shards int
	Partitions    int
	Workers       int
	Fingerprint   uint64
	// InversePT states that the coordinator's store holds the inverse
	// Property Table, so its plans may scan object stars shard-side.
	InversePT bool
}

// scanReq evaluates one Join Tree node's scan kernel over the shard's
// owned partitions, with the query's pushed-down FILTERs applied
// shard-side. The response is the part set of filtered rows followed by
// one processed-key count (PT scan pricing needs them) per owned
// partition.
type scanReq struct {
	Node    core.Node
	Filters []sparql.Filter
}

// exchangeReq is the request of all four exchange kernels — the frame
// type says which. It carries the kernel's parameters (only the spec
// fields the kernels read travel; names and prices stay coordinator-
// side), the side that ships whole to every shard, and the partitioned
// sides, of which each connection ships its slot's part. Every response
// is the part set of the kernel's output.
type exchangeReq struct {
	KeyA, KeyB   []int // shuffle: left and right key; broadcast: build and probe key
	AIsLeft      bool  // broadcast: the build side is the left; cartesian: the small side is
	OutWidth     int   // distinct: the row width
	LKeep, RKeep []int
	Whole        []engine.Block // broadcast: build side; cartesian: small side — one section, the blocks' rows in order
	A, B         []engine.Block // shuffle: left and right; else A alone: probe, large side, distinct input
}

func (m *helloReq) size(slot) int { return 0 }
func (m *helloReq) appendTo(b []byte, _ slot) []byte {
	for _, v := range []int{m.Shard, m.Shards, m.Partitions, m.Workers} {
		b = appendInt(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, m.Fingerprint)
	if m.InversePT {
		return append(b, 1)
	}
	return append(b, 0)
}
func (m *helloReq) decode(d *dec) {
	m.Shard, m.Shards, m.Partitions, m.Workers = d.int(), d.int(), d.int(), d.int()
	m.Fingerprint, m.InversePT = d.u64(), d.u8() != 0
}

func (m *scanReq) size(slot) int { return 0 }
func (m *scanReq) appendTo(b []byte, _ slot) []byte {
	b = append(b, byte(m.Node.Kind))
	b = appendStr(b, m.Node.Key)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Node.Priority))
	b = appendInt(b, len(m.Node.Patterns))
	for _, tp := range m.Node.Patterns {
		for _, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
			b = appendTerm(appendStr(b, pt.Var), pt.Term)
		}
	}
	b = appendInt(b, len(m.Filters))
	for _, f := range m.Filters {
		b = appendTerm(append(appendStr(b, f.Var), byte(f.Op)), f.Value)
	}
	return b
}
func (m *scanReq) decode(d *dec) {
	m.Node.Kind, m.Node.Key = core.NodeKind(d.u8()), d.str()
	m.Node.Priority = math.Float64frombits(d.u64())
	// Lists grow as entries decode, so a hostile count allocates nothing.
	for n := d.int(); n > 0 && d.err == nil; n-- {
		var tp sparql.TriplePattern
		for _, pt := range [3]*sparql.PatternTerm{&tp.S, &tp.P, &tp.O} {
			pt.Var, pt.Term = d.str(), d.term()
		}
		m.Node.Patterns = append(m.Node.Patterns, tp)
	}
	for n := d.int(); n > 0 && d.err == nil; n-- {
		m.Filters = append(m.Filters, sparql.Filter{Var: d.str(), Op: sparql.CompareOp(d.u8()), Value: d.term()})
	}
}

// scanResp reads a scan response — the part set of total partitions,
// then the processed count of every owned partition — storing the
// counts into processed.
func (d *dec) scanResp(total int, processed []int64) []engine.Block {
	parts := d.partSet(total)
	for p := d.slot.shard; p < len(parts); p += d.slot.shards {
		processed[p] = int64(d.u64())
	}
	return parts
}

func (m *exchangeReq) size(sl slot) int {
	return int(wire.RowsSize(partsWidth(m.Whole), totalRows(m.Whole))) + partSetSize(m.A, sl) + partSetSize(m.B, sl)
}

func (m *exchangeReq) appendTo(b []byte, sl slot) []byte {
	var aIsLeft byte
	if m.AIsLeft {
		aIsLeft = 1
	}
	b = append(appendInts(appendInts(b, m.KeyA), m.KeyB), aIsLeft)
	b = appendInts(appendInts(appendInt(b, m.OutWidth), m.LKeep), m.RKeep)
	b = wire.AppendRowsHeader(b, partsWidth(m.Whole), totalRows(m.Whole))
	for _, blk := range m.Whole {
		b = wire.AppendIDs(b, blk.IDs())
	}
	return appendPartSet(appendPartSet(b, m.A, sl), m.B, sl)
}

// decodeSpec reads the kernel parameters: everything ahead of the rows.
func (m *exchangeReq) decodeSpec(d *dec) {
	m.KeyA, m.KeyB, m.AIsLeft = d.ints(), d.ints(), d.u8() != 0
	m.OutWidth, m.LKeep, m.RKeep = d.int(), d.ints(), d.ints()
}

// decodeLazy reads a whole exchange request the way the server works
// through it: the kernel parameters and the whole side are decoded — the
// side's one block into whole's storage, which m.Whole then is — and the
// two part sets are validated to the last byte — so a malformed section
// anywhere fails the request here, before any kernel runs — but returned
// still encoded, for sections.next to decode one owned partition at a
// time. m.A and m.B stay nil.
func (m *exchangeReq) decodeLazy(d *dec, whole []engine.Block) (a, b sections) {
	m.decodeSpec(d)
	m.Whole = append(whole[:0], d.rowSection())
	a, b = d.sections(-1), d.sections(-1)
	d.done()
	return a, b
}

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func appendStr(b []byte, s string) []byte { return append(appendInt(b, len(s)), s...) }

// appendInts writes len+1 then the values; 0 stands for a nil list,
// which the join kernels distinguish from an empty one (nil LKeep keeps
// every left column, empty keeps none).
func appendInts(b []byte, v []int) []byte {
	if v == nil {
		return appendInt(b, 0)
	}
	b = appendInt(b, len(v)+1)
	for _, x := range v {
		b = appendInt(b, x)
	}
	return b
}

func appendTerm(b []byte, t rdf.Term) []byte {
	return appendStr(appendStr(appendStr(append(b, byte(t.Kind)), t.Value), t.Datatype), t.Lang)
}

// appendPartSet packs the partitions sl owns out of parts: the total
// partition count, then one row section per owned partition in
// ascending order. The width is the first non-empty partition's; on an
// all-empty set it is a placeholder, since no row bodies follow it.
func appendPartSet(b []byte, parts []engine.Block, sl slot) []byte {
	b = appendInt(b, len(parts))
	w := partsWidth(parts)
	for p := sl.shard; p < len(parts); p += sl.shards {
		b = wire.AppendIDs(wire.AppendRowsHeader(b, w, parts[p].Len()), parts[p].IDs())
	}
	return b
}

// partSetSize is the encoded size of appendPartSet's output.
func partSetSize(parts []engine.Block, sl slot) int {
	n, w := 4, partsWidth(parts)
	for p := sl.shard; p < len(parts); p += sl.shards {
		n += int(wire.RowsSize(w, parts[p].Len()))
	}
	return n
}

// partSetWriter is appendPartSet for a producer that has one partition
// at a time: the same bytes, without the set ever existing as a whole.
type partSetWriter struct {
	b     []byte
	first int // where the first section starts
	owned int // sections the set will have
	n     int // sections added
	// width is the set's row width, known once a non-empty partition
	// has shown it.
	width int
	known bool
}

// beginPartSet starts sl's part set of total partitions on b.
func beginPartSet(b []byte, total int, sl slot) partSetWriter {
	b = appendInt(b, total)
	return partSetWriter{b: b, first: len(b), owned: sl.count(total)}
}

// add appends the next owned partition's section.
func (w *partSetWriter) add(rows engine.Block) {
	w.n++
	if !w.known && rows.Len() > 0 {
		// Every section so far is an empty one, a bare header written
		// with the placeholder width: give them the set's.
		w.width, w.known = rows.Width(), true
		for at := w.first; at < len(w.b); at += 8 {
			binary.LittleEndian.PutUint32(w.b[at:], uint32(w.width))
		}
	}
	if size := int(wire.RowsSize(w.width, rows.Len())); size > cap(w.b)-len(w.b) {
		// Partitions are hash-placed, so those to come will be about the
		// size of those so far: grow once, to where the set is heading
		// (and a little past: a scan's counts and the frame's checksum
		// follow it), not by doublings. A pooled frame that served a
		// response this large before already has the room.
		mean := (len(w.b) - w.first + size) / w.n
		w.b = slices.Grow(w.b, size+(w.owned-w.n)*(mean+mean/8)+8*w.owned+16)
	}
	w.b = wire.AppendIDs(wire.AppendRowsHeader(w.b, w.width, rows.Len()), rows.IDs())
}

// dec reads one message payload. The first failure sticks, every later
// read returns zero values, and done reports it — so message decoders
// read field after field without checking each. Every allocation is
// bounded by the bytes actually present: strings and lists are length-
// checked against the remaining input before they are built, and row
// sections go through wire.RowsShape first.
type dec struct {
	b    []byte
	err  error
	slot slot // whose partitions the part sets carry
	// flat is the buffer decoded row sections land in, each a block over
	// its own stretch: a part set is carved once at its exact size from
	// region — the query's on the coordinator, the request's on the server
	// (the heap when nil) — and a lone section at its own. intBuf is the
	// buffer int lists are decoded into, nil on the coordinator; the
	// server lends a connection's.
	flat   []rdf.ID
	intBuf []int
	region *engine.Region
}

// take consumes n bytes, nil once the input is exhausted.
func (d *dec) take(n int) []byte {
	if d.err == nil && (n < 0 || n > len(d.b)) {
		d.err = fmt.Errorf("shard: message truncated (%d bytes wanted, %d left)", n, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// fixed is take for the fixed-size fields: zeros once the input is
// exhausted, so the readers below need no failure branch.
func (d *dec) fixed(n int) []byte {
	if b := d.take(n); b != nil {
		return b
	}
	return make([]byte, n)
}

func (d *dec) u8() byte    { return d.fixed(1)[0] }
func (d *dec) int() int    { return int(binary.LittleEndian.Uint32(d.fixed(4))) }
func (d *dec) u64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }

func (d *dec) str() string { return string(d.take(d.int())) }

func (d *dec) ints() []int {
	n := d.int() - 1
	if n < 0 {
		return nil
	}
	b := d.take(n * 4)
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return []int{} // not nil: see appendInts
	}
	at := len(d.intBuf)
	for i := 0; i < n; i++ {
		d.intBuf = append(d.intBuf, int(binary.LittleEndian.Uint32(b[i*4:])))
	}
	return d.intBuf[at:len(d.intBuf):len(d.intBuf)]
}

func (d *dec) term() rdf.Term {
	return rdf.Term{Kind: rdf.TermKind(d.u8()), Value: d.str(), Datatype: d.str(), Lang: d.str()}
}

// rowSection decodes one packed row section into flat, as a block —
// into IDs carved from region at the size its header states when flat
// has no room for them.
func (d *dec) rowSection() engine.Block {
	if d.err != nil {
		return engine.Block{}
	}
	var width, count int
	if width, count, d.err = wire.RowsShape(d.b); d.err != nil {
		return engine.Block{}
	}
	if cap(d.flat)-len(d.flat) < width*count {
		d.flat = d.region.IDs(width * count)[:0]
	}
	at := len(d.flat)
	if _, _, d.flat, d.b, d.err = wire.DecodeIDsInto(d.b, d.flat); d.err != nil {
		return engine.Block{}
	}
	return engine.MakeBlock(width, count, d.flat[at:])
}

// partShape validates the part set at the head of the input without
// decoding it — the partition count against want (-1 for any) and
// against the input length, every owned section through wire.RowsShape
// — and returns the count, the bytes the sections occupy and the IDs
// they hold. Only the count is consumed.
func (d *dec) partShape(want int) (total, size, ids int) {
	total = d.int()
	owned := d.slot.count(total)
	// Every owned section is at least its 8-byte header, which bounds
	// total — and anything sized from it — by the input length.
	if d.err == nil && (want >= 0 && total != want || owned > len(d.b)/8) {
		d.err = fmt.Errorf("shard: part set of %d partitions (want %d) in %d bytes", total, want, len(d.b))
	}
	b := d.b
	for i := 0; i < owned && d.err == nil; i++ {
		var w, c int
		if w, c, d.err = wire.RowsShape(b); d.err == nil {
			ids, b = ids+w*c, b[wire.RowsSize(w, c):]
		}
	}
	return total, len(d.b) - len(b), ids
}

// partSet decodes a part set into a dense partition slice, owned
// entries at their global indexes and the rest empty. want is the
// partition count the caller expects, -1 for any. The owned sections
// are measured first, so the whole set lands in one ID buffer however
// many partitions it has.
func (d *dec) partSet(want int) []engine.Block {
	total, _, ids := d.partShape(want)
	if d.err != nil {
		return nil
	}
	d.flat = d.region.IDs(ids)[:0]
	parts := make([]engine.Block, total)
	for p := d.slot.shard; p < total; p += d.slot.shards {
		parts[p] = d.rowSection()
	}
	return parts
}

// sections is a part set validated but not decoded: its partition count
// and the owned partitions' row sections, back to back.
type sections struct {
	total int
	b     []byte
}

// sections consumes the part set at the head of the input as partSet
// would, every check made, nothing decoded.
func (d *dec) sections(want int) sections {
	total, size, _ := d.partShape(want)
	return sections{total, d.take(size)}
}

// next decodes the set's next owned section into IDs carved from r.
func (s *sections) next(r *engine.Region) (engine.Block, error) {
	d := dec{b: s.b, region: r}
	rows := d.rowSection()
	s.b = d.b
	return rows, d.err
}

// done reports the first decode failure, or trailing bytes.
func (d *dec) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("shard: %d trailing bytes after message", len(d.b))
	}
	return d.err
}

// partsWidth returns the row width of the first non-empty partition
// (0 when every partition is empty).
func partsWidth(parts []engine.Block) int {
	for _, rows := range parts {
		if rows.Len() > 0 {
			return rows.Width()
		}
	}
	return 0
}

// totalRows is the row count of a part set or a whole side.
func totalRows(parts []engine.Block) int {
	n := 0
	for _, rows := range parts {
		n += rows.Len()
	}
	return n
}
