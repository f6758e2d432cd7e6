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
// Each message is written once, straight into a frame buffer its
// connection owns: a small hand-rolled header (uint32 ints, length-
// prefixed strings and int lists) followed by raw row sections in the
// packed layout of wire.AppendRows. A part set — one side of an exchange
// as seen by one shard — is the total partition count followed by one
// row section per partition that shard owns, in ascending partition
// order; both ends derive ownership from the topology, so no indexes
// travel. The frame checksum is the only integrity check: it covers
// every payload byte once per direction.
//
// The two ends read a message differently. The coordinator decodes a
// response whole, into exactly sized storage its rows keep for the rest
// of the query. The server validates a request whole — every section of
// every part set, before any kernel runs — and then works through it one
// owned partition at a time: decode that partition's sections into
// scratch, run the kernel into a reused arena, append the output section
// to the response frame, reset. What a connection holds between
// requests follows the largest partition it has seen, not the largest
// message, and never exceeds maxRetainBytes per buffer.
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
	Whole        []engine.Row   // broadcast: build side; cartesian: small side
	A, B         [][]engine.Row // shuffle: left and right; else A alone: probe, large side, distinct input
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

// appendScanResp writes a scan response: the part set, then the
// processed count of every owned partition.
func appendScanResp(b []byte, parts [][]engine.Row, processed []int64, sl slot) []byte {
	b = appendPartSet(b, parts, sl)
	for p := sl.shard; p < len(parts); p += sl.shards {
		b = binary.LittleEndian.AppendUint64(b, uint64(processed[p]))
	}
	return b
}

// scanResp reads a scan response of total partitions, storing the
// owned partitions' processed counts into processed.
func (d *dec) scanResp(total int, processed []int64) [][]engine.Row {
	parts := d.partSet(total)
	for p := d.slot.shard; p < len(parts); p += d.slot.shards {
		processed[p] = int64(d.u64())
	}
	return parts
}

func (m *exchangeReq) size(sl slot) int {
	return int(wire.RowsSize(m.wholeWidth(), len(m.Whole))) + partSetSize(m.A, sl) + partSetSize(m.B, sl)
}

func (m *exchangeReq) wholeWidth() int { return partsWidth([][]engine.Row{m.Whole}) }

func (m *exchangeReq) appendTo(b []byte, sl slot) []byte {
	var aIsLeft byte
	if m.AIsLeft {
		aIsLeft = 1
	}
	b = append(appendInts(appendInts(b, m.KeyA), m.KeyB), aIsLeft)
	b = appendInts(appendInts(appendInt(b, m.OutWidth), m.LKeep), m.RKeep)
	b = wire.AppendRows(b, m.wholeWidth(), m.Whole)
	return appendPartSet(appendPartSet(b, m.A, sl), m.B, sl)
}

// decodeSpec reads the kernel parameters: everything ahead of the rows.
func (m *exchangeReq) decodeSpec(d *dec) {
	m.KeyA, m.KeyB, m.AIsLeft = d.ints(), d.ints(), d.u8() != 0
	m.OutWidth, m.LKeep, m.RKeep = d.int(), d.ints(), d.ints()
}

// decodeLazy reads a whole exchange request the way the server works
// through it: the kernel parameters and the whole side are decoded, and
// the two part sets are validated to the last byte — so a malformed
// section anywhere fails the request here, before any kernel runs — but
// returned still encoded, for sections.next to decode one owned
// partition at a time. m.A and m.B stay nil.
func (m *exchangeReq) decodeLazy(d *dec) (a, b sections) {
	m.decodeSpec(d)
	m.Whole = d.rowSection()
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
func appendPartSet(b []byte, parts [][]engine.Row, sl slot) []byte {
	b = appendInt(b, len(parts))
	w := partsWidth(parts)
	for p := sl.shard; p < len(parts); p += sl.shards {
		b = wire.AppendRows(b, w, parts[p])
	}
	return b
}

// partSetSize is the encoded size of appendPartSet's output.
func partSetSize(parts [][]engine.Row, sl slot) int {
	n, w := 4, partsWidth(parts)
	for p := sl.shard; p < len(parts); p += sl.shards {
		n += int(wire.RowsSize(w, len(parts[p])))
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
func (w *partSetWriter) add(rows []engine.Row) {
	w.n++
	if !w.known && len(rows) > 0 {
		// Every section so far is an empty one, a bare header written
		// with the placeholder width: give them the set's.
		w.width, w.known = len(rows[0]), true
		for at := w.first; at < len(w.b); at += 8 {
			binary.LittleEndian.PutUint32(w.b[at:], uint32(w.width))
		}
	}
	if size := int(wire.RowsSize(w.width, len(rows))); size > cap(w.b)-len(w.b) {
		// Partitions are hash-placed, so those to come will be about the
		// size of those so far: grow once, to where the set is heading
		// (and a little past: a scan's counts and the frame's checksum
		// follow it), not by doublings that a frame too large to keep
		// would go through again on every request.
		mean := (len(w.b) - w.first + size) / w.n
		w.b = slices.Grow(w.b, size+(w.owned-w.n)*(mean+mean/8)+8*w.owned+16)
	}
	w.b = wire.AppendRows(w.b, w.width, rows)
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
	// flat and rows are the arenas decoded row sections are carved from,
	// and intBuf the one int lists are. All nil on the coordinator: its
	// rows outlive the call, and each part set is allocated once at its
	// exact size. The server lends a connection's scratch, which only
	// ever holds a request's whole side and spec — part sets it decodes
	// a partition at a time, through sections.
	flat   []rdf.ID
	rows   []engine.Row
	intBuf []int
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

// rowSection decodes one packed row section into the arenas.
func (d *dec) rowSection() []engine.Row {
	if d.err != nil {
		return nil
	}
	at := len(d.rows)
	d.flat, d.rows, d.b, d.err = wire.DecodeRowsInto(d.b, d.flat, d.rows)
	return d.rows[at:len(d.rows):len(d.rows)]
}

// partShape validates the part set at the head of the input without
// decoding it — the partition count against want (-1 for any) and
// against the input length, every owned section through wire.RowsShape
// — and returns the count, the bytes the sections occupy and the IDs and
// rows they hold. Only the count is consumed.
func (d *dec) partShape(want int) (total, size, ids, rows int) {
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
			ids, rows, b = ids+w*c, rows+c, b[wire.RowsSize(w, c):]
		}
	}
	return total, len(d.b) - len(b), ids, rows
}

// partSet decodes a part set into a dense partition slice, owned
// entries at their global indexes and the rest nil. want is the
// partition count the caller expects, -1 for any. The owned sections
// are measured first, so the whole set lands in one ID arena and one
// row-header arena however many partitions it has.
func (d *dec) partSet(want int) [][]engine.Row {
	total, _, ids, rows := d.partShape(want)
	if d.err != nil {
		return nil
	}
	d.flat, d.rows = slices.Grow(d.flat, ids), slices.Grow(d.rows, rows)
	parts := make([][]engine.Row, total)
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
	total, size, _, _ := d.partShape(want)
	return sections{total, d.take(size)}
}

// rowScratch is storage one row section at a time decodes into.
type rowScratch struct {
	flat []rdf.ID
	rows []engine.Row
}

// next decodes the set's next owned section into sc, over whatever the
// section before left there: the rows are valid until sc's next use.
func (s *sections) next(sc *rowScratch) (rows []engine.Row, err error) {
	sc.flat, sc.rows, s.b, err = wire.DecodeRowsInto(s.b, sc.flat[:0], sc.rows[:0])
	return sc.rows, err
}

// trim drops the scratch, and reports it, if either arena outgrew
// maxRetainBytes. They go together: kept row headers would pin a
// dropped ID arena.
func (sc *rowScratch) trim() (dropped bool) {
	if dropped = cap(sc.flat)*4 > maxRetainBytes || cap(sc.rows)*24 > maxRetainBytes; dropped {
		*sc = rowScratch{}
	}
	return dropped
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
func partsWidth(parts [][]engine.Row) int {
	for _, rows := range parts {
		if len(rows) > 0 {
			return len(rows[0])
		}
	}
	return 0
}
