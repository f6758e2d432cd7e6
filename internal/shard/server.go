package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// Server hosts one shard: a fully loaded store plus this process's
// position in the topology. Shards and the coordinator load the same
// dataset deterministically, so dictionary IDs, partition placement and
// per-partition row sets agree everywhere; the server only ever
// evaluates kernels over the partitions it owns (p % shards == shard).
type Server struct {
	store *core.Store
	slot  slot

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer builds a shard server for position shard of shards over the
// given store.
func NewServer(store *core.Store, shard, shards int) (*Server, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("shard: invalid position %d of %d", shard, shards)
	}
	return &Server{store: store, slot: slot{shard, shards}, conns: map[net.Conn]struct{}{}}, nil
}

// Serve accepts coordinator connections on ln until Close. It returns
// nil after Close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("shard: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.handle(c)
	}
}

// ListenAndServe listens on addr and serves; the bound address is
// reported through Addr once listening.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the server's listen address, nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and severs every live coordinator connection —
// from the coordinator's side an abrupt shard death, surfaced there as
// a *wire.ShardError.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	return err
}

// handle serves one coordinator connection: a strict request/response
// loop over wire frames, handshake first, until either direction fails.
func (s *Server) handle(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	state := conn{srv: s}
	for state.next(br, c) == nil {
	}
}

// conn is the state of one coordinator connection: everything a request
// needs is the connection's own and reused by the next. Two frame
// buffers: a request is read into in and stays there, still encoded,
// while the response is appended to out — the request's sections are
// read as late as the last partition. The row scratch holds decoded
// rows: whole the side that ships to every shard, for the length of the
// request; a and b the current partition's sections, overwritten by the
// next partition's. ks is where kernels and scans emit that partition's
// output, which lives until its section is appended to out.
type conn struct {
	srv     *Server
	helloed bool

	in, out     []byte
	whole, a, b rowScratch
	ints        []int   // the request's key and keep lists
	processed   []int64 // a scan's per-partition counts, sent after its rows
	ks          engine.KernelScratch
}

// next reads one request frame from r and answers it on w with a frame
// built in c.out. A request that cannot be served — malformed, refused,
// failed — is answered msgErr and keeps the connection alive for the
// next; the error return is for a connection that is over. Afterwards
// nothing the request grew past maxRetainBytes is still held.
func (c *conn) next(r io.Reader, w io.Writer) error {
	typ, payload, frame, _, err := wire.ReadFrameInto(r, c.in)
	if err != nil {
		return err
	}
	c.in = frame
	resp, err := c.respond(typ, payload)
	if err != nil {
		msg := err.Error()
		resp = append(wire.Begin(c.out, msgErr, len(msg)), msg...)
	}
	if c.out, err = wire.Finish(resp); err == nil {
		_, err = w.Write(c.out)
	}
	c.trim()
	return err
}

// trim drops every message-sized buffer that outgrew maxRetainBytes, so
// nothing larger survives the request that needed it.
func (c *conn) trim() {
	if cap(c.in) > maxRetainBytes {
		c.in = nil
	}
	if cap(c.out) > maxRetainBytes {
		c.out = nil
	}
	if cap(c.ints)*8 > maxRetainBytes {
		c.ints = nil
	}
	// The kernel scratch still refers to the rows it last worked on, so
	// it goes with any row scratch that does.
	if w, a, b := c.whole.trim(), c.a.trim(), c.b.trim(); w || a || b {
		c.ks = engine.KernelScratch{}
	}
	c.ks.Trim(maxRetainBytes)
}

// respond evaluates one request and returns its unsealed msgOK frame.
// The whole payload is decoded or validated before any kernel runs.
func (c *conn) respond(typ byte, payload []byte) ([]byte, error) {
	if typ < msgHello || typ > msgDistinct { // the request types
		return nil, fmt.Errorf("shard: unknown message type %d", typ)
	}
	if !c.helloed && typ != msgHello {
		return nil, fmt.Errorf("shard: message type %d before handshake", typ)
	}
	d := dec{b: payload, slot: c.srv.slot, flat: c.whole.flat[:0], rows: c.whole.rows[:0], intBuf: c.ints[:0]}
	switch typ {
	case msgHello:
		var m helloReq
		if m.decode(&d); d.done() != nil {
			return nil, d.err
		}
		if err := c.srv.validateHello(m); err != nil {
			return nil, err
		}
		c.helloed = true
		return wire.Begin(c.out, msgOK, 0), nil
	case msgScan:
		var m scanReq
		if m.decode(&d); d.done() != nil {
			return nil, d.err
		}
		return c.scan(&m)
	}
	var m exchangeReq
	a, b := m.decodeLazy(&d)
	c.whole.flat, c.whole.rows, c.ints = d.flat, d.rows, d.intBuf
	if d.err != nil {
		return nil, d.err
	}
	return c.exchange(typ, &m, a, b)
}

// scan evaluates a scan node over the owned partitions.
func (c *conn) scan(m *scanReq) ([]byte, error) {
	if len(m.Node.Patterns) == 0 {
		return nil, fmt.Errorf("shard: scan node without patterns")
	}
	ns, err := c.srv.store.PrepareNodeScan(&m.Node, m.Filters)
	if err != nil {
		return nil, err
	}
	sl, total := c.srv.slot, ns.Partitions()
	w := beginPartSet(wire.Begin(c.out, msgOK, 0), total, sl)
	c.processed = c.processed[:0]
	for p := sl.shard; p < total; p += sl.shards {
		rows, processed := ns.ScanPart(p, &c.ks.Out)
		w.add(rows)
		c.processed = append(c.processed, processed)
	}
	for _, n := range c.processed {
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(n))
	}
	return w.b, nil
}

// exchange runs an exchange kernel over the owned partitions of a
// validated request, one at a time.
func (c *conn) exchange(typ byte, m *exchangeReq, a, b sections) ([]byte, error) {
	if typ == msgShuffle && b.total != a.total {
		return nil, fmt.Errorf("shard: shuffle sides of %d and %d partitions", a.total, b.total)
	}
	if typ == msgBroadcast {
		// Index the build side once and probe every owned partition
		// against it, exactly as the in-process broadcast join does.
		c.ks.Build(m.Whole, m.KeyA)
	}
	sl := c.srv.slot
	w := beginPartSet(wire.Begin(c.out, msgOK, 0), a.total, sl)
	for p := sl.shard; p < a.total; p += sl.shards {
		rows, err := a.next(&c.a)
		if err != nil {
			return nil, err
		}
		switch typ {
		case msgShuffle:
			// Hash-join the owned partitions of a routed shuffle.
			right, err := b.next(&c.b)
			if err != nil {
				return nil, err
			}
			rows = c.ks.JoinPartition(rows, right, m.KeyA, m.KeyB, m.OutWidth, m.LKeep, m.RKeep)
		case msgBroadcast:
			rows = c.ks.Probe(rows, m.KeyB, m.AIsLeft, m.OutWidth, m.LKeep, m.RKeep)
		case msgCartesian:
			// Cross every owned large-side partition with the small side.
			rows = c.ks.Cartesian(rows, m.Whole, m.AIsLeft, m.OutWidth, m.LKeep, m.RKeep)
		case msgDistinct:
			// Dedup the owned partitions of a shuffled distinct.
			rows = c.ks.Distinct(rows, m.OutWidth)
		}
		w.add(rows)
	}
	return w.b, nil
}

// validateHello refuses coordinators whose topology or dataset does not
// match this shard's: serving the wrong partitions or a differently
// loaded store would corrupt results silently, so every axis the
// kernels depend on is checked up front.
func (s *Server) validateHello(req helloReq) error {
	if req.Shard != s.slot.shard || req.Shards != s.slot.shards {
		return fmt.Errorf("shard: coordinator expects shard %d of %d, this is %d of %d",
			req.Shard, req.Shards, s.slot.shard, s.slot.shards)
	}
	if req.Partitions != s.store.Partitions() {
		return fmt.Errorf("shard: coordinator has %d partitions, this store has %d",
			req.Partitions, s.store.Partitions())
	}
	if req.Workers != s.store.Cluster().Workers() {
		return fmt.Errorf("shard: coordinator simulates %d workers, this store %d",
			req.Workers, s.store.Cluster().Workers())
	}
	if req.Fingerprint != s.store.Stats().Fingerprint() {
		return fmt.Errorf("shard: dataset statistics fingerprint mismatch (coordinator %x, shard %x) — stores were not loaded from the same input",
			req.Fingerprint, s.store.Stats().Fingerprint())
	}
	// The other direction is harmless: a coordinator without the table
	// never plans an object star.
	if req.InversePT && s.store.InversePropertyTable() == nil {
		return fmt.Errorf("shard: coordinator plans over the inverse property table, this store was loaded without it (start the shard with -ipt)")
	}
	return nil
}
