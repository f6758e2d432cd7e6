package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

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
	// hello and frame are helloTimeout and frameTimeout; only this
	// package's tests shorten them.
	hello, frame time.Duration

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
	return &Server{store: store, slot: slot{shard, shards}, hello: helloTimeout, frame: frameTimeout, conns: map[net.Conn]struct{}{}}, nil
}

// A peer must deliver its handshake within helloTimeout of connecting,
// and the rest of every later frame within frameTimeout of the frame's
// first byte, or it loses its connection. Between frames a handshaken
// coordinator may stay idle for as long as it has no query to run.
const (
	helloTimeout = 10 * time.Second
	frameTimeout = 30 * time.Second
)

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
// loop over wire frames, handshake first, until either direction fails
// or a read deadline (helloTimeout, frameTimeout) passes.
func (s *Server) handle(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	state := conn{srv: s}
	hello := time.Now().Add(s.hello)
	for {
		if state.helloed {
			// Idle until the next frame starts, then bound the rest of it.
			if c.SetReadDeadline(time.Time{}) != nil {
				return
			}
			if _, err := br.Peek(1); err != nil {
				return
			}
			if c.SetReadDeadline(time.Now().Add(s.frame)) != nil {
				return
			}
		} else if c.SetReadDeadline(hello) != nil {
			return
		}
		if state.next(br, c) != nil {
			return
		}
	}
}

// conn is the state of one coordinator connection. Each request borrows
// two frames from wire's pool: the request is read into one and stays
// there, still encoded, while the response is appended to the other —
// the request's sections are read as late as the last partition. Both go
// back once the response is written, so between requests a connection
// holds no frame. Everything else the request holds as rows — the whole
// side that ships to every shard (wholeSide is the one-block list a
// request's Whole is), each owned partition's decoded sections, hash
// tables and outputs — is carved from region, which the request owns
// from its first decode until its response frame is written. wholeSide
// and the int lists are the connection's own, reused by the next
// request.
type conn struct {
	srv     *Server
	helloed bool

	wholeSide []engine.Block
	ints      []int   // the request's key and keep lists
	processed []int64 // a scan's per-partition counts, sent after its rows
	region    engine.Region
}

// maxRetainBytes bounds the int lists a connection keeps between
// requests; a request whose lists grew past it leaves them to the
// collector.
const maxRetainBytes = 256 << 10

// next reads one request frame from r and answers it on w with a frame
// built in a second pooled frame. A request that cannot be served —
// malformed, refused, failed — is answered msgErr and keeps the
// connection alive for the next; the error return is for a connection
// that is over. Once the response is written the request's region is
// released and both frames go back to the pool.
func (c *conn) next(r io.Reader, w io.Writer) error {
	in := wire.GetFrame()
	typ, payload, frame, _, err := wire.ReadFrameInto(r, *in)
	if err != nil {
		// The frame is dropped, not pooled: a read that failed may have
		// sized it from a length prefix no checksum vouched for.
		return err
	}
	*in = frame
	out := wire.GetFrame()
	resp, err := c.respond(*out, typ, payload)
	if err != nil {
		msg := err.Error()
		resp = append(wire.Begin(*out, msgErr, len(msg)), msg...)
	}
	if *out, err = wire.Finish(resp); err == nil {
		_, err = w.Write(*out)
	}
	// The whole side is region memory: no block of it may outlive the
	// release.
	clear(c.wholeSide)
	c.region.Release()
	putFrame(in)
	putFrame(out)
	if cap(c.ints)*8 > maxRetainBytes {
		c.ints = nil
	}
	return err
}

// respond evaluates one request and returns its unsealed msgOK frame,
// begun in out's storage. The whole payload is decoded or validated
// before any kernel runs.
func (c *conn) respond(out []byte, typ byte, payload []byte) ([]byte, error) {
	if typ < msgHello || typ > msgDistinct { // the request types
		return nil, fmt.Errorf("shard: unknown message type %d", typ)
	}
	if !c.helloed && typ != msgHello {
		return nil, fmt.Errorf("shard: message type %d before handshake", typ)
	}
	d := dec{b: payload, slot: c.srv.slot, intBuf: c.ints[:0], region: &c.region}
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
		return wire.Begin(out, msgOK, 0), nil
	case msgScan:
		var m scanReq
		if m.decode(&d); d.done() != nil {
			return nil, d.err
		}
		return c.scan(out, &m)
	}
	var m exchangeReq
	a, b := m.decodeLazy(&d, c.wholeSide)
	c.wholeSide, c.ints = m.Whole, d.intBuf
	if d.err != nil {
		return nil, d.err
	}
	return c.exchange(out, typ, &m, a, b)
}

// scan evaluates a scan node over the owned partitions into a response
// begun in out's storage.
func (c *conn) scan(out []byte, m *scanReq) ([]byte, error) {
	if len(m.Node.Patterns) == 0 {
		return nil, fmt.Errorf("shard: scan node without patterns")
	}
	ns, err := c.srv.store.PrepareNodeScan(&m.Node, m.Filters)
	if err != nil {
		return nil, err
	}
	sl, total := c.srv.slot, ns.Partitions()
	w := beginPartSet(wire.Begin(out, msgOK, 0), total, sl)
	c.processed = c.processed[:0]
	for p := sl.shard; p < total; p += sl.shards {
		rows, processed := ns.ScanPart(p, &c.region)
		w.add(rows)
		c.processed = append(c.processed, processed)
	}
	for _, n := range c.processed {
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(n))
	}
	return w.b, nil
}

// exchange runs an exchange kernel over the owned partitions of a
// validated request, one at a time, in the request's region, into a
// response begun in out's storage.
func (c *conn) exchange(out []byte, typ byte, m *exchangeReq, a, b sections) ([]byte, error) {
	if typ == msgShuffle && b.total != a.total {
		return nil, fmt.Errorf("shard: shuffle sides of %d and %d partitions", a.total, b.total)
	}
	r := &c.region
	var build engine.JoinProbe
	if typ == msgBroadcast {
		// Index the build side once and probe every owned partition
		// against it, exactly as the in-process broadcast join does.
		build = engine.BuildJoinProbe(r, m.Whole, m.KeyA)
	}
	sl := c.srv.slot
	w := beginPartSet(wire.Begin(out, msgOK, 0), a.total, sl)
	for p := sl.shard; p < a.total; p += sl.shards {
		rows, err := a.next(r)
		if err != nil {
			return nil, err
		}
		switch typ {
		case msgShuffle:
			// Hash-join the owned partitions of a routed shuffle.
			right, err := b.next(r)
			if err != nil {
				return nil, err
			}
			rows = engine.JoinPartition(r, rows, right, m.KeyA, m.KeyB, m.OutWidth, m.LKeep, m.RKeep)
		case msgBroadcast:
			rows = build.ProbeBlock(r, rows, m.KeyB, m.AIsLeft, m.OutWidth, m.LKeep, m.RKeep)
		case msgCartesian:
			// Cross every owned large-side partition with the small side.
			rows = engine.Cartesian(r, rows, m.Whole, m.AIsLeft, m.OutWidth, m.LKeep, m.RKeep)
		case msgDistinct:
			// Dedup the owned partitions of a shuffled distinct.
			rows = engine.Distinct(r, rows, m.OutWidth)
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
