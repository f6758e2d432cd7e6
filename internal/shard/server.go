package shard

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
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
// loop over wire frames, handshake first. The connection reuses three
// buffers across requests: the frame buffer — a request is read into
// it and, once decoded, the response is built in it — and the two
// arenas request rows decode into. Decoded rows live only until the
// response is written (kernel outputs may alias them until then), and
// nothing larger than maxRetainBytes is kept between requests.
func (s *Server) handle(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	var buf []byte
	var flat []rdf.ID
	var rows []engine.Row
	helloed := false
	for {
		typ, payload, frame, _, err := wire.ReadFrameInto(br, buf)
		if err != nil {
			return
		}
		d := dec{b: payload, slot: s.slot, flat: flat[:0], rows: rows[:0]}
		resp, err := s.handleMsg(typ, &d, frame, &helloed)
		if err != nil {
			msg := err.Error()
			resp = append(wire.Begin(frame, msgErr, len(msg)), msg...)
		}
		if frame, err = wire.Finish(resp); err != nil {
			return
		}
		if _, err := c.Write(frame); err != nil {
			return
		}
		buf, flat, rows = frame, d.flat, d.rows
		if cap(buf) > maxRetainBytes {
			buf = nil
		}
		// The arenas go together: kept row headers would pin a dropped
		// ID arena.
		if cap(flat)*4 > maxRetainBytes || cap(rows)*24 > maxRetainBytes {
			flat, rows = nil, nil
		}
	}
}

// handleMsg decodes and evaluates one request and returns the unsealed
// response frame, built in out — the buffer the request arrived in,
// free to overwrite once the request is decoded. An error becomes a
// msgErr response and keeps the connection alive for the next request.
func (s *Server) handleMsg(typ byte, d *dec, out []byte, helloed *bool) ([]byte, error) {
	req := newRequest(typ)
	if req == nil {
		return nil, fmt.Errorf("shard: unknown message type %d", typ)
	}
	if !*helloed && typ != msgHello {
		return nil, fmt.Errorf("shard: message type %d before handshake", typ)
	}
	if req.decode(d); d.done() != nil {
		return nil, d.err
	}
	var kernel func(p int) []engine.Row
	switch req := req.(type) {
	case *helloReq:
		if err := s.validateHello(*req); err != nil {
			return nil, err
		}
		*helloed = true
		return wire.Begin(out, msgOK, 0), nil
	case *scanReq:
		if len(req.Node.Patterns) == 0 {
			return nil, fmt.Errorf("shard: scan node without patterns")
		}
		parts, processed, err := s.store.ScanNodeParts(&req.Node, req.Filters, s.slot.owns)
		if err != nil {
			return nil, err
		}
		out = wire.Begin(out, msgOK, partSetSize(parts, s.slot)+8*len(processed))
		return appendScanResp(out, parts, processed, s.slot), nil
	case *exchangeReq:
		switch typ {
		case msgShuffle:
			// Hash-join the owned partitions of a routed shuffle.
			if len(req.B) != len(req.A) {
				return nil, fmt.Errorf("shard: shuffle sides of %d and %d partitions", len(req.A), len(req.B))
			}
			kernel = func(p int) []engine.Row {
				return engine.JoinPartitionKernel(req.A[p], req.B[p], req.KeyA, req.KeyB, req.OutWidth, req.LKeep, req.RKeep)
			}
		case msgBroadcast:
			// Index the build side once and probe every owned partition
			// against it, exactly as the in-process broadcast join does.
			jp := engine.NewJoinProbe(req.Whole, req.KeyA)
			kernel = func(p int) []engine.Row {
				return jp.Probe(req.A[p], req.KeyB, req.AIsLeft, req.OutWidth, req.LKeep, req.RKeep)
			}
		case msgCartesian:
			// Cross every owned large-side partition with the small side.
			kernel = func(p int) []engine.Row {
				return engine.CartesianKernel(req.A[p], req.Whole, req.AIsLeft, req.OutWidth, req.LKeep, req.RKeep)
			}
		case msgDistinct:
			// Dedup the owned partitions of a shuffled distinct.
			kernel = func(p int) []engine.Row { return engine.DistinctKernel(req.A[p], req.OutWidth) }
		}
		parts := make([][]engine.Row, len(req.A))
		for p := s.slot.shard; p < len(parts); p += s.slot.shards {
			parts[p] = kernel(p)
		}
		out = appendPartSet(wire.Begin(out, msgOK, partSetSize(parts, s.slot)), parts, s.slot)
	}
	return out, nil
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
	return nil
}
