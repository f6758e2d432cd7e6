package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sparql"
	"repro/internal/wire"
)

// Coordinator is the client side of scale-out execution: one persistent
// TCP connection per shard, handed to queries as per-query DistSessions
// (core.DistRunner) and aggregating wire measurements across sessions
// (core.NetworkReporter). It also hosts the calibration layer: every
// exchange records measured bytes against the cost model's price, and
// measured per-table scan bytes feed back into the next run's leaf
// pricing record so the calibration error narrows run over run.
type Coordinator struct {
	parts   int
	workers int
	fp      uint64
	conns   []*shardConn

	// leafMu guards leaf, the calibration store: measured wire bytes per
	// scan site (label + pushed filters), seeded by the first run and
	// used to price the same leaf on later runs.
	leafMu sync.Mutex
	leaf   map[string]int64

	// aggMu guards the cross-session exchange aggregates /stats reports.
	aggMu     sync.Mutex
	exchanges int64
	calSum    float64
	calN      int64
}

// dialTimeout bounds Dial as a whole, connecting and handshakes, so a
// shard that accepts and then stalls cannot hang coordinator start-up.
const dialTimeout = 10 * time.Second

// Dial connects to every shard in addrs (addrs[i] is shard i of
// len(addrs)) and performs the topology/dataset handshake against the
// coordinator's own store. Any refusal or connection failure aborts the
// whole dial.
func Dial(store *core.Store, addrs []string) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: no shard addresses")
	}
	c := &Coordinator{
		parts:   store.Partitions(),
		workers: store.Cluster().Workers(),
		fp:      store.Stats().Fingerprint(),
		leaf:    map[string]int64{},
	}
	ctx, cancel := context.WithTimeout(context.TODO(), dialTimeout)
	defer cancel()
	var dialer net.Dialer
	for i, addr := range addrs {
		nc, err := dialer.DialContext(ctx, "tcp", addr)
		if err != nil {
			c.Close()
			return nil, &wire.ShardError{Addr: addr, Shard: i, Err: err}
		}
		sc := &shardConn{addr: addr, slot: slot{i, len(addrs)}, c: nc, br: bufio.NewReader(nc)}
		c.conns = append(c.conns, sc)
		hello := &helloReq{Shard: i, Shards: len(addrs), Partitions: c.parts, Workers: c.workers, Fingerprint: c.fp,
			InversePT: store.InversePropertyTable() != nil}
		if _, _, _, err := sc.call(ctx, nil, msgHello, hello, func(*dec) {}); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close severs every shard connection.
func (c *Coordinator) Close() error {
	var err error
	for _, sc := range c.conns {
		if cerr := sc.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Session implements core.DistRunner: sessions share the coordinator's
// connections (per-connection calls serialize) and keep their own
// exchange records; the part sets they decode are carved from region.
func (c *Coordinator) Session(ctx context.Context, q *sparql.Query, region *engine.Region) (core.DistSession, error) {
	return &session{ctx: ctx, c: c, region: region, filters: append([]sparql.Filter(nil), q.Filters...)}, nil
}

// NetworkStats implements core.NetworkReporter.
func (c *Coordinator) NetworkStats() core.NetworkStats {
	var ns core.NetworkStats
	for _, sc := range c.conns {
		sent, recv, calls, rtts := sc.snapshot()
		ns.BytesSent += sent
		ns.BytesReceived += recv
		ns.ShardRTT = append(ns.ShardRTT, core.ShardRTT{
			Addr:  sc.addr,
			Calls: calls,
			P50:   durationQuantile(rtts, 0.50),
			P99:   durationQuantile(rtts, 0.99),
		})
	}
	c.aggMu.Lock()
	ns.Exchanges = c.exchanges
	ns.CalibratedExchanges = c.calN
	if c.calN > 0 {
		ns.CalibrationError = c.calSum / float64(c.calN)
	}
	c.aggMu.Unlock()
	return ns
}

// leafPrice resolves a scan site's calibrated price: the measured bytes
// a previous run stored, or the cost model's figure on first sight.
func (c *Coordinator) leafPrice(key string, modeledBytes int64) int64 {
	c.leafMu.Lock()
	defer c.leafMu.Unlock()
	if m, ok := c.leaf[key]; ok {
		return m
	}
	return modeledBytes
}

// storeLeaf records a scan site's measured wire bytes for later runs.
func (c *Coordinator) storeLeaf(key string, measured int64) {
	c.leafMu.Lock()
	c.leaf[key] = measured
	c.leafMu.Unlock()
}

// noteRecord folds one exchange record into the cross-session
// aggregates. Only shuffle exchanges enter the calibration error: their
// price and payload describe the same physical movement, whereas
// broadcast-style prices scale with the simulated worker count rather
// than the shard count that actually received copies.
func (c *Coordinator) noteRecord(r core.ExchangeRecord) {
	c.aggMu.Lock()
	c.exchanges++
	if r.Kind == "shuffle" && r.PricedBytes > 0 && r.MeasuredBytes > 0 {
		c.calSum += math.Abs(math.Log2(float64(r.MeasuredBytes) / float64(r.PricedBytes)))
		c.calN++
	}
	c.aggMu.Unlock()
}

// shardConn is one shard's connection: calls serialize on mu (one
// request/response in flight), and every call's bytes and round-trip
// latency are recorded for /stats.
type shardConn struct {
	addr string
	slot slot
	c    net.Conn
	br   *bufio.Reader
	mu   sync.Mutex
	// broken is why roundTrip closed the connection, nil while it is
	// usable; guarded by mu. Calls that find it set fail with it at once.
	broken error

	statMu sync.Mutex
	sent   int64
	recv   int64
	calls  int64
	rtts   []time.Duration
}

// maxRTTSamples bounds per-shard latency memory; past it, samples
// overwrite ring-style so quantiles track the recent window.
const maxRTTSamples = 1 << 13

// call performs one framed request/response exchange, handing the
// response payload (valid only during the callback) to decode, whose
// row sections are carved from region. The request is built and the
// response read in one frame borrowed from wire's pool, given back once
// decode has copied the rows out; a connection keeps no frame between
// calls. Every failure — transport, shard-reported, or codec — comes
// back as a *wire.ShardError naming this shard, so query errors surface
// through the task-attempt machinery as a worker outage.
func (sc *shardConn) call(ctx context.Context, region *engine.Region, typ byte, req request, decode func(*dec)) (sent, recv int64, wall time.Duration, err error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	frame := wire.GetFrame()
	start := time.Now()
	rtyp, payload, sent, recv, err := sc.roundTrip(ctx, frame, typ, req)
	wall = time.Since(start)
	sc.note(sent, recv, wall)
	// A frame whose call failed is dropped, not pooled: a read that
	// failed may have sized it from a length prefix no checksum vouched
	// for.
	pooled := err == nil
	switch {
	case err != nil:
	case rtyp == msgErr:
		err = errors.New(string(payload))
	case rtyp == msgOK:
		d := dec{b: payload, slot: sc.slot, region: region}
		decode(&d)
		err = d.done()
	default:
		err = fmt.Errorf("unexpected response type %d", rtyp)
	}
	if pooled {
		putFrame(frame)
	}
	if err != nil {
		err = &wire.ShardError{Addr: sc.addr, Shard: sc.slot.shard, Err: err}
	}
	return sent, recv, wall, err
}

// roundTrip writes the request frame and reads the response frame,
// both through frame. The connection deadline follows ctx, and a
// cancellation while the call is blocked in I/O breaks it at once. Any
// failure past the first written byte leaves the stream mid-frame, so
// the connection is closed and the cause kept: later calls then fail
// fast with it, instead of reading a desynchronised stream — or, for a
// call of the same query that was queued behind the failing one, instead
// of reporting a closed socket when what happened is the query's own
// deadline.
func (sc *shardConn) roundTrip(ctx context.Context, frame *[]byte, typ byte, req request) (rtyp byte, payload []byte, sent, recv int64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, 0, 0, err
	}
	if sc.broken != nil {
		return 0, nil, 0, 0, fmt.Errorf("connection closed after an earlier call failed: %w", sc.broken)
	}
	// The row sections are sized exactly; 256 bytes cover the spec header.
	out, err := wire.Finish(req.appendTo(wire.Begin(*frame, typ, req.size(sc.slot)+256), sc.slot))
	if err != nil {
		return 0, nil, 0, 0, err
	}
	*frame = out
	deadline, _ := ctx.Deadline() // the zero time clears a previous call's
	sc.c.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { sc.c.SetDeadline(time.Unix(1, 0)) })
	n, err := sc.c.Write(out)
	sent = int64(n)
	if err == nil {
		rtyp, payload, *frame, recv, err = wire.ReadFrameInto(sc.br, *frame)
	}
	// A cancellation that raced a completed call still fails it: its
	// deadline poke may land on the next call otherwise.
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		sc.c.Close()
		// Report the cause, not the I/O timeout it provoked. The armed
		// deadline is ctx's own and can fire a moment before ctx does.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			err = context.DeadlineExceeded
		}
		sc.broken = err
	}
	return rtyp, payload, sent, recv, err
}

// note records one call's wire bytes and latency.
func (sc *shardConn) note(sent, recv int64, wall time.Duration) {
	sc.statMu.Lock()
	sc.sent += sent
	sc.recv += recv
	if len(sc.rtts) < maxRTTSamples {
		sc.rtts = append(sc.rtts, wall)
	} else {
		sc.rtts[sc.calls%maxRTTSamples] = wall
	}
	sc.calls++
	sc.statMu.Unlock()
}

// snapshot copies the connection's counters for reporting.
func (sc *shardConn) snapshot() (sent, recv, calls int64, rtts []time.Duration) {
	sc.statMu.Lock()
	defer sc.statMu.Unlock()
	return sc.sent, sc.recv, sc.calls, append([]time.Duration(nil), sc.rtts...)
}

// durationQuantile returns the q-quantile of samples by nearest rank:
// the smallest sample at least a fraction q of the samples do not
// exceed, the ceil(q·n)-th smallest.
func durationQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// session is one query's DistSession: it resolves FILTER indexes
// against the query it was opened for, fans every exchange out to all
// shards under the query's context, decodes their rows into the query's
// region, and records measured-vs-priced bytes per exchange.
type session struct {
	ctx     context.Context
	c       *Coordinator
	region  *engine.Region
	filters []sparql.Filter

	mu      sync.Mutex
	records []core.ExchangeRecord
}

// Records implements core.DistSession.
func (s *session) Records() []core.ExchangeRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.ExchangeRecord(nil), s.records...)
}

// Close implements core.DistSession; connections outlive sessions.
func (s *session) Close() error { return nil }

// record appends one exchange record and feeds the coordinator's
// aggregates.
func (s *session) record(r core.ExchangeRecord) {
	s.mu.Lock()
	s.records = append(s.records, r)
	s.mu.Unlock()
	s.c.noteRecord(r)
}

// fanOut sends req to every shard, one task of one cluster.Run per
// shard on as many workers as shards — a call waits on its socket, not
// on a processor — and each connection encodes its own slot's view of
// it. It merges the responses decode extracts: out[p] comes from p's
// owner, wire bytes sum, and the exchange wall time is the slowest
// shard's round trip (shards work in parallel). The lowest-index error
// wins, keeping failures deterministic.
func (s *session) fanOut(typ byte, req request, total int, decode func(d *dec) []engine.Block) (out []engine.Block, wireBytes int64, wall time.Duration, err error) {
	n := len(s.c.conns)
	calls := make([]struct {
		parts []engine.Block
		wire  int64
		wall  time.Duration
	}, n)
	err = cluster.Run(n, n, new(cluster.Tasks), cluster.Func(func(_, i int) error {
		c := &calls[i]
		sent, recv, wall, err := s.c.conns[i].call(s.ctx, s.region, typ, req, func(d *dec) { c.parts = decode(d) })
		c.wire, c.wall = sent+recv, wall
		return err
	}))
	if err != nil {
		return nil, 0, 0, err
	}
	out = make([]engine.Block, total)
	for i, c := range calls {
		wireBytes += c.wire
		wall = max(wall, c.wall)
		for p := i; p < total; p += n {
			out[p] = c.parts[p]
		}
	}
	return out, wireBytes, wall, nil
}

// exchange fans an exchange kernel out — every response is the part set
// of the kernel's owned output partitions — and records it: rec arrives
// with the kind, name and byte counts, and leaves with the measurement.
func (s *session) exchange(typ byte, req *exchangeReq, rec core.ExchangeRecord) (out []engine.Block, err error) {
	total := len(req.A)
	out, rec.WireBytes, rec.Wall, err = s.fanOut(typ, req, total, func(d *dec) []engine.Block { return d.partSet(total) })
	if err == nil {
		s.record(rec)
	}
	return out, err
}

// partPayloadBytes is the packed row-ID payload of a partition set: 4
// bytes per value, framing excluded. Every partition crosses the wire
// exactly once (to its owner), so the payload is a property of the
// fragments alone; part-set and frame overhead counts toward
// WireBytes instead, keeping MeasuredBytes comparable with the cost
// model's per-row prices even for tiny exchanges.
func partPayloadBytes(parts []engine.Block) int64 {
	return int64(totalRows(parts)) * int64(partsWidth(parts)) * 4
}

// ScanNode implements core.DistSession: every shard scans its owned
// partitions of the node's table with the pushed filters applied
// shard-side; the merged result and summed processed counts are exactly
// what the local scan kernels produce.
func (s *session) ScanNode(planNode int, n *core.Node, filterIdx []int, label string, modeledBytes int64) ([]engine.Block, []int64, error) {
	filters := make([]sparql.Filter, 0, len(filterIdx))
	for _, i := range filterIdx {
		if i < 0 || i >= len(s.filters) {
			return nil, nil, fmt.Errorf("shard: filter index %d out of %d", i, len(s.filters))
		}
		filters = append(filters, s.filters[i])
	}
	total := s.c.parts
	processed := make([]int64, total)
	out, wireBytes, wall, err := s.fanOut(msgScan, &scanReq{Node: *n, Filters: filters}, total, func(d *dec) []engine.Block {
		// Each shard fills only the counts of the partitions it owns.
		return d.scanResp(total, processed)
	})
	if err != nil {
		return nil, nil, err
	}
	payload := partPayloadBytes(out)
	key := leafKey(label, filters)
	priced := s.c.leafPrice(key, modeledBytes)
	s.c.storeLeaf(key, payload)
	s.record(core.ExchangeRecord{
		Node: planNode, Kind: "scan", Name: label,
		PricedBytes: priced, MeasuredBytes: payload,
		WireBytes: wireBytes, Wall: wall,
	})
	return out, processed, nil
}

// leafKey identifies a scan site for the calibration store: the node
// label plus the pushed filters that shape its measured payload.
func leafKey(label string, filters []sparql.Filter) string {
	if len(filters) == 0 {
		return label
	}
	var sb strings.Builder
	sb.WriteString(label)
	for _, f := range filters {
		sb.WriteByte('|')
		sb.WriteString(f.String())
	}
	return sb.String()
}

// ShuffleJoin implements engine.Exchanger. The coordinator already
// routed both sides; each shard receives the fragments of the
// partitions it owns and joins them. A side the model priced at zero
// (aligned on the join key) still crosses the wire — its relation lives
// coordinator-side — but that relay payload counts only toward
// WireBytes, keeping MeasuredBytes comparable with the price.
func (s *session) ShuffleJoin(spec engine.ShuffleSpec, lParts, rParts []engine.Block) ([]engine.Block, error) {
	var measured int64
	if spec.LMovedBytes > 0 {
		measured += partPayloadBytes(lParts)
	}
	if spec.RMovedBytes > 0 {
		measured += partPayloadBytes(rParts)
	}
	req := &exchangeReq{KeyA: spec.LKey, KeyB: spec.RKey, OutWidth: spec.OutWidth, LKeep: spec.LKeep, RKeep: spec.RKeep, A: lParts, B: rParts}
	return s.exchange(msgShuffle, req,
		core.ExchangeRecord{Node: spec.Node, Kind: "shuffle", Name: spec.Name, PricedBytes: spec.PricedBytes, MeasuredBytes: measured})
}

// BroadcastJoin implements engine.Exchanger: the build side ships whole
// to every shard (one copy each: the measured broadcast payload); the
// probe side is relay and counts only toward WireBytes.
func (s *session) BroadcastJoin(spec engine.BroadcastSpec, build []engine.Block, probeParts []engine.Block) ([]engine.Block, error) {
	measured := partPayloadBytes(build) * int64(len(s.c.conns))
	req := &exchangeReq{KeyA: spec.BuildKey, KeyB: spec.ProbeKey, AIsLeft: spec.BuildIsLeft,
		OutWidth: spec.OutWidth, LKeep: spec.LKeep, RKeep: spec.RKeep, Whole: build, A: probeParts}
	return s.exchange(msgBroadcast, req,
		core.ExchangeRecord{Node: spec.Node, Kind: "broadcast", Name: spec.Name, PricedBytes: spec.PricedBytes, MeasuredBytes: measured})
}

// Cartesian implements engine.Exchanger; like a broadcast join, the
// small side's shipped copies are the measured payload.
func (s *session) Cartesian(spec engine.CartesianSpec, small []engine.Block, largeParts []engine.Block) ([]engine.Block, error) {
	measured := partPayloadBytes(small) * int64(len(s.c.conns))
	req := &exchangeReq{AIsLeft: spec.SmallIsLeft, OutWidth: spec.OutWidth, LKeep: spec.LKeep, RKeep: spec.RKeep, Whole: small, A: largeParts}
	return s.exchange(msgCartesian, req,
		core.ExchangeRecord{Node: spec.Node, Kind: "cartesian", Name: spec.Name, PricedBytes: spec.PricedBytes, MeasuredBytes: measured})
}

// Distinct implements engine.Exchanger over an already-shuffled input.
func (s *session) Distinct(spec engine.DistinctSpec, parts []engine.Block) ([]engine.Block, error) {
	var measured int64
	if spec.PricedBytes > 0 {
		measured = partPayloadBytes(parts)
	}
	return s.exchange(msgDistinct, &exchangeReq{OutWidth: spec.Width, A: parts},
		core.ExchangeRecord{Node: spec.Node, Kind: "distinct", Name: "distinct", PricedBytes: spec.PricedBytes, MeasuredBytes: measured})
}
