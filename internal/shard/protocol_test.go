package shard

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/testenv"
	"repro/internal/watdiv"
	"repro/internal/wire"
)

// randInts draws a key/keep list: nil, empty or a few indexes — the
// kernels tell nil from empty, so the codec must too.
func randInts(rng *rand.Rand) []int {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+rng.Intn(4))
	for i := range out {
		out[i] = rng.Intn(8)
	}
	return out
}

func randRows(rng *rand.Rand, width, n int) []engine.Row {
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = make(engine.Row, width)
		for j := range rows[i] {
			rows[i][j] = rdf.ID(rng.Uint32())
		}
	}
	return rows
}

// randParts draws a partition set with zero, empty and populated
// partitions of one width (width 0 included: existence relations).
func randParts(rng *rand.Rand, total int) []engine.Block {
	width := rng.Intn(4)
	parts := make([]engine.Block, total)
	for p := range parts {
		switch rng.Intn(3) {
		case 0: // the zero block
		case 1:
			parts[p] = engine.NewBlock(width, nil)
		default:
			parts[p] = engine.NewBlock(width, randRows(rng, width, 1+rng.Intn(5)))
		}
	}
	return parts
}

// randWhole draws a whole side: up to three blocks of one width, the
// rows of a broadcast relation's partitions.
func randWhole(rng *rand.Rand) []engine.Block {
	width := rng.Intn(3)
	whole := make([]engine.Block, rng.Intn(4))
	for i := range whole {
		whole[i] = engine.NewBlock(width, randRows(rng, width, rng.Intn(3)))
	}
	return whole
}

func randTerm(rng *rand.Rand) rdf.Term {
	words := []string{"", "a", "http://example.org/p", "42", "en", rdf.XSDInteger}
	pick := func() string { return words[rng.Intn(len(words))] }
	return rdf.Term{Kind: rdf.TermKind(rng.Intn(3)), Value: pick(), Datatype: pick(), Lang: pick()}
}

func randScanReq(rng *rand.Rand) *scanReq {
	req := &scanReq{Node: core.Node{Kind: core.NodeKind(rng.Intn(3)), Key: "k", Priority: rng.NormFloat64()}}
	for i := rng.Intn(4); i > 0; i-- {
		var tp sparql.TriplePattern
		for _, pt := range [3]*sparql.PatternTerm{&tp.S, &tp.P, &tp.O} {
			if rng.Intn(2) == 0 {
				pt.Var = "v" + string(rune('0'+rng.Intn(10)))
			} else {
				pt.Term = randTerm(rng)
			}
		}
		req.Node.Patterns = append(req.Node.Patterns, tp)
	}
	for i := rng.Intn(3); i > 0; i-- {
		req.Filters = append(req.Filters, sparql.Filter{Var: "v", Op: sparql.CompareOp(rng.Intn(6)), Value: randTerm(rng)})
	}
	return req
}

// decodable is a request that can read itself back whole.
type decodable interface {
	request
	decode(d *dec)
}

// newRequest returns an empty request of the given frame type, nil for
// a type that is not a request.
func newRequest(typ byte) decodable {
	switch typ {
	case msgHello:
		return &helloReq{}
	case msgScan:
		return &scanReq{}
	case msgShuffle, msgBroadcast, msgCartesian, msgDistinct:
		return &exchangeReq{}
	}
	return nil
}

// decode is appendTo's inverse over the whole message, part sets
// materialized the way the coordinator decodes responses. The server
// reads an exchange request a partition at a time instead (decodeLazy);
// this is the reference that path is tested against.
func (m *exchangeReq) decode(d *dec) {
	m.decodeSpec(d)
	m.Whole, m.A, m.B = []engine.Block{d.rowSection()}, d.partSet(-1), d.partSet(-1)
}

// decodeReq decodes one whole request payload.
func decodeReq(d *dec, req decodable) error {
	req.decode(d)
	return d.done()
}

// randRequests draws one request per frame type over total partitions:
// each exchange kind fills the fields it uses, as the session does.
func randRequests(rng *rand.Rand, total int) map[byte]request {
	shape := func(m *exchangeReq) *exchangeReq {
		m.OutWidth, m.LKeep, m.RKeep = rng.Intn(8), randInts(rng), randInts(rng)
		return m
	}
	return map[byte]request{
		msgHello:     &helloReq{Shard: rng.Intn(4), Shards: 1 + rng.Intn(4), Partitions: rng.Intn(64), Workers: rng.Intn(16), Fingerprint: rng.Uint64(), InversePT: rng.Intn(2) == 0},
		msgScan:      randScanReq(rng),
		msgShuffle:   shape(&exchangeReq{KeyA: randInts(rng), KeyB: randInts(rng), A: randParts(rng, total), B: randParts(rng, total)}),
		msgBroadcast: shape(&exchangeReq{KeyA: randInts(rng), KeyB: randInts(rng), AIsLeft: rng.Intn(2) == 0, Whole: randWhole(rng), A: randParts(rng, total)}),
		msgCartesian: shape(&exchangeReq{AIsLeft: rng.Intn(2) == 0, Whole: randWhole(rng), A: randParts(rng, total)}),
		msgDistinct:  &exchangeReq{OutWidth: rng.Intn(8), A: randParts(rng, total)},
	}
}

// sameRows compares row sets by content; nil and empty are the same
// row set (a width-0 row is an empty Row either way).
func sameRows(a, b []engine.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// rowsOf lists the rows of blocks, in order.
func rowsOf(blocks []engine.Block) []engine.Row {
	var rows []engine.Row
	for _, b := range blocks {
		rows = append(rows, b.Rows()...)
	}
	return rows
}

// checkParts asserts got is sl's view of want: owned partitions equal,
// the rest absent.
func checkParts(t *testing.T, what string, got, want []engine.Block, sl slot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partitions, want %d", what, len(got), len(want))
	}
	for p := range want {
		if !sl.owns(p) {
			if got[p].Len() != 0 {
				t.Fatalf("%s: unowned partition %d decoded %v", what, p, got[p].Rows())
			}
		} else if !sameRows(got[p].Rows(), want[p].Rows()) {
			t.Fatalf("%s: partition %d = %v, want %v", what, p, got[p].Rows(), want[p].Rows())
		}
	}
}

// TestMessageRoundTrip is the codec's property test: every message
// type, random specs (nil, empty and populated key lists), width-0
// rows, empty and absent partitions, as seen by every slot of 1-, 2-
// and 4-shard topologies, decodes back to what was sent — through
// fresh arenas (the coordinator's case) and reused ones (the
// server's). Every strict prefix of an encoding must fail to decode.
func TestMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var flat []rdf.ID
	for iter := 0; iter < 300; iter++ {
		shards := []int{1, 2, 4}[iter%3]
		sl := slot{rng.Intn(shards), shards}
		total := rng.Intn(10)
		for typ, want := range randRequests(rng, total) {
			enc := want.appendTo(nil, sl)
			if want.size(sl) > len(enc) {
				t.Fatalf("type %d: size %d exceeds the %d bytes encoded", typ, want.size(sl), len(enc))
			}
			got := newRequest(typ)
			d := dec{b: enc, slot: sl}
			if iter%2 == 1 {
				d.flat = flat[:0]
			}
			if err := decodeReq(&d, got); err != nil {
				t.Fatalf("type %d: decode: %v", typ, err)
			}
			flat = d.flat
			if w, ok := want.(*exchangeReq); ok {
				g := got.(*exchangeReq)
				if !sameRows(rowsOf(g.Whole), rowsOf(w.Whole)) {
					t.Fatalf("type %d: whole side %v, want %v", typ, rowsOf(g.Whole), rowsOf(w.Whole))
				}
				checkParts(t, "side A", g.A, w.A, sl)
				checkParts(t, "side B", g.B, w.B, sl)
				// What is left must match exactly, nil-ness of the lists included.
				g.Whole, g.A, g.B = w.Whole, w.A, w.B
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("type %d round trip:\n got %+v\nwant %+v", typ, got, want)
			}
			for cut := 0; cut < len(enc); cut++ {
				d := dec{b: enc[:cut], slot: sl}
				if decodeReq(&d, newRequest(typ)) == nil {
					t.Fatalf("type %d: %d-byte prefix of %d decoded cleanly", typ, cut, len(enc))
				}
			}
		}

		// The scan response: a part set (the exchange response layout)
		// followed by the owned partitions' processed counts.
		parts, processed := randParts(rng, total), make([]int64, total)
		for p := range processed {
			processed[p] = rng.Int63()
		}
		enc := appendCounts(appendPartSet(nil, parts, sl), processed, sl)
		if want := partSetSize(parts, sl) + 8*sl.count(total); len(enc) != want {
			t.Fatalf("scan response is %d bytes, sized %d", len(enc), want)
		}
		gotProcessed := make([]int64, total)
		d := dec{b: enc, slot: sl}
		gotParts := d.scanResp(total, gotProcessed)
		if err := d.done(); err != nil {
			t.Fatalf("scan response decode: %v", err)
		}
		checkParts(t, "scan response", gotParts, parts, sl)
		for p := range processed {
			if sl.owns(p) && gotProcessed[p] != processed[p] {
				t.Fatalf("processed[%d] = %d, want %d", p, gotProcessed[p], processed[p])
			}
		}
		d = dec{b: enc, slot: sl}
		if d.scanResp(total+1, make([]int64, total+1)); d.done() == nil {
			t.Fatalf("part set of %d partitions decoded where %d were expected", total, total+1)
		}
	}
}

// FuzzDecodeRequest feeds hostile payloads to the server's request
// decoding — hello and scan whole, exchanges validated by decodeLazy and
// then walked a section at a time as conn.exchange walks them — with
// fresh and with dirty scratch: the outcome is a request or an error,
// never a panic; nothing decoded may be larger than the input could
// carry; and whatever is wrong with a payload is reported by
// decodeLazy, before the first kernel would have run — past it, no
// section may fail and no byte may be left over.
func FuzzDecodeRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(14))
	for _, shards := range []int{1, 2, 4} {
		for typ, req := range randRequests(rng, 5) {
			f.Add(typ-msgHello, byte(shards-1), req.appendTo(nil, slot{0, shards}))
		}
	}
	f.Add(msgShuffle-msgHello, byte(0), []byte{})
	f.Fuzz(func(t *testing.T, kind, topo byte, data []byte) {
		sl := slot{int(topo>>4) % 4, 1 + int(topo&3)}
		sl.shard %= sl.shards
		d := dec{b: data, slot: sl}
		if kind&0x80 != 0 {
			d.flat, d.intBuf = make([]rdf.ID, 3, 8), make([]int, 1, 2)
		}
		switch typ := msgHello + kind&0x7f%(msgDistinct-msgHello+1); typ {
		case msgHello:
			var m helloReq
			m.decode(&d)
		case msgScan:
			var m scanReq
			if m.decode(&d); d.done() != nil {
				return
			}
			if n := len(m.Node.Patterns) + len(m.Filters); n > len(data) {
				t.Fatalf("%d patterns and filters from %d bytes", n, len(data))
			}
		default:
			var m exchangeReq
			a, b := m.decodeLazy(&d, nil)
			if d.err != nil {
				return
			}
			if n := len(m.KeyA) + len(m.KeyB) + len(m.LKeep) + len(m.RKeep); n*4 > len(data) {
				t.Fatalf("%d list entries decoded from %d bytes", n, len(data))
			}
			ids := 0
			count := func(rows engine.Block) { ids += len(rows.IDs()) }
			for _, whole := range m.Whole {
				count(whole)
			}
			for _, set := range []sections{a, b} {
				if set.total > sl.shards*(len(data)/8+1) {
					t.Fatalf("%d partitions accepted from %d bytes on %d shards", set.total, len(data), sl.shards)
				}
				for p := sl.shard; p < set.total; p += sl.shards {
					rows, err := set.next(nil)
					if err != nil {
						t.Fatalf("partition %d of a validated part set: %v", p, err)
					}
					count(rows)
				}
				if len(set.b) != 0 {
					t.Fatalf("%d bytes of a validated part set belong to no partition", len(set.b))
				}
			}
			if ids*4 > len(data) {
				t.Fatalf("%d IDs decoded from %d bytes", ids, len(data))
			}
		}
	})
}

// TestBroadcastAllocsIndependentOfRows runs one broadcast exchange over
// a loopback coordinator/server pair at 1,000 and at 100,000 probe
// rows: the allocations of the whole round trip must not follow the row
// (or partition) count. At 1,000 rows everything the server needs is
// warm, and what is left is the coordinator's fan-out and the result it
// hands back: 17 allocations (20 under the race detector). The larger
// message's frames come back from wire's pool on both ends as the small
// one's do; what a collection costs it — the large slabs of the server's
// request region, a few per owned partition (its section, chain heads
// and output), taken again from pools the collector emptied — is a
// constant, whatever the size.
func TestBroadcastAllocsIndependentOfRows(t *testing.T) {
	testenv.SkipUnderRace(t)
	store := testStore(t)
	coord := dialShards(t, store, 1)
	sess, err := coord.Session(context.Background(), &sparql.Query{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const parts, keys = 8, 16
	build := spreadRows(keys, 1, keys)
	spec := engine.BroadcastSpec{Name: "allocs", BuildKey: []int{0}, ProbeKey: []int{0}, OutWidth: 3, RKeep: []int{1}}
	allocs := func(n int) float64 {
		probe := spreadRows(n, parts, keys)
		return testenv.AllocsPerRun(t, 5, func() {
			out, err := sess.BroadcastJoin(spec, build, probe)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, p := range out {
				got += p.Len()
			}
			if got != n {
				t.Fatalf("join of %d probe rows returned %d", n, got)
			}
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	t.Logf("allocations per broadcast exchange: %.0f at 1,000 rows, %.0f at 100,000", small, large)
	if small > 20 {
		t.Errorf("%.0f allocations per 1,000-row exchange, want at most 20", small)
	}
	if large > small+25 {
		t.Errorf("allocations follow the row count: %.0f at 1,000 rows, %.0f at 100,000", small, large)
	}
}

// TestWarmCallAllocatesNoFrameBytes: a broadcast call whose request
// and response frames are both past 256 KiB, repeated on a warm
// loopback coordinator/server pair, finds every frame it needs — the
// coordinator's one, the server's two — grown in wire's pool: ten calls
// allocate fewer bytes, on both ends together, than one such frame
// holds. (Connections that dropped each frame past a 256 KiB retention
// cap took four frames anew on every such call.) The collector is off
// and one processor runs both ends, so the pool keeps what it is given
// and every call finds it where the last one left it.
func TestWarmCallAllocatesNoFrameBytes(t *testing.T) {
	testenv.SkipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	store := testStore(t)
	sc := dialShards(t, store, 1).conns[0]
	const rows, parts, frameBytes = 100_000, 8, 256 << 10
	req := &exchangeReq{KeyA: []int{0}, KeyB: []int{0}, OutWidth: 3, RKeep: []int{1},
		Whole: spreadRows(16, 1, 16), A: spreadRows(rows, parts, 16)}
	var region engine.Region
	call := func() {
		var out []engine.Block
		sent, recv, _, err := sc.call(context.Background(), &region, msgBroadcast, req, func(d *dec) { out = d.partSet(parts) })
		if err != nil {
			t.Fatal(err)
		}
		if sent <= frameBytes || recv <= frameBytes {
			t.Fatalf("frames of %d and %d bytes, want both past %d", sent, recv, frameBytes)
		}
		if got := totalRows(out); got != rows {
			t.Fatalf("join of %d probe rows returned %d", rows, got)
		}
		region.Release()
	}
	for range 3 {
		call()
	}
	const calls = 10
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	for range calls {
		call()
	}
	runtime.ReadMemStats(&m)
	got := m.TotalAlloc - before
	t.Logf("%d warm calls allocated %d bytes", calls, got)
	if got >= frameBytes {
		t.Errorf("%d warm calls allocated %d bytes, at least one frame's %d", calls, got, frameBytes)
	}
}

// TestHungShardDoesNotHangQuery dials a listener that completes the
// handshake and then never answers: a query with a 200 ms deadline
// must come back with the typed shard error well inside a second, and
// — the connection having failed mid-frame — later calls, the same
// query's queued behind the one that timed out and later queries', must
// fail fast with that cause instead of a closed socket's complaint or a
// desynchronised stream.
func TestHungShardDoesNotHangQuery(t *testing.T) {
	store := testStore(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hung := make(chan struct{})
	defer close(hung)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, _, _, err := wire.ReadFrame(c); err != nil {
			return
		}
		if _, err := wire.WriteFrame(c, msgOK, nil); err != nil {
			return
		}
		<-hung
	}()
	coord, err := Dial(store, []string{ln.Addr().String()})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	q := watdiv.BasicQuerySet()[0]
	for i, budget := range []time.Duration{time.Second, 100 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		start := time.Now()
		_, err = store.QueryContext(ctx, q.Parsed, core.QueryOptions{Dist: coord})
		took := time.Since(start)
		cancel()
		var se *wire.ShardError
		if !errors.As(err, &se) {
			t.Fatalf("query %d: error %v (%T) is not a *wire.ShardError", i, err, err)
		}
		// The second query's own deadline never fires: it is told what
		// closed the connection.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("query %d: error %v does not wrap the deadline error that closed the connection", i, err)
		}
		if took > budget {
			t.Errorf("query %d took %v against a hung shard, want under %v", i, took, budget)
		}
	}
}
