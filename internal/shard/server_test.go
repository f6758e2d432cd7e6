package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/watdiv"
	"repro/internal/wire"
)

// testConn is a handshaken connection state for sl over the fixture
// store, driven without sockets.
func testConn(t *testing.T, sl slot) *conn {
	t.Helper()
	srv, err := NewServer(testStore(t), sl.shard, sl.shards)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return &conn{srv: srv, helloed: true}
}

// frameOf seals sl's view of a request into a frame of its own.
func frameOf(t *testing.T, typ byte, req request, sl slot) []byte {
	t.Helper()
	frame, err := wire.Finish(req.appendTo(wire.Begin(nil, typ, req.size(sl)), sl))
	if err != nil {
		t.Fatalf("type %d: %v", typ, err)
	}
	return frame
}

// exchangeOver feeds c one request frame the way handle does and
// returns the response's type and payload, valid until c's next use.
func exchangeOver(t *testing.T, c *conn, frame []byte) (byte, []byte) {
	t.Helper()
	var resp bytes.Buffer
	if err := c.next(bytes.NewReader(frame), &resp); err != nil {
		t.Fatalf("conn.next: %v", err)
	}
	typ, payload, _, err := wire.ReadFrame(&resp)
	if err != nil {
		t.Fatalf("response frame: %v", err)
	}
	return typ, payload
}

// largestBuffer is the size in bytes of the largest buffer c holds.
func (c *conn) largestBuffer() int {
	n := max(cap(c.in), cap(c.out), cap(c.ints)*8, c.ks.LargestBuffer())
	for _, sc := range []rowScratch{c.whole, c.a, c.b} {
		n = max(n, cap(sc.flat)*4, cap(sc.rows)*24)
	}
	return n
}

// spreadRows deals n rows of (key, serial) over parts partitions, keys
// cycling through 1..keys.
func spreadRows(n, parts, keys int) [][]engine.Row {
	out := make([][]engine.Row, parts)
	for i := 0; i < n; i++ {
		out[i%parts] = append(out[i%parts], engine.Row{rdf.ID(i%keys + 1), rdf.ID(i)})
	}
	return out
}

func wsdbm(local string) sparql.PatternTerm {
	return sparql.PatternTerm{Term: rdf.NewIRI(watdiv.NSwsdbm + local)}
}

func variable(name string) sparql.PatternTerm { return sparql.PatternTerm{Var: name} }

// scanRequests are scan nodes over the fixture store, one per scan
// kernel: a VP scan that aliases the table, VP scans filtered by a bound
// position and by a pushed FILTER, and PT and inverse-PT stars.
func scanRequests() map[string]*scanReq {
	follows := sparql.TriplePattern{S: variable("u"), P: wsdbm("follows"), O: variable("f")}
	likes := sparql.TriplePattern{S: variable("u"), P: wsdbm("likes"), O: variable("p")}
	bound := follows
	bound.O = sparql.PatternTerm{Term: watdiv.UserIRI(3)}
	return map[string]*scanReq{
		"VP":        {Node: core.Node{Kind: core.NodeVP, Patterns: []sparql.TriplePattern{follows}}},
		"VP bound":  {Node: core.Node{Kind: core.NodeVP, Patterns: []sparql.TriplePattern{bound}}},
		"VP absent": {Node: core.Node{Kind: core.NodeVP, Patterns: []sparql.TriplePattern{{S: variable("u"), P: wsdbm("noSuchPredicate"), O: variable("x")}}}},
		"VP filter": {Node: core.Node{Kind: core.NodeVP, Patterns: []sparql.TriplePattern{follows}},
			Filters: []sparql.Filter{{Var: "f", Op: sparql.OpNE, Value: watdiv.UserIRI(3)}}},
		"PT":  {Node: core.Node{Kind: core.NodePT, Key: "u", Patterns: []sparql.TriplePattern{follows, likes}}},
		"IPT": {Node: core.Node{Kind: core.NodeIPT, Key: "f", Patterns: []sparql.TriplePattern{follows}}},
	}
}

// TestWarmConnAllocations: once a connection has served a request, the
// same request again — frame read, decode, kernels, response, trim —
// allocates for what it cannot reuse and nothing else. Exchanges reuse
// everything (scratch rows, hash index or row set, output arena, both
// frames): zero. A scan still decodes its node and resolves it against
// the store once per request — strings, pattern and filter lists, the
// predicate closures, the NodeScan — a count that belongs to the node,
// not to its rows or its 18 partitions, and is pinned here per kind (the
// PT kinds at what they take under the race detector, three more than
// without).
func TestWarmConnAllocations(t *testing.T) {
	sl := slot{0, 1}
	c := testConn(t, sl)
	const parts = 8
	probe := spreadRows(4000, parts, 16)
	build := spreadRows(16, 1, 16)[0]
	type kind struct {
		name string
		typ  byte
		req  request
		want float64
	}
	kinds := []kind{
		{"shuffle", msgShuffle, &exchangeReq{KeyA: []int{0}, KeyB: []int{0}, OutWidth: 3, RKeep: []int{1}, A: spreadRows(16, parts, 16), B: probe}, 0},
		{"broadcast", msgBroadcast, &exchangeReq{KeyA: []int{0}, KeyB: []int{0}, OutWidth: 3, RKeep: []int{1}, Whole: build, A: probe}, 0},
		{"cartesian", msgCartesian, &exchangeReq{AIsLeft: true, OutWidth: 4, RKeep: []int{0, 1}, Whole: build[:3], A: probe}, 0},
		{"distinct", msgDistinct, &exchangeReq{OutWidth: 2, A: spreadRows(4000, parts, 16)}, 0},
	}
	scanAllocs := map[string]float64{"VP": 3, "VP absent": 3, "VP bound": 7, "VP filter": 10, "PT": 16, "IPT": 13}
	for name, req := range scanRequests() {
		kinds = append(kinds, kind{name + " scan", msgScan, req, scanAllocs[name]})
	}
	for _, k := range kinds {
		frame := frameOf(t, k.typ, k.req, sl)
		if typ, payload := exchangeOver(t, c, frame); typ != msgOK {
			t.Fatalf("%s: response type %d: %s", k.name, typ, payload)
		}
		var rd bytes.Reader
		var resp bytes.Buffer
		got := testing.AllocsPerRun(20, func() {
			rd.Reset(frame)
			resp.Reset()
			if err := c.next(&rd, &resp); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per warm request, %d response bytes", k.name, got, resp.Len())
		if got > k.want {
			t.Errorf("%s: %.0f allocations per warm request, want at most %.0f", k.name, got, k.want)
		}
	}
}

// TestConnKeepsNothingLarge: a 100,000-row broadcast over 8 partitions
// needs frames, scratch and an arena past maxRetainBytes; once it is
// answered, and again after a 1,000-row request, no buffer the
// connection still holds is larger than that.
func TestConnKeepsNothingLarge(t *testing.T) {
	sl := slot{0, 1}
	c := testConn(t, sl)
	build := spreadRows(16, 1, 16)[0]
	for _, n := range []int{100_000, 1_000} {
		req := &exchangeReq{KeyA: []int{0}, KeyB: []int{0}, OutWidth: 3, RKeep: []int{1}, Whole: build, A: spreadRows(n, 8, 16)}
		typ, payload := exchangeOver(t, c, frameOf(t, msgBroadcast, req, sl))
		if typ != msgOK {
			t.Fatalf("%d rows: response type %d: %s", n, typ, payload)
		}
		if want := 4 + 8*8 + n*3*4; len(payload) != want {
			t.Fatalf("%d rows: response of %d bytes, want %d", n, len(payload), want)
		}
		if got := c.largestBuffer(); got > maxRetainBytes {
			t.Errorf("after a %d-row request the connection holds a %d-byte buffer, limit %d", n, got, maxRetainBytes)
		} else if n == 1_000 && got == 0 {
			t.Errorf("after a %d-row request the connection holds no scratch at all", n)
		}
	}
}

// randKeep draws a keep list over a row of the given width: nil or a
// few valid indexes (possibly none).
func randKeep(rng *rand.Rand, width int) []int {
	if rng.Intn(3) == 0 {
		return nil
	}
	keep := []int{}
	for i := 0; i < width; i++ {
		if rng.Intn(2) == 0 {
			keep = append(keep, i)
		}
	}
	return keep
}

// randJoinParts is randParts over a small value domain, so keys meet.
func randJoinParts(rng *rand.Rand, total int) (parts [][]engine.Row, width int) {
	width = rng.Intn(4)
	parts = make([][]engine.Row, total)
	if rng.Intn(8) == 0 {
		return parts, width // an all-empty set
	}
	for p := range parts {
		switch rng.Intn(3) {
		case 0: // nil
		case 1:
			parts[p] = []engine.Row{}
		default:
			parts[p] = randRows(rng, width, 1+rng.Intn(6))
			for _, r := range parts[p] {
				for j := range r {
					r[j] %= 3
				}
			}
		}
	}
	return parts, width
}

// randKernelRequests draws one request per exchange kind over total
// partitions whose specs the kernels can run: key and keep indexes
// inside the row widths.
func randKernelRequests(rng *rand.Rand, total int) map[byte]*exchangeReq {
	a, wa := randJoinParts(rng, total)
	b, wb := randJoinParts(rng, total)
	whole, ww := randJoinParts(rng, 1)
	keys := func(w1, w2 int) (k1, k2 []int) {
		for n := rng.Intn(min(w1, w2) + 1); n > 0; n-- {
			k1, k2 = append(k1, rng.Intn(w1)), append(k2, rng.Intn(w2))
		}
		return k1, k2
	}
	sKeyA, sKeyB := keys(wa, wb)
	bKeyA, bKeyB := keys(ww, wa)
	return map[byte]*exchangeReq{
		msgShuffle:   {KeyA: sKeyA, KeyB: sKeyB, OutWidth: rng.Intn(8), LKeep: randKeep(rng, wa), RKeep: randKeep(rng, wb), A: a, B: b},
		msgBroadcast: {KeyA: bKeyA, KeyB: bKeyB, AIsLeft: true, OutWidth: rng.Intn(8), LKeep: randKeep(rng, ww), RKeep: randKeep(rng, wa), Whole: whole[0], A: a},
		msgCartesian: {AIsLeft: false, OutWidth: rng.Intn(8), LKeep: randKeep(rng, wa), RKeep: randKeep(rng, ww), Whole: whole[0], A: a},
		msgDistinct:  {OutWidth: wa, A: a},
	}
}

// wholeKernels is the reference evaluation of an exchange request: the
// exported whole-partition kernels over sl's partitions, each output in
// storage of its own.
func wholeKernels(typ byte, m *exchangeReq, sl slot) [][]engine.Row {
	out := make([][]engine.Row, len(m.A))
	var jp *engine.JoinProbe
	if typ == msgBroadcast {
		jp = engine.NewJoinProbe(m.Whole, m.KeyA)
	}
	for p := sl.shard; p < len(out); p += sl.shards {
		switch typ {
		case msgShuffle:
			out[p] = engine.JoinPartitionKernel(m.A[p], m.B[p], m.KeyA, m.KeyB, m.OutWidth, m.LKeep, m.RKeep)
		case msgBroadcast:
			out[p] = jp.Probe(m.A[p], m.KeyB, m.AIsLeft, m.OutWidth, m.LKeep, m.RKeep)
		case msgCartesian:
			out[p] = engine.CartesianKernel(m.A[p], m.Whole, m.AIsLeft, m.OutWidth, m.LKeep, m.RKeep)
		case msgDistinct:
			out[p] = engine.DistinctKernel(m.A[p], m.OutWidth)
		}
	}
	return out
}

// TestResponseFramesMatchWholeKernels is the differential test of the
// partition-at-a-time request loop: for every request kind, as every
// slot of 1-, 2- and 4-shard topologies sees it, over random part sets
// — empty partitions ahead of the first populated one, all-empty sets,
// width-0 rows — one long-lived connection's response payload is, byte
// for byte, the part set of the exported whole-partition kernels'
// outputs (and ScanNodeParts' for scans). A request cut short anywhere
// is refused with msgErr and leaves the connection serving.
func TestResponseFramesMatchWholeKernels(t *testing.T) {
	store := testStore(t)
	rng := rand.New(rand.NewSource(18))
	for _, shards := range []int{1, 2, 4} {
		for shard := 0; shard < shards; shard++ {
			sl := slot{shard, shards}
			c := testConn(t, sl)
			check := func(what string, typ byte, req request, want []byte) {
				t.Helper()
				frame := frameOf(t, typ, req, sl)
				rtyp, got := exchangeOver(t, c, frame)
				if rtyp != msgOK {
					t.Fatalf("%s: response type %d: %s", what, rtyp, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: response payload differs from the whole-partition kernels'\n got %d bytes % x\nwant %d bytes % x",
						what, len(got), got, len(want), want)
				}
				// The same request with its last byte missing, behind a
				// valid frame: an error reply, and on to the next request.
				payload := frame[len(wire.Magic)+5 : len(frame)-4]
				if len(payload) == 0 {
					return
				}
				cut, err := wire.Finish(append(wire.Begin(nil, typ, len(payload)), payload[:len(payload)-1]...))
				if err != nil {
					t.Fatal(err)
				}
				if rtyp, _ := exchangeOver(t, c, cut); rtyp != msgErr {
					t.Fatalf("%s: truncated request answered with type %d", what, rtyp)
				}
			}
			for iter := 0; iter < 150; iter++ {
				total := rng.Intn(10)
				for typ, m := range randKernelRequests(rng, total) {
					what := fmt.Sprintf("shard %d/%d iter %d type %d (%+v)", shard, shards, iter, typ, m)
					check(what, typ, m, appendPartSet(nil, wholeKernels(typ, m, sl), sl))
				}
			}
			for name, req := range scanRequests() {
				parts, processed, err := store.ScanNodeParts(&req.Node, req.Filters, sl.owns)
				if err != nil {
					t.Fatalf("%s: ScanNodeParts: %v", name, err)
				}
				check(fmt.Sprintf("shard %d/%d %s scan", shard, shards, name), msgScan, req, appendScanResp(nil, parts, processed, sl))
			}
		}
	}
}
