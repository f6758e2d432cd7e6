package shard

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/watdiv"
	"repro/internal/wire"
)

// The fixture: one WatDiv dataset loaded once. Shard servers and the
// coordinator share the same read-only store object — exactly the
// deterministic-load guarantee separate prost-shard processes rely on,
// without paying three loads per test run.
const testScale = 120

var (
	fixOnce  sync.Once
	fixStore *core.Store
	fixErr   error
)

func testStore(t *testing.T) *core.Store {
	t.Helper()
	fixOnce.Do(func() {
		g := watdiv.MustGenerate(watdiv.Config{Scale: testScale, Seed: 42})
		c := cluster.MustNew(cluster.DefaultConfig())
		fixStore, fixErr = core.Load(g, core.Options{Cluster: c, BuildInversePT: true})
	})
	if fixErr != nil {
		t.Fatalf("loading fixture: %v", fixErr)
	}
	return fixStore
}

// startShards boots n shard servers on loopback and returns their
// addresses in shard order.
func startShards(t *testing.T, store *core.Store, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer(store, i, n)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func dialShards(t *testing.T, store *core.Store, n int) *Coordinator {
	t.Helper()
	coord, err := Dial(store, startShards(t, store, n))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// renderResult flattens SortedRows into one comparable string.
func renderResult(res *core.Result) string {
	var sb strings.Builder
	for _, row := range res.SortedRows() {
		for i, term := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(term.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestShardedExecutionMatchesSingleProcess is the tentpole acceptance
// gate: every WatDiv query, under every planner mode and storage
// strategy, must produce byte-identical SortedRows and the identical
// SimTime on 2-shard and 4-shard topologies as in single-process
// execution. The baseline bypasses the plan cache, so neither side runs
// a plan the other's execution corrected.
func TestShardedExecutionMatchesSingleProcess(t *testing.T) {
	store := testStore(t)
	coords := map[int]*Coordinator{
		2: dialShards(t, store, 2),
		4: dialShards(t, store, 4),
	}
	strategies := map[string]core.Strategy{}
	for _, name := range core.StrategyNames() {
		st, err := core.ParseStrategy(name)
		if err != nil {
			t.Fatalf("ParseStrategy(%s): %v", name, err)
		}
		strategies[name] = st
	}
	// Broadcast thresholds: the default (tiny fixture tables all
	// broadcast) plus disabled (every join shuffles), so both exchange
	// families are pinned identical.
	for _, bcast := range []int64{0, -1} {
		for _, modeName := range plan.ModeNames() {
			mode, err := plan.ParseMode(modeName)
			if err != nil {
				t.Fatalf("ParseMode(%s): %v", modeName, err)
			}
			for stratName, strat := range strategies {
				for _, q := range watdiv.BasicQuerySet() {
					opts := core.QueryOptions{Strategy: strat, Planner: mode, NoPlanCache: true, BroadcastThreshold: bcast}
					base, err := store.Query(q.Parsed, opts)
					if err != nil {
						t.Fatalf("%s/%s/%s single-process: %v", q.Name, modeName, stratName, err)
					}
					baseRows := renderResult(base)
					for shards, coord := range coords {
						dopts := opts
						dopts.Dist = coord
						res, err := store.Query(q.Parsed, dopts)
						if err != nil {
							t.Fatalf("%s/%s/%s on %d shards: %v", q.Name, modeName, stratName, shards, err)
						}
						if got := renderResult(res); got != baseRows {
							t.Errorf("%s/%s/%s on %d shards: rows diverge from single-process\ngot:\n%swant:\n%s",
								q.Name, modeName, stratName, shards, got, baseRows)
						}
						if res.SimTime != base.SimTime {
							t.Errorf("%s/%s/%s on %d shards: SimTime %v != single-process %v",
								q.Name, modeName, stratName, shards, res.SimTime, base.SimTime)
						}
					}
				}
			}
		}
	}
}

// netAnnotated collects the executed plan's nodes carrying exchange
// measurements.
func netAnnotated(p *plan.Plan) []*plan.Node {
	var out []*plan.Node
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.HasNetBytes {
			out = append(out, n)
		}
	}
	walk(p.Root)
	return out
}

// TestShuffleCalibrationWithin2x pins the calibration acceptance bound:
// on every shuffled join the model priced, the measured wire payload
// must land within 2x of the price (the packed wire layout uses 4
// bytes/value against the model's 5, so the expected ratio is ~0.8).
func TestShuffleCalibrationWithin2x(t *testing.T) {
	store := testStore(t)
	coord := dialShards(t, store, 2)
	shuffles := 0
	for _, q := range watdiv.BasicQuerySet() {
		// The fixture's tables all fit under the default broadcast
		// threshold; disabling broadcasts forces the shuffle exchanges
		// the bound is about.
		res, err := store.Query(q.Parsed, core.QueryOptions{Dist: coord, BroadcastThreshold: -1})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, n := range netAnnotated(res.Plan) {
			if n.Op != plan.OpJoin || n.Method != plan.MethodShuffle {
				continue
			}
			if n.PricedNetBytes <= 0 || n.MeasuredNetBytes <= 0 {
				continue
			}
			shuffles++
			ratio := float64(n.MeasuredNetBytes) / float64(n.PricedNetBytes)
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("%s: shuffle join measured %d bytes vs priced %d (ratio %.2f), outside 2x",
					q.Name, n.MeasuredNetBytes, n.PricedNetBytes, ratio)
			}
		}
	}
	if shuffles == 0 {
		t.Fatalf("no priced shuffle joins executed — calibration bound never exercised")
	}
	ns := coord.NetworkStats()
	if ns.CalibratedExchanges == 0 || ns.CalibrationError > 1 {
		t.Errorf("NetworkStats calibration: error %.3f over %d exchanges, want >0 exchanges within mean 2x",
			ns.CalibrationError, ns.CalibratedExchanges)
	}
	if ns.Exchanges == 0 || ns.BytesSent == 0 || ns.BytesReceived == 0 {
		t.Errorf("NetworkStats traffic empty: %+v", ns)
	}
	if len(ns.ShardRTT) != 2 {
		t.Errorf("ShardRTT has %d entries, want 2", len(ns.ShardRTT))
	}
}

// scanError sums a plan's leaf-pricing calibration error, in
// |log2(measured/priced)| terms.
func scanError(p *plan.Plan) (sum float64, scans int) {
	for _, n := range netAnnotated(p) {
		if n.Op != plan.OpScan || n.PricedNetBytes <= 0 || n.MeasuredNetBytes <= 0 {
			continue
		}
		sum += math.Abs(math.Log2(float64(n.MeasuredNetBytes) / float64(n.PricedNetBytes)))
		scans++
	}
	return sum, scans
}

// TestLeafPricingFeedbackNarrows verifies the calibration feedback
// loop: the first run prices scans from the cost model, the measured
// wire bytes are stored, and a second identical run prices from the
// stored measurement — so its leaf-pricing error collapses.
func TestLeafPricingFeedbackNarrows(t *testing.T) {
	store := testStore(t)
	coord := dialShards(t, store, 2)
	q := watdiv.BasicQuerySet()[0]
	opts := core.QueryOptions{Dist: coord}

	first, err := store.Query(q.Parsed, opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	err1, scans1 := scanError(first.Plan)
	if scans1 == 0 {
		t.Fatalf("first run annotated no priced scans")
	}
	if err1 == 0 {
		t.Fatalf("first-run leaf error already 0 — modeled scan bytes cannot equal wire payload")
	}

	second, err := store.Query(q.Parsed, opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	err2, scans2 := scanError(second.Plan)
	if scans2 != scans1 {
		t.Fatalf("second run annotated %d scans, first %d", scans2, scans1)
	}
	if err2 >= err1 {
		t.Errorf("leaf-pricing error did not narrow: first %.4f, second %.4f", err1, err2)
	}
	if err2 > 0.01 {
		t.Errorf("second-run leaf error %.4f, want ~0 (priced from measured bytes of an identical run)", err2)
	}
}

// TestShardDeathSurfacesTypedError kills one shard mid-topology and
// verifies the failure reaches the caller through the task-attempt
// machinery: a *core.TaskFailedError whose attempt records a worker
// outage and which unwraps to the underlying *wire.ShardError.
func TestShardDeathSurfacesTypedError(t *testing.T) {
	store := testStore(t)
	addrs := make([]string, 2)
	servers := make([]*Server, 2)
	for i := 0; i < 2; i++ {
		srv, err := NewServer(store, i, 2)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
		servers[i] = srv
	}
	coord, err := Dial(store, addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { coord.Close() })

	servers[1].Close()

	q := watdiv.BasicQuerySet()[0]
	_, err = store.Query(q.Parsed, core.QueryOptions{Dist: coord})
	if err == nil {
		t.Fatalf("query succeeded with a dead shard")
	}
	var tfe *core.TaskFailedError
	if !errors.As(err, &tfe) {
		t.Fatalf("error %v (%T) is not a *core.TaskFailedError", err, err)
	}
	if len(tfe.Attempts) != 1 || tfe.Attempts[0].Outcome != cluster.AttemptOutage {
		t.Errorf("attempt trace %+v, want one worker-outage attempt", tfe.Attempts)
	}
	if tfe.Attempts[0].Worker != 1 {
		t.Errorf("attempt worker = %d, want dead shard 1", tfe.Attempts[0].Worker)
	}
	var se *wire.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not unwrap to *wire.ShardError", err)
	}
	if se.Shard != 1 {
		t.Errorf("ShardError.Shard = %d, want 1", se.Shard)
	}
}

// TestHelloRejectsTopologyMismatch verifies the handshake refuses a
// coordinator whose topology disagrees with the shard's.
func TestHelloRejectsTopologyMismatch(t *testing.T) {
	store := testStore(t)
	// A server believing it is shard 0 of 2 must refuse a coordinator
	// dialing it as the only shard of 1.
	srv, err := NewServer(store, 0, 2)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	if _, err := Dial(store, []string{ln.Addr().String()}); err == nil {
		t.Fatalf("Dial succeeded across a topology mismatch")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Errorf("mismatch error %v does not identify the shard handshake", err)
	}
}

// TestHelloRejectsInversePTMismatch: a coordinator whose store holds the
// inverse Property Table plans object stars the shards must scan, so
// shards loaded without it refuse the handshake — a deployment mismatch
// caught at Dial, where it used to surface per query as a worker-outage
// *core.TaskFailedError ("inverse property table not loaded"). The other
// direction stays allowed: a coordinator without the table never plans
// an object star.
func TestHelloRejectsInversePTMismatch(t *testing.T) {
	with := testStore(t)
	g := watdiv.MustGenerate(watdiv.Config{Scale: testScale, Seed: 42})
	without, err := core.Load(g, core.Options{Cluster: cluster.MustNew(cluster.DefaultConfig())})
	if err != nil {
		t.Fatalf("loading a store without the inverse PT: %v", err)
	}
	if coord, err := Dial(with, startShards(t, without, 2)); err == nil {
		coord.Close()
		t.Fatal("Dial succeeded: coordinator with the inverse PT, shards without")
	} else if !strings.Contains(err.Error(), "inverse property table") || !strings.Contains(err.Error(), "-ipt") {
		t.Errorf("refusal %v does not name the inverse property table and the -ipt flag", err)
	}

	coord, err := Dial(without, startShards(t, with, 2))
	if err != nil {
		t.Fatalf("Dial refused a coordinator without the inverse PT: %v", err)
	}
	defer coord.Close()
	q := watdiv.BasicQuerySet()[0].Parsed
	want, err := without.Query(q, core.QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := without.Query(q, core.QueryOptions{Dist: coord})
	if err != nil {
		t.Fatalf("query on shards that hold the inverse PT: %v", err)
	}
	if renderResult(got) != renderResult(want) || got.SimTime != want.SimTime {
		t.Errorf("sharded rows or SimTime (%v vs %v) differ from single-process", got.SimTime, want.SimTime)
	}
}

// TestExplainRendersNetBytes verifies the /explain plumbing end to end:
// a distributed execution's plan renders measured-vs-priced bytes.
func TestExplainRendersNetBytes(t *testing.T) {
	store := testStore(t)
	coord := dialShards(t, store, 2)
	q := watdiv.BasicQuerySet()[0]
	res, err := store.Query(q.Parsed, core.QueryOptions{Dist: coord})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(netAnnotated(res.Plan)) == 0 {
		t.Fatalf("executed plan carries no exchange annotations")
	}
	if out := res.Plan.String(); !strings.Contains(out, "net=") {
		t.Errorf("plan rendering lacks net= annotation:\n%s", out)
	}
}

// netAnnotation renders every executed plan node's exchange measurement
// by node ID.
func netAnnotation(p *plan.Plan) string {
	var sb strings.Builder
	for _, n := range netAnnotated(p) {
		fmt.Fprintf(&sb, "%d %s net=%d/%d\n", n.ID, n.Op, n.PricedNetBytes, n.MeasuredNetBytes)
	}
	return sb.String()
}

// TestNetAnnotationKeyedByNode: EXPLAIN's net= annotation names the plan
// node each exchange ran for. The query's two arms are the same join
// over different variables — joins with one label, scans with another —
// and run concurrently at the default pool width; matched by label in
// arrival order, their records would swap whenever the arms finished the
// other way round. Every run must annotate exactly as the
// one-operator-at-a-time run does. (A warm-up run first settles the
// coordinator's leaf pricing, which prices a scan label's first
// measurement differently from the later ones.)
func TestNetAnnotationKeyedByNode(t *testing.T) {
	store := testStore(t)
	coord := dialShards(t, store, 2)
	q := sparql.MustParse(`PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
		SELECT ?x ?z WHERE {
			?x wsdbm:follows ?y . ?y wsdbm:likes ?p .
			?z wsdbm:follows ?w . ?w wsdbm:likes ?p .
			FILTER(?z != wsdbm:User0) FILTER(?z != wsdbm:User1) FILTER(?z != wsdbm:User2)
		}`)
	opts := core.QueryOptions{Strategy: core.StrategyVPOnly, NoPlanCache: true, Dist: coord, BroadcastThreshold: -1}
	// On one processor the plan runs one operator at a time.
	serial := func() (*core.Result, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return store.Query(q, opts)
	}
	if _, err := serial(); err != nil {
		t.Fatal(err)
	}
	want, err := serial()
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for _, n := range netAnnotated(want.Plan) {
		if n.Op == plan.OpJoin {
			labels[n.Children[1].Label]++
		}
	}
	twice := false
	for _, c := range labels {
		twice = twice || c >= 2
	}
	if !twice {
		t.Fatalf("no two annotated joins share a label: %v\n%s", labels, want.Plan)
	}
	for run := 0; run < 20; run++ {
		res, err := store.Query(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := netAnnotation(res.Plan); got != netAnnotation(want.Plan) {
			t.Fatalf("run %d annotates\n%swant (GOMAXPROCS 1)\n%s", run, got, netAnnotation(want.Plan))
		}
	}
}

// TestReleasedRegionsPoisoned runs the sharded routes with
// engine.PoisonReleased on: the 2- and 4-shard identity gates and the
// scan shapes, whose coordinator decodes every part set into the
// query's region, and the hung shard, whose query gives up on its
// deadline — QueryContext may release the region only once the fan-out
// blocked on the shard has unwound, or a part set decoded late lands in
// poisoned, recycled memory. The server's side is the response frames:
// a request's sections, scans and kernel outputs live in its region,
// which may be released only once the last section is appended.
func TestReleasedRegionsPoisoned(t *testing.T) {
	defer engine.PoisonReleased(engine.PoisonReleased(true))
	t.Run("ShardedMatchesSingleProcess", TestShardedExecutionMatchesSingleProcess)
	t.Run("ScanShapes", TestScanShapesAgreeAcrossRoutes)
	t.Run("HungShard", TestHungShardDoesNotHangQuery)
	t.Run("ResponseFrames", TestResponseFramesMatchWholeKernels)
}

// TestGoroutinesSettleOnCoordinator: a sharded query ends every
// goroutine it starts — the per-shard calls of each exchange included.
// After 1,000 warm queries on a 2-shard coordinator the goroutine count
// returns to what it was before them; the shard servers' connection
// goroutines were running already.
func TestGoroutinesSettleOnCoordinator(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	store := testStore(t)
	coord := dialShards(t, store, 2)
	q := sparql.MustParse(`PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
		SELECT ?x ?p WHERE { ?x wsdbm:follows ?y . ?y wsdbm:likes ?p . }`)
	query := func() {
		if _, err := store.Query(q, core.QueryOptions{Dist: coord, BroadcastThreshold: -1}); err != nil {
			t.Fatal(err)
		}
	}
	start := runtime.NumGoroutine()
	query()
	before := goroutinesAtMost(start)
	for range 1000 {
		query()
	}
	if after := goroutinesAtMost(before); after > before {
		t.Errorf("%d goroutines after 1,000 warm queries, %d before", after, before)
	}
}

// goroutinesAtMost waits up to ten seconds for at most n goroutines to
// be left, and returns how many are.
func goroutinesAtMost(n int) int {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if got := runtime.NumGoroutine(); got <= n || time.Now().After(deadline) {
			return got
		}
	}
}

// TestFaultsPricedOnShards runs seeded fault schedules on two shards:
// recovery is priced on the coordinator, so a sharded query's SimTime,
// recovery record and rows equal the single-process run's.
func TestFaultsPricedOnShards(t *testing.T) {
	store := testStore(t)
	coord := dialShards(t, store, 2)
	schedules := []*cluster.FaultPlan{
		{Seed: 1, FailRate: 0.05},
		{Seed: 2, MaxAttempts: 6, Outages: []cluster.WorkerOutage{
			{Worker: 0, From: 0, Until: 800 * time.Millisecond},
			{Worker: 1, From: 100 * time.Millisecond, Until: time.Second},
		}},
		{Seed: 3, StragglerRate: 0.10, StragglerFactor: 6},
		{Seed: 4, CorruptRate: 0.15},
		{Seed: 5, FailRate: 0.05, StragglerRate: 0.05, StragglerFactor: 6, CorruptRate: 0.05, MaxAttempts: 6,
			Outages: []cluster.WorkerOutage{{Worker: 2, From: 0, Until: 500 * time.Millisecond}}},
	}
	recovered := 0
	for _, fp := range schedules {
		for _, q := range watdiv.BasicQuerySet() {
			opts := core.QueryOptions{NoPlanCache: true, Faults: fp}
			base, err := store.Query(q.Parsed, opts)
			if err != nil {
				t.Fatalf("seed %d %s single-process: %v", fp.Seed, q.Name, err)
			}
			opts.Dist = coord
			res, err := store.Query(q.Parsed, opts)
			if err != nil {
				t.Fatalf("seed %d %s on 2 shards: %v", fp.Seed, q.Name, err)
			}
			if got, want := renderResult(res), renderResult(base); got != want {
				t.Errorf("seed %d %s on 2 shards: rows diverge from single-process", fp.Seed, q.Name)
			}
			if res.SimTime != base.SimTime || res.Resilience != base.Resilience {
				t.Errorf("seed %d %s on 2 shards: %v %+v, single-process %v %+v",
					fp.Seed, q.Name, res.SimTime, res.Resilience, base.SimTime, base.Resilience)
			}
			if base.Resilience.Recovered() {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no schedule recovered anything; the test checks nothing")
	}
}

// serveShort starts shard i of n with its read deadlines shortened to
// bound and returns the server and its address.
func serveShort(t *testing.T, store *core.Store, i, n int, bound time.Duration) (*Server, string) {
	t.Helper()
	srv, err := NewServer(store, i, n)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.hello, srv.frame = bound, bound
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestStalledPeersAreDropped: a peer that never says hello, or stops
// halfway through a frame before or after its handshake, loses its
// connection once the read deadline passes, instead of holding it open
// forever.
func TestStalledPeersAreDropped(t *testing.T) {
	store := testStore(t)
	const bound = 200 * time.Millisecond
	cases := map[string]func(t *testing.T, addr string) net.Conn{
		"silent before hello": func(t *testing.T, addr string) net.Conn {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		},
		"partial frame before hello": func(t *testing.T, addr string) net.Conn {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if _, err := c.Write([]byte(wire.Magic[:2])); err != nil {
				t.Fatal(err)
			}
			return c
		},
		"partial frame after hello": func(t *testing.T, addr string) net.Conn {
			coord, err := Dial(store, []string{addr})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			t.Cleanup(func() { coord.Close() })
			c := coord.conns[0].c
			if _, err := c.Write([]byte(wire.Magic[:2])); err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, open := range cases {
		t.Run(name, func(t *testing.T) {
			srv, addr := serveShort(t, store, 0, 1, bound)
			start := time.Now()
			c := open(t, addr)
			c.SetReadDeadline(start.Add(bound + 5*time.Second))
			_, err := c.Read(make([]byte, 1))
			var ne net.Error
			if err == nil || errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("read %v: the server kept the stalled connection", err)
			}
			if held := time.Since(start); held < bound {
				t.Errorf("dropped after %v, before the %v bound", held, bound)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				srv.mu.Lock()
				live := len(srv.conns)
				srv.mu.Unlock()
				if live == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d connections still registered", live)
				}
			}
		})
	}
}

// TestIdleCoordinatorKeepsItsConnection: the frame deadline starts at a
// frame's first byte, so a coordinator idle between queries for longer
// than both bounds still gets its next query answered.
func TestIdleCoordinatorKeepsItsConnection(t *testing.T) {
	store := testStore(t)
	const bound = 100 * time.Millisecond
	addrs := make([]string, 2)
	for i := range addrs {
		_, addrs[i] = serveShort(t, store, i, len(addrs), bound)
	}
	coord, err := Dial(store, addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { coord.Close() })
	q := watdiv.BasicQuerySet()[0]
	base, err := store.Query(q.Parsed, core.QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		time.Sleep(4 * bound)
		res, err := store.Query(q.Parsed, core.QueryOptions{NoPlanCache: true, Dist: coord})
		if err != nil {
			t.Fatalf("round %d after %v idle: %v", round, 4*bound, err)
		}
		if renderResult(res) != renderResult(base) {
			t.Fatalf("round %d: rows diverge from single-process", round)
		}
	}
}

// TestDurationQuantileNearestRank holds /stats' shardRTT quantiles to
// nearest rank: the q-quantile of n samples is the ceil(q·n)-th
// smallest, so the p99 of fewer than 100 samples is the largest. The
// samples are 1..n ms in descending order, so an unsorted read shows.
func TestDurationQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n        int
		p50, p99 time.Duration
	}{
		{1, 1, 1},
		{10, 5, 10},
		{100, 50, 99},
	} {
		samples := make([]time.Duration, c.n)
		for i := range samples {
			samples[i] = time.Duration(c.n-i) * time.Millisecond
		}
		for _, q := range []struct {
			q    float64
			want time.Duration
		}{{0.50, c.p50}, {0.99, c.p99}} {
			if got := durationQuantile(samples, q.q); got != q.want*time.Millisecond {
				t.Errorf("n=%d: q=%.2f is %v, want %v", c.n, q.q, got, q.want*time.Millisecond)
			}
		}
	}
	if got := durationQuantile(nil, 0.99); got != 0 {
		t.Errorf("no samples: p99 is %v, want 0", got)
	}
}
