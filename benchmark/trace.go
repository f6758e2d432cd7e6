package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
)

// span is one timed interval of a traced operation: a call the harness
// made into a layer, or (synthetic) an interval a layer reported about
// itself. Spans of one operation share Op; Parent is the span that
// caused this one, -1 for the operation's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// maxSpans bounds each client's span buffer, allocated before the
// window opens; spans past it are counted, not kept.
const maxSpans = 1 << 17

// spanLog is one client's spans. IDs are indexes into spans.
type spanLog struct {
	spans   []span
	ops     int32
	dropped int
}

func (l *spanLog) add(parent, op int32, name string, start, end int64) int32 {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// layerStats accumulates what the operations of one traced window
// reported about the layers they crossed.
type layerStats struct {
	ops, failed int
	engineNs    []int64 // the engine's own wall time per op
	callNs      []int64 // the harness's call into the path, per op
	overheadNs  []int64 // HTTP: round trip minus the engine's wall time
	respBytes   int64
	shed        int

	scanRows, joinRows, resultRows int64
	simScan, simJoin, simOther     time.Duration
	netBytes, diskBytes            int64
	peakMem                        int64
	replans, streamed              int
	firstRow                       time.Duration
	estErrLog                      float64
	estErrN                        int
}

// phase observes one traced window: it implements observer, keeping a
// span log per client (so recording a span takes no lock) and one
// layerStats under a mutex.
type phase struct {
	path  path
	t0    time.Time
	logs  []*spanLog
	mu    sync.Mutex
	stats layerStats
	win   *window
	cache core.CacheMetrics // plan-cache delta over the window
	net   core.NetworkStats // coordinator delta over the window
}

// callSpan names the span around the harness's call into each path.
var callSpan = [...]string{"core.query", "stream.query", "serve.roundtrip", "shard.query", "core.load"}

func newPhase(p path, clients int) *phase {
	ph := &phase{path: p, t0: time.Now()}
	for c := 0; c < clients; c++ {
		ph.logs = append(ph.logs, &spanLog{spans: make([]span, 0, maxSpans)})
	}
	return ph
}

func (ph *phase) begin(c int) int32 {
	l := ph.logs[c]
	l.ops++
	return l.add(-1, l.ops, "client.op", int64(time.Since(ph.t0)), 0)
}

// end closes the operation's root span and files its children: the
// call into the path (from the loop's own timestamps), for HTTP the
// server's core.query interval synthesised from stats.wallMs and
// centred in the round trip, and the verification that followed.
func (ph *phase) end(c int, id int32, in *instance, out *outcome, err error, callStart time.Time, call time.Duration) {
	now := int64(time.Since(ph.t0))
	l := ph.logs[c]
	if id >= 0 {
		l.spans[id].End = now
		s0 := int64(callStart.Sub(ph.t0))
		s1 := s0 + int64(call)
		cid := l.add(id, l.ops, callSpan[ph.path], s0, s1)
		if ph.path == pathHTTP && err == nil && cid >= 0 {
			pad := max((int64(call)-out.wallNs)/2, 0)
			l.add(cid, l.ops, "core.query", s0+pad, min(s0+pad+out.wallNs, s1))
		}
		l.add(id, l.ops, "verify", s1, now)
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	st := &ph.stats
	st.ops++
	if err != nil {
		st.failed++
		if se, ok := err.(statusError); ok && int(se) == 503 {
			st.shed++
		}
		return
	}
	st.engineNs = append(st.engineNs, out.wallNs)
	st.callNs = append(st.callNs, int64(call))
	if ph.path == pathHTTP {
		st.overheadNs = append(st.overheadNs, int64(call)-out.wallNs)
		st.respBytes += int64(out.bytes)
	}
	if out.res != nil && ph.path != pathLoad {
		st.observe(out.res)
	}
}

// observe reads the layer record a query result carries: actual rows
// per plan node, the priced stages of the virtual clock, and the
// executor's own counters.
func (st *layerStats) observe(res *core.Result) {
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.Actual > 0 {
			switch n.Op {
			case plan.OpScan:
				st.scanRows += n.Actual
			case plan.OpJoin, plan.OpLeftJoin, plan.OpUnion:
				st.joinRows += n.Actual
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(res.Plan.Root)
	st.resultRows += int64(len(res.Rows))
	for _, sr := range res.Clock.Stages() {
		switch stageClass(sr) {
		case "scan":
			st.simScan += sr.Elapsed
		case "join":
			st.simJoin += sr.Elapsed
		default:
			st.simOther += sr.Elapsed
		}
		st.netBytes += sr.Stats.NetBytes
		st.diskBytes += sr.Stats.DiskBytes
	}
	st.peakMem = max(st.peakMem, res.PeakMemBytes)
	st.replans += len(res.Replans)
	if res.Streamed {
		st.streamed++
		st.firstRow += res.FirstRow
	}
	if ratio, at := res.Plan.MaxErrorRatio(); at != nil {
		st.estErrLog += math.Log(ratio)
		st.estErrN++
	}
}

// stageClass sorts a priced stage by its name: leaf reads ("scan …",
// and the streaming executor's fused "pipeline …" stages, which start
// at a leaf), joins of any method, and everything else (planning,
// project, distinct, top-K, aggregate, collect).
func stageClass(sr cluster.StageRecord) string {
	switch {
	case strings.HasPrefix(sr.Name, "scan"), strings.HasPrefix(sr.Name, "pipeline"):
		return "scan"
	case strings.Contains(sr.Name, "join"), strings.Contains(sr.Name, "cartesian"):
		return "join"
	default:
		return "other"
	}
}

// runPhase runs one traced window down a path and records the
// plan-cache and coordinator deltas around it.
func runPhase(w *world, p path, pool [][]*instance, clients int, dur time.Duration, seed int64) *phase {
	ph := newPhase(p, clients)
	cacheBefore := w.store.PlanCacheMetrics()
	var netBefore core.NetworkStats
	if w.coord != nil {
		netBefore = w.coord.NetworkStats()
	}
	ph.win = runWindow(w, p, pool, clients, dur, seed, ph)
	after := w.store.PlanCacheMetrics()
	ph.cache = core.CacheMetrics{
		Hits:      after.Hits - cacheBefore.Hits,
		Misses:    after.Misses - cacheBefore.Misses,
		Evictions: after.Evictions - cacheBefore.Evictions,
	}
	if w.coord != nil {
		ph.net = w.coord.NetworkStats()
		ph.net.Exchanges -= netBefore.Exchanges
		ph.net.BytesSent -= netBefore.BytesSent
		ph.net.BytesReceived -= netBefore.BytesReceived
	}
	return ph
}

// selfTime is a span name's time not covered by its children.
type selfTime struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	MeanUs  float64 `json:"mean_us"`
}

// selfTimes computes, per span name, duration minus the part of it the
// span's children cover. Children of one parent do not overlap here
// (the harness calls layers one after another), so covered time is the
// sum of the children's durations clipped to the parent.
func selfTimes(logs []*spanLog) map[string]selfTime {
	out := map[string]selfTime{}
	for _, l := range logs {
		covered := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				p := l.spans[s.Parent]
				covered[s.Parent] += max(min(s.End, p.End)-max(s.Start, p.Start), 0)
			}
		}
		for i, s := range l.spans {
			st := out[s.Name]
			st.Count++
			st.TotalUs += float64(s.End-s.Start-covered[i]) / 1e3
			out[s.Name] = st
		}
	}
	for name, st := range out {
		st.MeanUs = st.TotalUs / float64(st.Count)
		out[name] = st
	}
	return out
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload    string       `json:"workload"`
	Seed        int64        `json:"seed"`
	Environment string       `json:"environment"`
	Phases      []tracePhase `json:"phases"`
}

type tracePhase struct {
	Path     string              `json:"path"`
	Clients  int                 `json:"clients"`
	Ops      int                 `json:"ops"`
	Dropped  int                 `json:"dropped_spans"`
	SelfTime map[string]selfTime `json:"self_time"`
	// Spans holds each client's spans; ids and parents are indexes into
	// the client's own list.
	Spans [][]span `json:"spans"`
}

func writeTrace(dir string, s *spec, seed int64, phases []*phase) (string, error) {
	tf := traceFile{Workload: s.name, Seed: seed, Environment: environment()}
	for _, ph := range phases {
		tp := tracePhase{Path: ph.path.String(), Clients: len(ph.logs), SelfTime: selfTimes(ph.logs)}
		for _, l := range ph.logs {
			tp.Ops += int(l.ops)
			tp.Dropped += l.dropped
			tp.Spans = append(tp.Spans, l.spans)
		}
		tf.Phases = append(tf.Phases, tp)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, "trace-"+s.name+".json")
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}

// describeSelfTimes renders a phase's self-time table for the info
// stream, largest total first.
func describeSelfTimes(st map[string]selfTime) string {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].TotalUs > st[names[j]].TotalUs })
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %.1f us × %d", n, st[n].MeanUs, st[n].Count)
	}
	return strings.Join(parts, ", ")
}
