package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/rdf"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50},
		{0.9, 46},    // rank 3.6: 40 + 0.6·10
		{0.25, 20},   // rank 1
		{0.67, 36.8}, // rank 2.68: 30 + 0.68·10
	} {
		if got := percentile(s, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", s, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median = %g, want 4", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1,10,100) = %g, want 10", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %g, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q3, 4.5) {
		t.Errorf("quartiles(3,1,4,1,5) = %g, %g, want 1, 4.5", q1, q3)
	}
}

func TestMedianPassAndMergedLatencies(t *testing.T) {
	win := &window{logs: []*clientLog{
		{passes: []int64{1e9, 3e9}, lat: [][]int64{{2e6, 4e6}, {9e6}}},
		{passes: []int64{2e9, 2e9, 10e9}, lat: [][]int64{{1e6}, {7e6, 8e6}}},
	}}
	if got := win.medianPassSeconds(); !near(got, 2) {
		t.Errorf("medianPassSeconds = %g, want 2", got)
	}
	lats := win.templateLatencies()
	if len(lats) != 2 || !near(percentile(lats[0], 0.5), 2) || !near(percentile(lats[1], 1), 9) {
		t.Errorf("templateLatencies = %v, want [[1 2 4] [7 8 9]]", lats)
	}
}

func TestScanStats(t *testing.T) {
	body := []byte(`{"head":{"vars":["x"]},"results":{"bindings":[
{"x":{"type":"literal","value":"\"stats\":{\"rows\":7"}}
]},"stats":{"rows":12,"simMs":300.637048,"wallMs":1.25e-05,"streamed":true}}
`)
	st, ok := scanStats(body)
	if !ok || st.rows != 12 || !near(st.simMs, 300.637048) || !near(st.wallMs, 1.25e-05) {
		t.Errorf("scanStats = %+v, %v", st, ok)
	}
	if _, ok := scanStats([]byte(`{"error":"boom"}`)); ok {
		t.Error("scanStats found stats in an error body")
	}
}

func TestHashRowsIgnoresOrderNotContent(t *testing.T) {
	a := []rdf.Term{rdf.NewIRI("http://x/a"), rdf.NewLiteral("1")}
	b := []rdf.Term{rdf.NewIRI("http://x/b"), rdf.NewTypedLiteral("1", rdf.XSDInteger)}
	if hashRows([][]rdf.Term{a, b}) != hashRows([][]rdf.Term{b, a}) {
		t.Error("row order changed the hash")
	}
	if hashRows([][]rdf.Term{a, b}) == hashRows([][]rdf.Term{a, a}) {
		t.Error("different rows hash alike")
	}
	// A datatype is part of the term: "1" and "1"^^xsd:integer differ.
	if hashRows([][]rdf.Term{{a[1]}}) == hashRows([][]rdf.Term{{b[1]}}) {
		t.Error("plain and typed literal hash alike")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	l := &spanLog{spans: make([]span, 0, 8)}
	root := l.add(-1, 1, "client.op", 0, 100)
	call := l.add(root, 1, "serve.roundtrip", 10, 80)
	l.add(call, 1, "core.query", 30, 60)
	l.add(root, 1, "verify", 80, 95)
	st := selfTimes([]*spanLog{l})
	for name, wantUs := range map[string]float64{"client.op": 0.015, "serve.roundtrip": 0.040, "core.query": 0.030, "verify": 0.015} {
		if got := st[name].TotalUs; !near(got, wantUs) {
			t.Errorf("self time of %s = %g us, want %g", name, got, wantUs)
		}
	}
}

func poolTexts(t *testing.T, s *spec, seed int64) []string {
	t.Helper()
	pool, err := buildPool(s.templates, s.pool, s.scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, insts := range pool {
		for _, in := range insts {
			texts = append(texts, in.text)
		}
	}
	return texts
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		a, b, c := poolTexts(t, s, 7), poolTexts(t, s, 7), poolTexts(t, s, 8)
		same, differs := true, false
		for j := range a {
			same = same && a[j] == b[j]
			differs = differs || a[j] != c[j]
		}
		if !same {
			t.Errorf("%s: seed 7 drew two different pools", s.name)
		}
		if !differs && s.path != pathLoad {
			t.Errorf("%s: seeds 7 and 8 drew the same pool", s.name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeConfig(seconds float64) config {
	return config{seed: 5, seconds: seconds, scale: 500, setups: 1, info: io.Discard}
}

func checkResult(t *testing.T, what string, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", what, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !metricName.MatchString(d.name):
			t.Errorf("%s: metric name %q is not a valid name", what, d.name)
		case !ok:
			t.Errorf("%s: metric %s missing", what, d.name)
		case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v %q, want a finite value in %q", what, d.name, m.Value, m.Unit, d.unit)
		}
	}
}

// TestSmokeEndToEnd runs every workload small and short and expects all
// end-to-end metrics, none of them zero, with no failed operation. One
// workload runs twice: the virtual clock and the storage size are
// functions of the inputs, so the same seed must reproduce them to the
// last digit.
func TestSmokeEndToEnd(t *testing.T) {
	t.Parallel() // beside TestSmokeTraced: they share nothing
	for i := range specs {
		s := &specs[i]
		res, err := runEndToEnd(s, smokeConfig(0.1))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkResult(t, s.name, res, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, name, m.Value)
			}
		}
		if s.name != "shard-2" {
			continue
		}
		again, err := runEndToEnd(s, smokeConfig(0.05))
		if err != nil {
			t.Fatalf("%s again: %v", s.name, err)
		}
		for _, name := range []string{"sim_ms_per_op", "store_bytes_per_triple"} {
			if res.Metrics[name].Value != again.Metrics[name].Value {
				t.Errorf("%s differs between two runs of one seed: %v vs %v", name, res.Metrics[name].Value, again.Metrics[name].Value)
			}
		}
	}
}

// TestSmokeTraced runs every workload's traced run small and short and
// expects every per-layer metric by name, the layers the workload's
// route crosses measured, one layer it does not cross left at 0, and a
// span file.
func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	crossed := map[string][]string{
		"join-mat":    {"core.exec_us", "core.scan_ns_per_row", "engine.join_kernel_ns_per_row", "plan.est_error_gm"},
		"join-stream": {"stream.exec_us", "stream.streamed_ratio", "engine.stream_probe_ns_per_row", "columnar.bytes_per_row"},
		"http-select": {"serve.roundtrip_us", "serve.resp_kb_per_op", "sparql.parse_us", "plan.cold_us", "core.exec_us"},
		"shard-2":     {"shard.exchanges_per_op", "shard.slowdown_x", "wire.frame_us_per_mb", "core.exec_us"},
		"load":        {"rdf.ntriples_parse_us_per_ktriple", "stats.collect_ms", "load.triples_per_s"},
	}
	notCrossed := map[string]string{
		"join-mat": "serve.roundtrip_us", "join-stream": "core.exec_us", "http-select": "shard.exchanges_per_op",
		"shard-2": "stream.exec_us", "load": "engine.probe_ns_per_row",
	}
	for i := range specs {
		s := &specs[i]
		cfg := smokeConfig(0.1)
		cfg.outDir = t.TempDir()
		res, err := runTraced(s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkResult(t, s.name+" traced", res, perLayer)
		for _, name := range append(crossed[s.name], "process.cpu_ms_per_op", "client.lat_p99_ms", "harness.overhead_us_per_op") {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", s.name, name, res.Metrics[name].Value)
			}
		}
		if name := notCrossed[s.name]; res.Metrics[name].Value != 0 {
			t.Errorf("%s: %s = %v, want 0 for a layer the route does not cross", s.name, name, res.Metrics[name].Value)
		}
		// One instance per template always hits the plan cache once
		// warm. (The pooled HTTP instances outnumber its entries, but a
		// window this short may not reach one that is not cached yet.)
		if hit := res.Metrics["plan.cache_hit_ratio"].Value; s.pool == 0 && s.path != pathLoad && hit != 1 {
			t.Errorf("%s: plan.cache_hit_ratio = %v, want 1", s.name, hit)
		}
		b, err := os.ReadFile(cfg.outDir + "/trace-" + s.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil || len(tf.Phases) == 0 || len(tf.Phases[0].Spans[0]) == 0 {
			t.Errorf("%s: span file has %d phases (err %v), want spans", s.name, len(tf.Phases), err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the tables the harness prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the harness's default window is %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, the harness's is %q", i, w.Name, specs[i].name)
		}
	}
	for _, c := range []struct {
		what string
		json []metric
		defs []metricDef
	}{{"end-to-end", doc.EndToEnd, endToEnd}, {"per-layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(c.json), c.what, len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: %+v does not match the harness's %+v", c.what, i, m, d)
			}
		}
	}
}
