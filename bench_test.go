package repro

// Benchmarks regenerating the paper's evaluation artifacts, one per
// table and figure, plus the DESIGN.md ablations and micro-benchmarks
// of the core data structures. Each benchmark reports the simulated
// cluster time ("simms/op": the quantity comparable to the paper's
// numbers) alongside Go's wall-clock measurement of the simulation.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// A shared WatDiv fixture (scale 400, extrapolated to the paper's 100M
// triples) is loaded once into all four systems on first use.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

const (
	benchScale       = 400
	benchSeed        = 42
	benchExtrapolate = 100_000_000
)

var (
	fixtureOnce sync.Once
	fixtureSys  *bench.Systems
	fixtureErr  error
)

func systems(b *testing.B) *bench.Systems {
	b.Helper()
	fixtureOnce.Do(func() {
		g := watdiv.MustGenerate(watdiv.Config{Scale: benchScale, Seed: benchSeed})
		fixtureSys, fixtureErr = bench.LoadAll(g, bench.LoadOptions{
			InversePT:          true,
			ExtrapolateTriples: benchExtrapolate,
		})
	})
	if fixtureErr != nil {
		b.Fatalf("LoadAll: %v", fixtureErr)
	}
	return fixtureSys
}

// reportSim attaches the simulated time as a custom metric.
func reportSim(b *testing.B, total time.Duration, n int) {
	b.Helper()
	b.ReportMetric(float64(total.Milliseconds())/float64(n), "simms/op")
}

// BenchmarkTable1Loading regenerates Table 1: it loads the WatDiv
// dataset into all four systems and reports each system's simulated
// loading time.
func BenchmarkTable1Loading(b *testing.B) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: benchScale, Seed: benchSeed})
	b.ResetTimer()
	var lastSim time.Duration
	for i := 0; i < b.N; i++ {
		sys, err := bench.LoadAll(g, bench.LoadOptions{ExtrapolateTriples: benchExtrapolate})
		if err != nil {
			b.Fatal(err)
		}
		lastSim = 0
		for _, row := range sys.Loads() {
			lastSim += row.LoadTime
		}
	}
	reportSim(b, lastSim*time.Duration(b.N), b.N)
}

// BenchmarkFigure2MixedVsVP regenerates Figure 2: the 20 WatDiv queries
// on PRoST under VP-only and mixed strategies.
func BenchmarkFigure2MixedVsVP(b *testing.B) {
	sys := systems(b)
	queries := watdiv.BasicQuerySet()
	b.ResetTimer()
	var sim time.Duration
	for i := 0; i < b.N; i++ {
		fig, err := sys.Figure2(queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			for _, v := range s.Values {
				sim += v
			}
		}
	}
	reportSim(b, sim, b.N)
}

// BenchmarkFigure3Systems regenerates Figure 3, with one sub-benchmark
// per system running the full 20-query set.
func BenchmarkFigure3Systems(b *testing.B) {
	sys := systems(b)
	queries := watdiv.BasicQuerySet()
	for _, name := range bench.SystemNames() {
		b.Run(name, func(b *testing.B) {
			var sim time.Duration
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					out, err := sys.RunOn(name, q.Parsed)
					if err != nil {
						b.Fatal(err)
					}
					sim += out.SimTime
				}
			}
			reportSim(b, sim, b.N)
		})
	}
}

// BenchmarkTable2Averages regenerates Table 2 (group averages over a
// full Figure 3 run).
func BenchmarkTable2Averages(b *testing.B) {
	sys := systems(b)
	queries := watdiv.BasicQuerySet()
	b.ResetTimer()
	var sim time.Duration
	for i := 0; i < b.N; i++ {
		fig, err := sys.Figure3(queries)
		if err != nil {
			b.Fatal(err)
		}
		tbl := bench.Table2(fig, queries)
		if len(tbl.Rows) != 4 {
			b.Fatalf("Table 2 has %d groups", len(tbl.Rows))
		}
		for _, s := range fig.Series {
			for _, v := range s.Values {
				sim += v
			}
		}
	}
	reportSim(b, sim, b.N)
}

// BenchmarkAblationJoinOrder measures the §3.3 statistics-based node
// ordering against naive written-order execution (ablation A1).
func BenchmarkAblationJoinOrder(b *testing.B) {
	sys := systems(b)
	queries := watdiv.BasicQuerySet()
	b.ResetTimer()
	var sim time.Duration
	for i := 0; i < b.N; i++ {
		fig, err := sys.AblationJoinOrder(queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			for _, v := range s.Values {
				sim += v
			}
		}
	}
	reportSim(b, sim, b.N)
}

// BenchmarkAblationBroadcast measures Catalyst-style broadcast-join
// selection on versus off (ablation A2).
func BenchmarkAblationBroadcast(b *testing.B) {
	sys := systems(b)
	queries := watdiv.BasicQuerySet()
	b.ResetTimer()
	var sim time.Duration
	for i := 0; i < b.N; i++ {
		fig, err := sys.AblationBroadcast(queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			for _, v := range s.Values {
				sim += v
			}
		}
	}
	reportSim(b, sim, b.N)
}

// BenchmarkExtensionInversePT measures the future-work object-keyed
// Property Table on object-star queries (extension E1).
func BenchmarkExtensionInversePT(b *testing.B) {
	sys := systems(b)
	queries := bench.ObjectStarQueries()
	b.ResetTimer()
	var sim time.Duration
	for i := 0; i < b.N; i++ {
		fig, err := sys.ExtensionInversePT(queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			for _, v := range s.Values {
				sim += v
			}
		}
	}
	reportSim(b, sim, b.N)
}

// BenchmarkQueryPerShape runs one representative query per WatDiv shape
// on PRoST's mixed strategy.
func BenchmarkQueryPerShape(b *testing.B) {
	sys := systems(b)
	for _, name := range []string{"C2", "F3", "L4", "S2"} {
		q, err := watdiv.QueryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var sim time.Duration
			for i := 0; i < b.N; i++ {
				out, err := sys.RunOn(bench.SysPRoST, q.Parsed)
				if err != nil {
					b.Fatal(err)
				}
				sim += out.SimTime
			}
			reportSim(b, sim, b.N)
		})
	}
}

// --- micro-benchmarks of the substrates -----------------------------

// BenchmarkSPARQLParse measures the SPARQL parser on the largest
// benchmark query.
func BenchmarkSPARQLParse(b *testing.B) {
	q, err := watdiv.QueryByName("C1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(q.Text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNTriplesParse measures the N-Triples reader.
func BenchmarkNTriplesParse(b *testing.B) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 200, Seed: 1})
	var sb strings.Builder
	if err := rdf.WriteNTriples(&sb, g); err != nil {
		b.Fatal(err)
	}
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.ParseNTriples(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColumnarRLE measures the Parquet-lite codec on a NULL-dense
// Property Table column.
func BenchmarkColumnarRLE(b *testing.B) {
	vals := make([]rdf.ID, 100_000)
	for i := 0; i < len(vals); i += 50 {
		vals[i] = rdf.ID(i + 1)
	}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := columnar.EncodeIDs(vals)
		if _, err := c.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineShuffleJoin measures a 10k×10k shuffle hash join on
// the simulated cluster.
func BenchmarkEngineShuffleJoin(b *testing.B) {
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	left := make([]engine.Row, 10_000)
	right := make([]engine.Row, 10_000)
	for i := range left {
		left[i] = engine.Row{rdf.ID(i + 1), rdf.ID(i%100 + 1)}
		right[i] = engine.Row{rdf.ID(i%100 + 1), rdf.ID(i + 1)}
	}
	l, err := engine.Partition(engine.Schema{"a", "b"}, left, "a", 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := engine.Partition(engine.Schema{"b", "c"}, right, "b", 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.NewExec(c, cluster.NewClock())
		e.BroadcastThreshold = -1
		if _, err := e.Join(l, r, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPTScan measures a Property Table star scan on PRoST.
func BenchmarkPTScan(b *testing.B) {
	sys := systems(b)
	q, err := watdiv.QueryByName("S2")
	if err != nil {
		b.Fatal(err)
	}
	tree, err := sys.PRoST.Translate(q.Parsed, core.StrategyMixed)
	if err != nil {
		b.Fatal(err)
	}
	if tree.Root().Kind != core.NodePT {
		b.Fatalf("S2 did not translate to a PT node:\n%s", tree)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.PRoST.Query(q.Parsed, core.QueryOptions{Strategy: core.StrategyMixed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVScanPrefix measures mini-Accumulo prefix scans (Rya's
// lookup primitive).
func BenchmarkKVScanPrefix(b *testing.B) {
	st := kv.NewStore(0)
	for i := 0; i < 100_000; i++ {
		st.Put([]byte("spo\x1fsubject"+itoa(i%1000)+"\x1fpred\x1fobj"+itoa(i)), nil)
	}
	st.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := st.ScanPrefix([]byte("spo\x1fsubject" + itoa(i%1000) + "\x1f"))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
