package bench

// Chaos harness for the fault-tolerant scheduler: seeded fault
// schedules (isolated task failures, a 10% straggler tail, corrupted
// exchange payloads, and all of them at once) run the WatDiv basic set under every planner mode and must
// leave results byte-identical to the fault-free run, with the
// virtual-clock overhead bounded by the priced recovery cost. Run with
//
//	go test ./internal/bench -run Chaos -race
//	go test ./internal/bench -bench Chaos -benchtime 1x

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/watdiv"
)

// chaosFixture is a PRoST-only store small enough to sweep schedules ×
// queries × planner modes quickly; the heavyweight Systems fixture is
// deliberately not reused here.
var (
	chaosOnce sync.Once
	chaosFix  *core.Store
	chaosErr  error
)

func chaosStore(tb testing.TB) *core.Store {
	tb.Helper()
	chaosOnce.Do(func() {
		g := watdiv.MustGenerate(watdiv.Config{Scale: 150, Seed: 11})
		c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
		chaosFix, chaosErr = core.Load(g, core.Options{Cluster: c})
	})
	if chaosErr != nil {
		tb.Fatalf("loading chaos fixture: %v", chaosErr)
	}
	return chaosFix
}

// chaosSchedules are the seeded fault schedules the harness sweeps.
// Every decision in a schedule is a pure hash of (seed, task), so each
// entry is one reproducible disaster.
var chaosSchedules = []struct {
	name string
	fp   *cluster.FaultPlan
}{
	{"single-failures", &cluster.FaultPlan{Seed: 1, FailRate: 0.05}},
	{"stragglers-10pct", &cluster.FaultPlan{Seed: 3, StragglerRate: 0.10, StragglerFactor: 6}},
	{"corrupted-exchange", &cluster.FaultPlan{Seed: 4, CorruptRate: 0.15}},
	{"kitchen-sink", &cluster.FaultPlan{
		Seed: 5, FailRate: 0.05, StragglerRate: 0.05, StragglerFactor: 6, CorruptRate: 0.05,
	}},
}

var chaosModes = []struct {
	name string
	mode plan.Mode
}{
	{"cost", plan.ModeCost},
	{"cost-leftdeep", plan.ModeCostLeftDeep},
	{"heuristic", plan.ModeHeuristic},
	{"naive", plan.ModeNaive},
}

// chaosRender canonicalizes a result for byte-exact comparison.
func chaosRender(res *core.Result) string {
	var sb strings.Builder
	for _, row := range res.SortedRows() {
		for i, term := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(term.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestChaosSchedulesPreserveResults is the core chaos sweep: every
// schedule × planner mode × basic query must produce byte-identical
// rows to the fault-free run, and the virtual clock may exceed the
// fault-free run only by the recovery cost the scheduler priced in.
// Static plans (NoPlanCache) keep the bound exact — the clean run cannot
// correct the plan the faulted runs execute.
func TestChaosSchedulesPreserveResults(t *testing.T) {
	s := chaosStore(t)
	queries := watdiv.BasicQuerySet()
	for _, m := range chaosModes {
		clean := make(map[string]*core.Result, len(queries))
		for _, q := range queries {
			res, err := s.Query(q.Parsed, core.QueryOptions{Planner: m.mode, NoPlanCache: true})
			if err != nil {
				t.Fatalf("%s/%s clean: %v", m.name, q.Name, err)
			}
			clean[q.Name] = res
		}
		for _, sched := range chaosSchedules {
			recovered := int64(0)
			for _, q := range queries {
				opts := core.QueryOptions{
					Planner:     m.mode,
					NoPlanCache: true,
					Faults:      sched.fp,
				}
				res, err := s.Query(q.Parsed, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", sched.name, m.name, q.Name, err)
				}
				base := clean[q.Name]
				if got, want := chaosRender(res), chaosRender(base); got != want {
					t.Errorf("%s/%s/%s: rows differ from fault-free run", sched.name, m.name, q.Name)
				}
				overhead := res.SimTime - base.SimTime
				if overhead < 0 {
					t.Errorf("%s/%s/%s: fault run faster than clean (%v vs %v)",
						sched.name, m.name, q.Name, res.SimTime, base.SimTime)
				}
				if overhead > res.Resilience.RecoveryTime {
					t.Errorf("%s/%s/%s: SimTime overhead %v exceeds priced recovery %v",
						sched.name, m.name, q.Name, overhead, res.Resilience.RecoveryTime)
				}
				if res.Resilience.Recovered() {
					recovered++
				}
			}
			if recovered == 0 {
				t.Errorf("%s/%s: schedule injected nothing across %d queries; it tests nothing",
					sched.name, m.name, len(queries))
			}
		}
	}
}

// TestChaosDeterministicReplay re-runs every schedule and requires the
// identical recovery record and virtual clock: a fault schedule is a
// pure function of (seed, plan, data), never of goroutine interleaving.
func TestChaosDeterministicReplay(t *testing.T) {
	s := chaosStore(t)
	queries := watdiv.BasicQuerySet()[:6]
	for _, sched := range chaosSchedules {
		for _, q := range queries {
			opts := core.QueryOptions{
				NoPlanCache: true,
				Faults:      sched.fp,
			}
			a, err := s.Query(q.Parsed, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", sched.name, q.Name, err)
			}
			b, err := s.Query(q.Parsed, opts)
			if err != nil {
				t.Fatalf("%s/%s replay: %v", sched.name, q.Name, err)
			}
			if a.SimTime != b.SimTime {
				t.Errorf("%s/%s: replay SimTime %v != %v", sched.name, q.Name, b.SimTime, a.SimTime)
			}
			if a.Resilience != b.Resilience {
				t.Errorf("%s/%s: replay recovery record differs:\n%+v\nvs\n%+v",
					sched.name, q.Name, b.Resilience, a.Resilience)
			}
		}
	}
}

// TestChaosAdaptiveRowsIdentical runs the schedules through the plan
// cache, where executions may correct the entries later ones run (so no
// timing bound here), but the rows must still be byte-identical to the
// fault-free cached run.
func TestChaosAdaptiveRowsIdentical(t *testing.T) {
	s := chaosStore(t)
	queries := watdiv.BasicQuerySet()[:6]
	for _, sched := range chaosSchedules {
		for _, q := range queries {
			base, err := s.Query(q.Parsed, core.QueryOptions{})
			if err != nil {
				t.Fatalf("%s/%s clean: %v", sched.name, q.Name, err)
			}
			res, err := s.Query(q.Parsed, core.QueryOptions{Faults: sched.fp})
			if err != nil {
				t.Fatalf("%s/%s: %v", sched.name, q.Name, err)
			}
			if got, want := chaosRender(res), chaosRender(base); got != want {
				t.Errorf("%s/%s: cached rows differ under faults", sched.name, q.Name)
			}
		}
	}
}

// BenchmarkChaosRecovery reports the virtual-clock cost of each fault
// schedule on a join-heavy query, next to its fault-free baseline —
// sim-ms/op is the simulated latency including recovery, recovery-ms
// the slice of it the fault schedule caused.
func BenchmarkChaosRecovery(b *testing.B) {
	s := chaosStore(b)
	q, err := watdiv.QueryByName("F1")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, fp *cluster.FaultPlan) {
		var sim, rec int64
		for i := 0; i < b.N; i++ {
			res, err := s.Query(q.Parsed, core.QueryOptions{
				NoPlanCache: true,
				Faults:      fp,
			})
			if err != nil {
				b.Fatal(err)
			}
			sim += int64(res.SimTime)
			rec += int64(res.Resilience.RecoveryTime)
		}
		b.ReportMetric(float64(sim)/float64(b.N)/1e6, "sim-ms/op")
		b.ReportMetric(float64(rec)/float64(b.N)/1e6, "recovery-ms/op")
	}
	b.Run("fault-free", func(b *testing.B) { run(b, nil) })
	for _, sched := range chaosSchedules {
		b.Run(sched.name, func(b *testing.B) { run(b, sched.fp) })
	}
}

// TestReleasedRegionsPoisoned runs the chaos schedules with
// engine.PoisonReleased on: every operator of a faulted query works in
// the query's region, and none of them may read it after the query
// released it.
func TestReleasedRegionsPoisoned(t *testing.T) {
	defer engine.PoisonReleased(engine.PoisonReleased(true))
	t.Run("PreserveResults", TestChaosSchedulesPreserveResults)
	t.Run("DeterministicReplay", TestChaosDeterministicReplay)
	t.Run("AdaptiveRowsIdentical", TestChaosAdaptiveRowsIdentical)
}

// frozenFaultedMatrix is the FNV-1a digest of every faulted cell's
// SimTime (ns) and recovery record. The schedules' priced
// recovery has not moved since the materialized scheduler re-executed
// each attempt and recomputed corrupted inputs from lineage for real;
// the digest changed only with the set of schedules it covers.
const frozenFaultedMatrix = 0x160b168c92e4d313

// TestFaultedMatrixFrozen holds the priced recovery of every chaos
// schedule, plus one that corrupts every delivery, to the frozen digest
// on both executors, under every planner, on the basic query set.
func TestFaultedMatrixFrozen(t *testing.T) {
	s := chaosStore(t)
	var plans []*cluster.FaultPlan
	for _, sched := range chaosSchedules {
		plans = append(plans, sched.fp)
	}
	plans = append(plans, &cluster.FaultPlan{Seed: 6, CorruptRate: 1})
	h := fnv.New64a()
	var buf []byte
	put := func(vals ...int64) {
		buf = buf[:0]
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	for _, fp := range plans {
		for _, m := range chaosModes {
			for _, streaming := range []bool{false, true} {
				for _, q := range watdiv.BasicQuerySet() {
					res, err := s.Query(q.Parsed, core.QueryOptions{
						Planner:     m.mode,
						NoPlanCache: true,
						Faults:      fp,
						Streaming:   streaming,
					})
					if err != nil {
						t.Fatalf("%s (streaming %v) under %+v: %v", q.Name, streaming, fp, err)
					}
					r := res.Resilience
					put(int64(res.SimTime), r.Attempts, r.Retries, r.Stragglers, r.SpeculativeLaunched,
						r.SpeculativeWins, r.ChecksumFailures, r.LineageRecomputes, int64(r.RecoveryTime))
				}
			}
		}
	}
	if got := h.Sum64(); got != frozenFaultedMatrix {
		t.Errorf("the faulted matrix digests to %#x, frozen %#x: a priced recovery moved", got, uint64(frozenFaultedMatrix))
	}
}
