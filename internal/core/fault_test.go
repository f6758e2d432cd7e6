package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// faultTestQuery joins three patterns so the plan has several tasks to
// fail, straggle and corrupt.
const faultTestQuery = `
SELECT ?u ?v ?p WHERE {
  ?u <http://example.org/follows> ?v .
  ?v <http://example.org/likes> ?p .
  ?p <http://example.org/hasGenre> ?g .
}`

// faultRun executes the query's static plan (NoPlanCache: exact
// recovery accounting compares runs of one plan, which no earlier
// execution may have corrected) with the given fault fields.
func faultRun(t *testing.T, s *Store, fp *cluster.FaultPlan, tweak func(*QueryOptions)) *Result {
	t.Helper()
	opts := QueryOptions{NoPlanCache: true, Faults: fp}
	if tweak != nil {
		tweak(&opts)
	}
	res, err := s.Query(sparql.MustParse(faultTestQuery), opts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	return res
}

func TestFaultInactivePlanStaysOnFastPath(t *testing.T) {
	s := testStore(t, false)
	clean := faultRun(t, s, nil, nil)
	inactive := faultRun(t, s, &cluster.FaultPlan{Seed: 5}, nil)
	if inactive.Resilience.Attempts != 0 {
		t.Errorf("inactive plan recorded %d attempts; resilience bookkeeping leaked onto the fast path", inactive.Resilience.Attempts)
	}
	if inactive.SimTime != clean.SimTime {
		t.Errorf("inactive plan SimTime %v != clean %v", inactive.SimTime, clean.SimTime)
	}
	if m := s.ResilienceMetrics(); m != (cluster.Recovery{}) {
		t.Errorf("store resilience counters moved without faults: %+v", m)
	}
}

func TestFaultActiveButQuietKeepsSimTime(t *testing.T) {
	s := testStore(t, false)
	clean := faultRun(t, s, nil, nil)
	// Active plan (outage on a worker index the 3-worker cluster never
	// assigns) whose schedule hits nothing: recovery pricing and attempt
	// bookkeeping run, but the clock must be untouched.
	quiet := faultRun(t, s, &cluster.FaultPlan{
		Seed:    5,
		Outages: []cluster.WorkerOutage{{Worker: 7, From: 0, Until: time.Hour}},
	}, nil)
	if quiet.Resilience.Attempts == 0 {
		t.Fatal("active plan recorded no attempts; resilience path did not run")
	}
	if quiet.Resilience.Recovered() {
		t.Fatalf("quiet plan reported recovery: %+v", quiet.Resilience)
	}
	if quiet.SimTime != clean.SimTime {
		t.Errorf("quiet fault run SimTime %v != clean %v", quiet.SimTime, clean.SimTime)
	}
	if got, want := renderRows(quiet), renderRows(clean); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("rows differ under quiet fault plan: %v vs %v", got, want)
	}
}

func TestFaultRetryRecoversWithBoundedOverhead(t *testing.T) {
	s := testStore(t, false)
	clean := faultRun(t, s, nil, nil)
	res := faultRun(t, s, &cluster.FaultPlan{Seed: 3, FailRate: 1, MaxFailuresPerTask: 2}, nil)

	if got, want := renderRows(res), renderRows(clean); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rows differ after retries: %v vs %v", got, want)
	}
	if res.Resilience.Retries == 0 {
		t.Fatal("FailRate=1 produced no retries")
	}
	overhead := res.SimTime - clean.SimTime
	if overhead <= 0 {
		t.Fatalf("retried run not slower: fault %v vs clean %v", res.SimTime, clean.SimTime)
	}
	if overhead > res.Resilience.RecoveryTime {
		t.Fatalf("SimTime overhead %v exceeds priced recovery %v", overhead, res.Resilience.RecoveryTime)
	}
	// Every task failed exactly twice, so EXPLAIN renders attempts=3 on
	// every operator.
	if !strings.Contains(res.Plan.String(), "attempts=3") {
		t.Errorf("executed plan does not render attempt counts:\n%s", res.Plan)
	}
}

func TestFaultExhaustionSurfacesTaskFailedError(t *testing.T) {
	s := testStore(t, false)
	fp := &cluster.FaultPlan{Seed: 3, FailRate: 1, MaxFailuresPerTask: 100, MaxAttempts: 3}
	opts := QueryOptions{NoPlanCache: true, Faults: fp}
	_, err := s.Query(sparql.MustParse(faultTestQuery), opts)
	if err == nil {
		t.Fatal("exhausted attempts did not fail the query")
	}
	var tf *TaskFailedError
	if !errors.As(err, &tf) {
		t.Fatalf("error is %T (%v), want *TaskFailedError", err, err)
	}
	if len(tf.Attempts) != 3 {
		t.Errorf("attempt trace has %d entries, want 3: %v", len(tf.Attempts), tf.Attempts)
	}
	for _, a := range tf.Attempts {
		if a.Outcome != cluster.AttemptFailed {
			t.Errorf("attempt %d outcome %q, want %q", a.Attempt, a.Outcome, cluster.AttemptFailed)
		}
	}
	var abort QueryAbort
	if !errors.As(err, &abort) {
		t.Fatal("TaskFailedError does not satisfy QueryAbort")
	}
	if completed, total := abort.AbortProgress(); total == 0 || completed >= total {
		t.Errorf("AbortProgress = %d/%d, want partial progress", completed, total)
	}
	if s.ResilienceMetrics().TasksFailed == 0 {
		t.Error("store did not count the permanently failed task")
	}
}

func TestFaultWorkerOutageReschedulesAcrossWorkers(t *testing.T) {
	s := testStore(t, false)
	clean := faultRun(t, s, nil, nil)
	// Workers 0 and 1 dead for the whole run (of 3): attempt rotation
	// guarantees every task reaches worker 2 within three attempts.
	res := faultRun(t, s, &cluster.FaultPlan{Seed: 11, Outages: []cluster.WorkerOutage{
		{Worker: 0, From: 0, Until: time.Hour},
		{Worker: 1, From: 0, Until: time.Hour},
	}}, nil)
	if got, want := renderRows(res), renderRows(clean); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rows differ after outage recovery: %v vs %v", got, want)
	}
	if res.Resilience.Retries == 0 {
		t.Fatal("two dead workers of three produced no retries")
	}
	if overhead := res.SimTime - clean.SimTime; overhead > res.Resilience.RecoveryTime {
		t.Fatalf("SimTime overhead %v exceeds priced recovery %v", overhead, res.Resilience.RecoveryTime)
	}
}

func TestFaultCorruptExchangeRecomputesFromLineage(t *testing.T) {
	s := testStore(t, false)
	clean := faultRun(t, s, nil, nil)
	// Every delivery corrupted, the root's to the driver included; the
	// eager release policy has already freed consumed inputs, so each
	// recovery is priced as the producer's whole lineage subtree, down
	// to re-reading the store.
	res := faultRun(t, s, &cluster.FaultPlan{Seed: 9, CorruptRate: 1}, nil)
	if got, want := renderRows(res), renderRows(clean); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rows differ after lineage recompute: %v vs %v", got, want)
	}
	var nodes, lineage int64
	var walk func(n *plan.Node) int64
	walk = func(n *plan.Node) int64 {
		size := int64(1)
		for _, c := range n.Children {
			size += walk(c)
		}
		nodes, lineage = nodes+1, lineage+size
		return size
	}
	walk(res.Plan.Root)
	if r := res.Resilience; r.ChecksumFailures != nodes || r.LineageRecomputes != lineage {
		t.Fatalf("%d checksum failures, %d lineage recomputes; want one per task (%d) and every subtree's size (%d)",
			r.ChecksumFailures, r.LineageRecomputes, nodes, lineage)
	}
	overhead := res.SimTime - clean.SimTime
	if overhead <= 0 {
		t.Fatal("corruption recovery cost nothing")
	}
	if overhead > res.Resilience.RecoveryTime {
		t.Fatalf("SimTime overhead %v exceeds priced recovery %v", overhead, res.Resilience.RecoveryTime)
	}
}

func TestFaultSpeculativeDuplicateBeatsStraggler(t *testing.T) {
	s := testStore(t, false)
	clean := faultRun(t, s, nil, nil)
	res := faultRun(t, s, &cluster.FaultPlan{Seed: 21, StragglerRate: 0.5, StragglerFactor: 8}, nil)
	if got, want := renderRows(res), renderRows(clean); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rows differ under stragglers: %v vs %v", got, want)
	}
	if res.Resilience.Stragglers == 0 {
		t.Fatal("StragglerRate=0.5 slowed nothing; pick another seed")
	}
	if res.Resilience.SpeculativeLaunched == 0 {
		t.Fatal("no speculative duplicate launched against an 8x straggler")
	}
	if res.Resilience.SpeculativeWins == 0 {
		t.Fatal("no speculative win; with factor 8 vs speculation at 2x a clean duplicate must finish first")
	}
	if overhead := res.SimTime - clean.SimTime; overhead > res.Resilience.RecoveryTime {
		t.Fatalf("SimTime overhead %v exceeds priced recovery %v", overhead, res.Resilience.RecoveryTime)
	}
}

func TestFaultDeterministicAcrossRuns(t *testing.T) {
	s := testStore(t, false)
	fp := &cluster.FaultPlan{Seed: 33, FailRate: 0.3, StragglerRate: 0.2, StragglerFactor: 6, CorruptRate: 0.2}
	a := faultRun(t, s, fp, nil)
	b := faultRun(t, s, fp, nil)
	if a.SimTime != b.SimTime {
		t.Errorf("same fault plan, different SimTime: %v vs %v", a.SimTime, b.SimTime)
	}
	if a.Resilience != b.Resilience {
		t.Errorf("same fault plan, different recovery record: %+v vs %+v", a.Resilience, b.Resilience)
	}
	if c := faultRun(t, s, &cluster.FaultPlan{Seed: 34, FailRate: 0.3, StragglerRate: 0.2, StragglerFactor: 6, CorruptRate: 0.2}, nil); c.Resilience == a.Resilience && c.SimTime == a.SimTime {
		t.Error("different seed reproduced the identical fault schedule")
	}
}

// TestFaultAdaptiveReplanRowsIdentical runs fault injection through the
// plan cache, whose entry the clean run may have corrected (so only row
// identity is asserted, not a timing bound).
func TestFaultAdaptiveReplanRowsIdentical(t *testing.T) {
	s := testStore(t, false)
	q := sparql.MustParse(faultTestQuery)
	clean, err := s.Query(q, QueryOptions{})
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	fp := &cluster.FaultPlan{Seed: 17, FailRate: 0.4, StragglerRate: 0.3, CorruptRate: 0.3}
	res, err := s.Query(q, QueryOptions{Faults: fp})
	if err != nil {
		t.Fatalf("fault: %v", err)
	}
	if got, want := renderRows(res), renderRows(clean); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("cached rows differ under faults: %v vs %v", got, want)
	}
}

// TestFaultConcurrentQueriesRace is the 16-goroutine -race gate for the
// resilience machinery: concurrent queries under an active FaultPlan
// share one store and its feedback plan cache, every result must be
// byte-identical to the sequential baseline with deterministic SimTime,
// and no intermediate relations may be stranded (memory high-water
// check after the storm).
func TestFaultConcurrentQueriesRace(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 100, Seed: 7})
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	s, err := Load(g, Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	queries := watdiv.BasicQuerySet()[:8]
	fp := &cluster.FaultPlan{Seed: 42, FailRate: 0.15, StragglerRate: 0.1, StragglerFactor: 5, CorruptRate: 0.1}
	opts := func() QueryOptions { return QueryOptions{Faults: fp} }

	render := func(res *Result) string {
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

	// Sequential baseline at the feedback-cache steady state, under the
	// same fault plan the storm will use.
	want := make([]string, len(queries))
	wantSim := make([]int64, len(queries))
	for i, q := range queries {
		var prev int64 = -1
		for r := 0; r < 6; r++ {
			res, err := s.Query(q.Parsed, opts())
			if err != nil {
				t.Fatalf("%s sequential: %v", q.Name, err)
			}
			want[i] = render(res)
			wantSim[i] = int64(res.SimTime)
			if wantSim[i] == prev {
				break
			}
			prev = wantSim[i]
		}
		// Cross-check: rows under faults must equal fault-free rows.
		clean, err := s.Query(q.Parsed, QueryOptions{})
		if err != nil {
			t.Fatalf("%s clean: %v", q.Name, err)
		}
		if render(clean) != want[i] {
			t.Fatalf("%s: fault rows differ from fault-free rows", q.Name)
		}
	}

	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	const goroutines = 16
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (gi + r) % len(queries)
				res, err := s.Query(queries[qi].Parsed, opts())
				if err != nil {
					errs <- fmt.Errorf("%s: %w", queries[qi].Name, err)
					return
				}
				if got := render(res); got != want[qi] {
					errs <- fmt.Errorf("%s: concurrent fault rows differ from sequential", queries[qi].Name)
					return
				}
				if int64(res.SimTime) != wantSim[qi] {
					errs <- fmt.Errorf("%s: concurrent SimTime %v != sequential %v (nondeterministic recovery)",
						queries[qi].Name, res.SimTime, time.Duration(wantSim[qi]))
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// No stranded intermediates: after the storm and a GC, the heap may
	// not have grown past the baseline by more than a modest allowance
	// (the store itself dwarfs any leaked relation set).
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	const allowance = 64 << 20
	if after.HeapAlloc > base.HeapAlloc+allowance {
		t.Errorf("heap high-water grew %d bytes (from %d to %d); intermediate relations stranded?",
			after.HeapAlloc-base.HeapAlloc, base.HeapAlloc, after.HeapAlloc)
	}
}

// TestFaultExhaustionSameAtAnyParallelism runs queries whose tasks
// exhaust their attempts on independent branches 20 times at
// GOMAXPROCS 1, 2 and 4: the reported task, its attempt trace and the
// completed-task count must not depend on which worker got there first.
func TestFaultExhaustionSameAtAnyParallelism(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 100, Seed: 7})
	s, err := Load(g, Options{Cluster: cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	plans := []*cluster.FaultPlan{
		{Seed: 1, FailRate: 1, MaxAttempts: 2},
		{Seed: 2, FailRate: 0.5, MaxAttempts: 2},
	}
	outcome := func(q *sparql.Query, fp *cluster.FaultPlan) string {
		res, err := s.Query(q, QueryOptions{NoPlanCache: true, Faults: fp})
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("ok: %v %+v", res.SimTime, res.Resilience)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := map[string]string{}
	failed := 0
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 20; run++ {
			for pi, fp := range plans {
				for _, q := range watdiv.BasicQuerySet() {
					key := fmt.Sprintf("plan %d %s", pi, q.Name)
					got := outcome(q.Parsed, fp)
					w, seen := want[key]
					if !seen {
						want[key] = got
						if !strings.HasPrefix(got, "ok: ") {
							failed++
						}
						continue
					}
					if got != w {
						t.Fatalf("%s at GOMAXPROCS %d, run %d:\n got %s\nwant %s", key, procs, run, got, w)
					}
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no query exhausted its attempts; the test checks nothing")
	}
}
