package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testenv"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"default", DefaultConfig(), false},
		{"zero workers", Config{Workers: 0, DefaultPartitions: 4}, true},
		{"negative partitions", Config{Workers: 4, DefaultPartitions: -1}, true},
		{"minimal", Config{Workers: 1, DefaultPartitions: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
			_, err = New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestZeroDefaultPartitionsScales(t *testing.T) {
	c, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.DefaultPartitions(), ScalePartitions(4); got != want {
		t.Errorf("DefaultPartitions = %d, want %d", got, want)
	}
	// The paper's topology: ScalePartitions must reproduce the 18
	// partitions DefaultConfig documents for 9 workers.
	if got := ScalePartitions(DefaultConfig().Workers); got != DefaultConfig().DefaultPartitions {
		t.Errorf("ScalePartitions(9) = %d, want %d", got, DefaultConfig().DefaultPartitions)
	}
}

func TestRunStageExecutesAllPartitions(t *testing.T) {
	c := MustNew(Config{Workers: 3, DefaultPartitions: 6})
	var count atomic.Int64
	clock := NewClock()
	err := c.RunStage(clock, 0, "count", 10, func(part int) (TaskStats, error) {
		count.Add(1)
		return TaskStats{Rows: 100}, nil
	})
	if err != nil {
		t.Fatalf("RunStage: %v", err)
	}
	if count.Load() != 10 {
		t.Errorf("executed %d tasks, want 10", count.Load())
	}
	stages := clock.Stages()
	if len(stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(stages))
	}
	if stages[0].Stats.Rows != 1000 {
		t.Errorf("total rows = %d, want 1000", stages[0].Stats.Rows)
	}
}

func TestRunStagePropagatesError(t *testing.T) {
	c := MustNew(Config{Workers: 2, DefaultPartitions: 2})
	boom := errors.New("boom")
	err := c.RunStage(NewClock(), 0, "failing", 4, func(part int) (TaskStats, error) {
		if part == 2 {
			return TaskStats{}, boom
		}
		return TaskStats{}, nil
	})
	if err == nil {
		t.Fatalf("RunStage succeeded, want error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v does not wrap the task error", err)
	}
	if !strings.Contains(err.Error(), "partition 2") {
		t.Errorf("error %v does not name the failing partition", err)
	}
}

func TestStageMakespanUsesSlowestWorker(t *testing.T) {
	cost := CostModel{RowTime: time.Millisecond} // 1ms per row, everything else free
	c := MustNew(Config{Workers: 2, DefaultPartitions: 2, Cost: cost})
	clock := NewClock()
	// 2 partitions on 2 workers: partition 0 -> worker 0 (10 rows),
	// partition 1 -> worker 1 (1 row). Makespan = 10ms, not 11ms.
	err := c.RunStage(clock, 0, "skewed", 2, func(part int) (TaskStats, error) {
		if part == 0 {
			return TaskStats{Rows: 10}, nil
		}
		return TaskStats{Rows: 1}, nil
	})
	if err != nil {
		t.Fatalf("RunStage: %v", err)
	}
	got := clock.Elapsed()
	if got != 10*time.Millisecond {
		t.Errorf("makespan = %v, want 10ms (slowest worker only)", got)
	}
}

func TestStageLaunchOverhead(t *testing.T) {
	cost := CostModel{RowTime: time.Nanosecond}
	c := MustNew(Config{Workers: 1, DefaultPartitions: 1, Cost: cost})
	noop := func(part int) (TaskStats, error) { return TaskStats{}, nil }

	for _, launch := range []time.Duration{0, 100 * time.Millisecond, time.Second} {
		clock := NewClock()
		if err := c.RunStage(clock, launch, "launch", 1, noop); err != nil {
			t.Fatalf("RunStage: %v", err)
		}
		if got := clock.Elapsed(); got != launch {
			t.Errorf("launch %v: elapsed = %v", launch, got)
		}
		if rec := clock.Stages()[0]; rec.Launch != launch {
			t.Errorf("recorded launch = %v, want %v", rec.Launch, launch)
		}
	}
}

func TestCostModelTaskTime(t *testing.T) {
	m := CostModel{
		DiskBytesPerSec:    1 << 20, // 1 MiB/s
		NetworkBytesPerSec: 2 << 20,
		RowTime:            time.Microsecond,
		SeekTime:           time.Millisecond,
		KVScanBytesPerSec:  1 << 20,
	}
	tests := []struct {
		name  string
		stats TaskStats
		want  time.Duration
	}{
		{"disk only", TaskStats{DiskBytes: 1 << 20}, time.Second},
		{"net only", TaskStats{NetBytes: 2 << 20}, time.Second},
		{"rows only", TaskStats{Rows: 1000}, time.Millisecond},
		{"seeks only", TaskStats{Seeks: 5}, 5 * time.Millisecond},
		{"kv scan only", TaskStats{KVScanBytes: 1 << 20}, time.Second},
		{"zero", TaskStats{}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.TaskTime(tt.stats); got != tt.want {
				t.Errorf("TaskTime(%+v) = %v, want %v", tt.stats, got, tt.want)
			}
		})
	}
}

func TestTaskStatsAdd(t *testing.T) {
	a := TaskStats{DiskBytes: 1, NetBytes: 2, Rows: 3, Seeks: 4, KVScanBytes: 5}
	b := TaskStats{DiskBytes: 10, NetBytes: 20, Rows: 30, Seeks: 40, KVScanBytes: 50}
	a.Add(b)
	want := TaskStats{DiskBytes: 11, NetBytes: 22, Rows: 33, Seeks: 44, KVScanBytes: 55}
	if a != want {
		t.Errorf("Add result = %+v, want %+v", a, want)
	}
}

func TestClockAccumulatesSequentially(t *testing.T) {
	clock := NewClock()
	clock.Charge("phase 1", time.Second)
	clock.Charge("phase 2", 2*time.Second)
	if got := clock.Elapsed(); got != 3*time.Second {
		t.Errorf("Elapsed() = %v, want 3s", got)
	}
	if len(clock.Stages()) != 2 {
		t.Errorf("stages = %d, want 2", len(clock.Stages()))
	}
	clock.Reset()
	if clock.Elapsed() != 0 || len(clock.Stages()) != 0 {
		t.Errorf("Reset did not clear the clock")
	}
}

func TestClockTrace(t *testing.T) {
	clock := NewClock()
	clock.Charge("load vp tables", 1500*time.Millisecond)
	trace := clock.Trace()
	if !strings.Contains(trace, "load vp tables") {
		t.Errorf("trace missing stage name:\n%s", trace)
	}
	if !strings.Contains(trace, "total:") {
		t.Errorf("trace missing total:\n%s", trace)
	}
}

func TestHashPartitionInRangeAndDeterministic(t *testing.T) {
	f := func(key uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := HashPartition(key, n)
		return p >= 0 && p < n && p == HashPartition(key, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashPartitionSpreadsDenseKeys(t *testing.T) {
	// Dictionary IDs are dense integers; the partitioner must not send
	// them all to a handful of partitions.
	const n = 16
	counts := make([]int, n)
	for key := uint64(1); key <= 16000; key++ {
		counts[HashPartition(key, n)]++
	}
	for p, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("partition %d has %d of 16000 keys; distribution too skewed", p, c)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 << 20, "3.00MiB"},
		{5 << 30, "5.00GiB"},
	}
	for _, tt := range tests {
		if got := humanBytes(tt.n); got != tt.want {
			t.Errorf("humanBytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestRunStageZeroPartitions(t *testing.T) {
	c := MustNew(Config{Workers: 2, DefaultPartitions: 2})
	ran := 0
	err := c.RunStage(NewClock(), 0, "degenerate", 0, func(part int) (TaskStats, error) {
		ran++
		return TaskStats{}, nil
	})
	if err != nil {
		t.Fatalf("RunStage: %v", err)
	}
	if ran != 1 {
		t.Errorf("zero-partition stage ran %d tasks, want 1", ran)
	}
}

// stageTaskStats is an arbitrary but fixed priced work per partition.
func stageTaskStats(part int) TaskStats {
	return TaskStats{DiskBytes: int64(part%5) << 20, NetBytes: int64(part%3) << 18, Rows: int64(part*7 + 1), Seeks: int64(part % 2)}
}

// sequentialStageRecord prices a stage the way RunStage documents it,
// one partition after the other: round-robin placement on the simulated
// workers, makespan of the slowest.
func sequentialStageRecord(c *Cluster, name string, launch time.Duration, partitions int) StageRecord {
	workerTime := make([]time.Duration, c.cfg.Workers)
	rec := StageRecord{Name: name, Launch: launch, Tasks: partitions}
	for i := 0; i < partitions; i++ {
		st := stageTaskStats(i)
		workerTime[i%c.cfg.Workers] += c.cfg.Cost.TaskTime(st)
		rec.Stats.Add(st)
	}
	for _, wt := range workerTime {
		rec.Makespan = max(rec.Makespan, wt)
	}
	rec.Elapsed = launch + rec.Makespan
	return rec
}

// TestRunStageProperties checks, over stage sizes from none to a
// thousand partitions and one, two or many processors, that each
// partition runs exactly once, that no more than the bound run at a
// time, that a stage a single worker can run stays on the calling
// goroutine, that the charged StageRecord equals the sequential
// computation, and that with partitions 3 and 7 failing the rest still
// run, partition 3 is the one reported and nothing is charged.
func TestRunStageProperties(t *testing.T) {
	for _, partitions := range []int{0, 1, 2, 17, 1000} {
		for _, procs := range []int{1, 2, 64} {
			for _, failing := range []bool{false, true} {
				runStageCase(t, partitions, procs, failing)
			}
		}
	}
}

// runStageCase is one case of TestRunStageProperties, run on procs
// processors.
func runStageCase(t *testing.T, partitions, procs int, failing bool) {
	t.Helper()
	tasks := max(partitions, 1) // a stage always has one task
	if failing && tasks <= 7 {
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	bound := procs
	label := fmt.Sprintf("partitions=%d GOMAXPROCS=%d failing=%v", partitions, procs, failing)
	c := MustNew(Config{Workers: 3, DefaultPartitions: 6})
	ran := make([]atomic.Int32, tasks)
	var cur, high, offCaller atomic.Int64
	boom := errors.New("boom")
	charged := NewClock()
	err := c.RunStage(charged, 5*time.Millisecond, "prop", partitions, func(part int) (TaskStats, error) {
		n := cur.Add(1)
		for m := high.Load(); n > m && !high.CompareAndSwap(m, n); m = high.Load() {
		}
		ran[part].Add(1)
		if min(bound, tasks) == 1 {
			var stack [4096]byte
			if !strings.Contains(string(stack[:runtime.Stack(stack[:], false)]), "TestRunStageProperties") {
				offCaller.Add(1)
			}
		}
		if part%16 == 0 {
			runtime.Gosched() // let the other workers overlap
		}
		cur.Add(-1)
		if failing && (part == 3 || part == 7) {
			return TaskStats{}, fmt.Errorf("task %d: %w", part, boom)
		}
		return stageTaskStats(part), nil
	})
	for part := range ran {
		if n := ran[part].Load(); n != 1 {
			t.Fatalf("%s: partition %d ran %d times", label, part, n)
		}
	}
	if high.Load() > int64(bound) {
		t.Errorf("%s: %d tasks ran at once, bound is %d", label, high.Load(), bound)
	}
	if offCaller.Load() != 0 {
		t.Errorf("%s: %d tasks ran off the calling goroutine", label, offCaller.Load())
	}
	if failing {
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "partition 3:") {
			t.Errorf("%s: error %v, want partition 3's", label, err)
		}
		if len(charged.Stages()) != 0 {
			t.Errorf("%s: a failed stage was charged", label)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got, want := charged.Stages(), sequentialStageRecord(c, "prop", 5*time.Millisecond, tasks); len(got) != 1 || got[0] != want {
		t.Errorf("%s: charged %+v, sequential computation gives %+v", label, got, want)
	}
}

// TestRunStageAllocsIndependentOfPartitions: a stage allocates its
// run state, plus what starting the bounded workers costs — the same
// number of allocations and the same bytes for two partitions as for a
// thousand, on one processor and on two. (One goroutine and closure per
// partition made the count grow; a slice of per-partition slots made
// per stage, 40 KB at a thousand partitions, made the bytes grow.) The
// collector is off, so the pooled slots stay pooled.
func TestRunStageAllocsIndependentOfPartitions(t *testing.T) {
	testenv.SkipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		c := MustNew(Config{Workers: 3, DefaultPartitions: 6})
		clock := NewClock()
		fn := func(part int) (TaskStats, error) { return stageTaskStats(part), nil }
		mem := func(partitions int) (allocs, bytes float64) {
			return testenv.ParallelMemPerRun(t, 50, func() {
				clock.Reset()
				if err := c.RunStage(clock, 0, "allocs", partitions, fn); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, smallBytes := mem(2)
		large, largeBytes := mem(1000)
		t.Logf("GOMAXPROCS=%d: %.0f allocations and %.0f bytes per stage at 2 partitions, %.0f and %.0f at 1000", procs, small, smallBytes, large, largeBytes)
		if large != small || large > 6 {
			t.Errorf("GOMAXPROCS=%d: a stage allocates %.0f times at 2 partitions and %.0f at 1000; want the same handful", procs, small, large)
		}
		if largeBytes != smallBytes {
			t.Errorf("GOMAXPROCS=%d: a stage allocates %.0f bytes at 2 partitions and %.0f at 1000; want the same", procs, smallBytes, largeBytes)
		}
	}
}

// setProcs runs the rest of the test on n processors, the bound on a
// stage's workers.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func ExampleCluster_RunStage() {
	c := MustNew(Config{Workers: 2, DefaultPartitions: 2, Cost: CostModel{RowTime: time.Millisecond}})
	clock := NewClock()
	_ = c.RunStage(clock, 0, "example", 2, func(part int) (TaskStats, error) {
		return TaskStats{Rows: 5}, nil
	})
	fmt.Println(clock.Elapsed())
	// Output: 5ms
}
