// Package cluster simulates the distributed execution fabric the paper
// runs on (a 10-machine Spark/Hadoop cluster). It executes stages of
// partitioned tasks with real Go parallelism while charging every
// distributed cost — disk scans, network shuffles, job-launch latency,
// key-value seeks — to a virtual clock. Relational work done on top of
// this package is real computation over real partitioned data; only the
// *pricing* of cluster effects is simulated, so benchmark shapes mirror
// the paper without the hardware.
//
// Run is the one place the process runs tasks in parallel; RunStage is
// Run plus a stage's pricing.
//
// Fault tolerance — what the paper gets from Spark — lives here too, in
// one place: a FaultPlan decides each attempt's fate, and
// FaultPlan.RunAttempts is the one retry / backoff / speculation loop
// that acts on those decisions, writing one attempt trace (Attempt) and
// one recovery record (Recovery). The task scheduler in internal/core
// and the morsel simulator (SimulateMorsels) both call it.
package cluster

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Config describes the simulated cluster topology.
type Config struct {
	// Workers is the number of worker machines (the paper uses 9 workers
	// plus one master).
	Workers int
	// DefaultPartitions is the number of partitions a freshly loaded
	// dataset is split into. Spark defaults to a small multiple of the
	// total core count.
	DefaultPartitions int
	// Cost prices distributed operations on the virtual clock.
	Cost CostModel
}

// DefaultConfig mirrors the paper's benchmark environment: 9 workers,
// 6-core Xeons, Gigabit Ethernet.
func DefaultConfig() Config {
	return Config{
		Workers:           9,
		DefaultPartitions: 18,
		Cost:              DefaultCostModel(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("cluster: Workers must be positive, got %d", c.Workers)
	}
	if c.DefaultPartitions <= 0 {
		return fmt.Errorf("cluster: DefaultPartitions must be positive, got %d", c.DefaultPartitions)
	}
	return nil
}

// Cluster is the simulated cluster. It is safe for concurrent use by
// multiple queries, each carrying its own Clock.
type Cluster struct {
	cfg Config
}

// New returns a cluster with the given configuration. A zero-valued
// Cost field is replaced with DefaultCostModel so partially specified
// configs still price work, and a zero DefaultPartitions scales to
// ScalePartitions(Workers).
func New(cfg Config) (*Cluster, error) {
	if cfg.DefaultPartitions == 0 && cfg.Workers > 0 {
		cfg.DefaultPartitions = ScalePartitions(cfg.Workers)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	return &Cluster{cfg: cfg}, nil
}

// ScalePartitions picks a sensible default partition count for a
// cluster of the given worker count: two waves of tasks per simulated
// worker (Spark's guidance of 2-3x the core count), deterministic
// across hosts so simulated placements — and therefore benchmark
// numbers — do not depend on the machine running the simulation.
func ScalePartitions(workers int) int {
	return 2 * workers
}

// MustNew is New that panics on config errors; for tests and fixtures.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Workers returns the number of simulated worker machines.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// DefaultPartitions returns the default partition count for datasets.
func (c *Cluster) DefaultPartitions() int { return c.cfg.DefaultPartitions }

// TaskStats records the priced work one task performed. Tasks fill this
// in; the stage scheduler converts it to virtual time.
type TaskStats struct {
	// DiskBytes read from (simulated) HDFS or local disk.
	DiskBytes int64
	// NetBytes sent over the network (shuffle writes, broadcast sends).
	NetBytes int64
	// Rows processed in memory by relational operators.
	Rows int64
	// Seeks counts remote key-value point lookups (Rya/Accumulo).
	Seeks int64
	// KVScanBytes counts bytes streamed from KV range scans.
	KVScanBytes int64
}

// Add accumulates o into s.
func (s *TaskStats) Add(o TaskStats) {
	s.DiskBytes += o.DiskBytes
	s.NetBytes += o.NetBytes
	s.Rows += o.Rows
	s.Seeks += o.Seeks
	s.KVScanBytes += o.KVScanBytes
}

// RunStage executes fn once per partition, then charges the stage to
// clock: the given launch overhead (zero for work that pipelines into
// an open stage; a stage launch — plus possibly a query-start cost — at
// shuffle and job boundaries) plus the makespan of the simulated
// workers (tasks are assigned round-robin; each worker's time is the
// sum of its tasks' priced time; the stage takes as long as the slowest
// worker).
//
// The partitions are the tasks of one Run on min(GOMAXPROCS,
// partitions) workers, the calling goroutine first, so a stage of one
// partition (or on one processor) starts no goroutine and what a stage
// allocates does not depend on how many partitions it has: the
// per-partition slots come from statsPool. Every partition runs even
// after one has failed; the error reported is the lowest failing
// partition's, and a failed stage charges nothing.
func (c *Cluster) RunStage(clock *Clock, launch time.Duration, name string, partitions int, fn func(part int) (TaskStats, error)) error {
	if partitions <= 0 {
		partitions = 1
	}
	slots := statsPool.Get().(*[]TaskStats)
	defer statsPool.Put(slots)
	// Every slot is written by its partition's task before it is read.
	*slots = slices.Grow((*slots)[:0], partitions)[:partitions]
	st := &stage{name: name, fn: fn, stats: *slots}
	if err := Run(runtime.GOMAXPROCS(0), partitions, &st.tasks, st); err != nil {
		return err
	}

	// Price the stage: round-robin task placement, makespan = max worker.
	var total TaskStats
	var makespan time.Duration
	for w := 0; w < c.cfg.Workers && w < partitions; w++ {
		var workerTime time.Duration
		for i := w; i < partitions; i += c.cfg.Workers {
			workerTime += c.cfg.Cost.TaskTime(st.stats[i])
			total.Add(st.stats[i])
		}
		makespan = max(makespan, workerTime)
	}
	clock.chargeStage(StageRecord{
		Name:     name,
		Launch:   launch,
		Tasks:    partitions,
		Elapsed:  launch + makespan,
		Stats:    total,
		Makespan: makespan,
	})
	return nil
}

// statsPool holds the per-partition slots of stages that are over. A
// stage reads its slots only to price itself, before it returns, and a
// helper that starts after the last claim touches only the stage's
// Tasks, which are therefore not pooled: the next stage takes the slots
// over.
var statsPool = sync.Pool{New: func() any { return new([]TaskStats) }}

// stage is one RunStage's Run: each partition's priced work lands in its
// own slot.
type stage struct {
	tasks Tasks
	name  string
	fn    func(part int) (TaskStats, error)
	stats []TaskStats
}

// Task implements Job: it runs partition part.
func (s *stage) Task(_, part int) error {
	var err error
	if s.stats[part], err = s.fn(part); err != nil {
		return fmt.Errorf("cluster: stage %q partition %d: %w", s.name, part, err)
	}
	return nil
}

// HashPartition returns the partition index for a key hashed over n
// partitions. Every engine component uses this single function so
// co-partitioned datasets stay aligned.
func HashPartition(key uint64, n int) int {
	// Fibonacci hashing spreads dense dictionary IDs well.
	h := key * 0x9E3779B97F4A7C15
	return int(h % uint64(n))
}
