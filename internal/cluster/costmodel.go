package cluster

import "time"

// CostModel prices distributed operations on the virtual clock. The
// defaults are calibrated to the paper's environment (6-core Xeon
// E5-2420 machines, Gigabit Ethernet, Cloudera CDH 5.11, Spark 2.1);
// see DESIGN.md §4. Every field is exported so ablation benchmarks can
// perturb a single knob.
//
// Launch costs follow Spark's actual execution model: work pipelines
// freely inside a stage (scan→filter→project→probe cost no extra
// launches); a new stage is launched at every shuffle or broadcast
// exchange boundary; and each query pays a start cost — small query
// planning in a warm Spark SQL session (PRoST, S2RDF), or a full
// spark-submit JVM/context startup for systems that compile and submit
// a fresh program per query (SPARQLGX), which is why the paper measures
// SPARQLGX at a nearly flat ~20s floor.
type CostModel struct {
	// DiskBytesPerSec is HDFS streaming-read throughput per worker.
	DiskBytesPerSec float64
	// NetworkBytesPerSec is shuffle throughput per worker (Gigabit
	// Ethernet minus protocol overhead).
	NetworkBytesPerSec float64
	// RowTime is the in-memory CPU cost per row per operator.
	RowTime time.Duration
	// SQLPlanning is the per-query planning cost in a warm Spark SQL
	// session.
	SQLPlanning time.Duration
	// SQLStageLaunch is the per-boundary-stage launch cost under Spark
	// SQL.
	SQLStageLaunch time.Duration
	// RDDSubmit is the spark-submit cost (JVM + SparkContext startup)
	// paid by each compiled RDD program — once per SPARQLGX query and
	// once per bulk-loading job of any system.
	RDDSubmit time.Duration
	// RDDStageLaunch is the per-boundary-stage launch cost of a bare
	// RDD job.
	RDDStageLaunch time.Duration
	// SeekTime is the round-trip of one remote KV point lookup
	// (Rya client → Accumulo tablet server).
	SeekTime time.Duration
	// KVScanBytesPerSec is KV range-scan streaming throughput.
	KVScanBytesPerSec float64
}

// DefaultCostModel returns the calibration used by all experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		DiskBytesPerSec:    100 << 20, // 100 MiB/s HDFS scan
		NetworkBytesPerSec: 110 << 20, // ~Gigabit Ethernet
		RowTime:            120 * time.Nanosecond,
		SQLPlanning:        100 * time.Millisecond,
		SQLStageLaunch:     150 * time.Millisecond,
		RDDSubmit:          7 * time.Second,
		RDDStageLaunch:     700 * time.Millisecond,
		SeekTime:           400 * time.Microsecond,
		KVScanBytesPerSec:  25 << 20, // 25 MiB/s remote scan
	}
}

// ShuffleJoinTime prices a shuffle hash join candidate on estimated
// inputs: a full stage launch, the moved bytes spread over the
// workers, and the per-row processing of both inputs plus the output.
// The cost-based planner uses it to select physical join methods from
// cardinality estimates instead of a single global size threshold.
func (m CostModel) ShuffleJoinTime(movedBytes, rows int64, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	per := TaskStats{NetBytes: movedBytes / int64(workers), Rows: rows / int64(workers)}
	return m.SQLStageLaunch + m.TaskTime(per)
}

// BroadcastJoinTime prices a broadcast hash join candidate: a third of
// a stage launch (the probe side pipelines into the open stage; only
// the build-side collection job launches), every worker receiving one
// copy of the build side, and the per-row processing of the probe
// input plus the output.
func (m CostModel) BroadcastJoinTime(buildBytes, rows int64, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	per := TaskStats{NetBytes: buildBytes, Rows: rows / int64(workers)}
	return m.SQLStageLaunch/3 + m.TaskTime(per)
}

// TaskTime prices one task's recorded work.
func (m CostModel) TaskTime(s TaskStats) time.Duration {
	var d time.Duration
	if s.DiskBytes > 0 && m.DiskBytesPerSec > 0 {
		d += time.Duration(float64(s.DiskBytes) / m.DiskBytesPerSec * float64(time.Second))
	}
	if s.NetBytes > 0 && m.NetworkBytesPerSec > 0 {
		d += time.Duration(float64(s.NetBytes) / m.NetworkBytesPerSec * float64(time.Second))
	}
	if s.Rows > 0 {
		d += time.Duration(s.Rows) * m.RowTime
	}
	if s.Seeks > 0 {
		d += time.Duration(s.Seeks) * m.SeekTime
	}
	if s.KVScanBytes > 0 && m.KVScanBytesPerSec > 0 {
		d += time.Duration(float64(s.KVScanBytes) / m.KVScanBytesPerSec * float64(time.Second))
	}
	return d
}
