package cluster

import (
	"fmt"
	"sort"
	"time"
)

// Morsel-granular stage pricing for the streaming executor. A query's
// pipelines (scan → fused filters/probes → sink) are each split into
// fixed-size morsels of priced work; SimulateMorsels list-schedules
// every morsel onto the simulated workers, so SimTime reflects actual
// worker contention across concurrent pipelines instead of the
// materialized scheduler's max-of-branches critical path. Fault
// injection prices at the same granularity: each morsel is one task of
// FaultPlan.RunAttempts — the attempt loop the task scheduler runs per
// operator — so a retry re-runs one morsel of work rather than a whole
// operator.
//
// The simulation is a pure function of its inputs: placement is
// earliest-free-worker with deterministic tie-breaks, fault decisions
// key on (salt, pipeline, morsel, attempt), and result deliveries fold
// in completion order — so a streaming query's SimTime, first-row
// latency and recovery record are exactly reproducible.

// MorselPipeline is one pipeline's aggregate priced work, split evenly
// into morsels by the simulator.
type MorselPipeline struct {
	// Name labels the pipeline in traces.
	Name string
	// Deps lists pipelines (by index, each < this pipeline's index)
	// whose completion gates this pipeline — hash-join build sides the
	// probe chain waits on.
	Deps []int
	// Launch is the stage-launch overhead charged once at the
	// pipeline's gate (shuffle/broadcast boundaries crossed by its
	// fused probes; zero for pure scan pipelines).
	Launch time.Duration
	// Morsels is the number of morsels the work splits into (min 1).
	Morsels int
	// Work is the pipeline's total priced work, divided evenly across
	// morsels.
	Work TaskStats
	// EmitBytes is the result payload this pipeline delivers to the
	// driver (root pipeline only; zero elsewhere). Deliveries serialize
	// at the driver, which is what makes first-row latency strictly
	// earlier than query completion whenever more than one result
	// morsel exists.
	EmitBytes int64
	// EmitRows reports whether the pipeline produces result rows at
	// all; first-row latency is only defined when it does.
	EmitRows bool
}

// MorselSimConfig configures one simulation run.
type MorselSimConfig struct {
	// Workers is the simulated worker count.
	Workers int
	// Cost prices each morsel's split of the pipeline work.
	Cost CostModel
	// Start is the query's planning charge; no morsel starts before it.
	Start time.Duration
	// Faults, when active, prices per-morsel fault injection;
	// FaultSalt decorrelates schedules across queries.
	Faults    *FaultPlan
	FaultSalt uint64
}

// MorselSimResult is the priced outcome of one streaming execution.
type MorselSimResult struct {
	// Done is the simulated completion time of the whole query.
	Done time.Duration
	// FirstEmit is when the first result morsel finished delivering to
	// the driver (zero when no pipeline emits rows).
	FirstEmit time.Duration
	// PipelineDone records each pipeline's completion time.
	PipelineDone []time.Duration
	// Recovery is the fault-injection record (zero-valued without an
	// active fault plan).
	Recovery Recovery
}

// morselKey derives the fault key of one morsel, decorrelated across
// pipelines and queries.
func morselKey(salt uint64, pipeline, morsel int) uint64 {
	return mix64(salt, uint64(pipeline)<<20|uint64(morsel), 0x5EED)
}

// splitWork divides a pipeline's total priced time into m near-equal
// morsel durations (the first morsel absorbs the rounding remainder).
func splitWork(total time.Duration, m int) (base, first time.Duration) {
	if m < 1 {
		m = 1
	}
	base = total / time.Duration(m)
	first = total - base*time.Duration(m-1)
	return base, first
}

// SimulateMorsels list-schedules every pipeline's morsels onto the
// simulated workers and returns the priced outcome. Pipelines must be
// topologically ordered (each Deps entry refers to an earlier index).
func SimulateMorsels(pipelines []MorselPipeline, cfg MorselSimConfig) (*MorselSimResult, error) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	free := make([]time.Duration, workers)
	for i := range free {
		free[i] = cfg.Start
	}
	res := &MorselSimResult{PipelineDone: make([]time.Duration, len(pipelines))}
	faults := cfg.Faults
	if !faults.Active() {
		faults = nil
	}

	type emitRec struct {
		done    time.Duration
		deliver time.Duration
	}
	// One delivery per emitting morsel, counted up front so that a
	// pipeline cut into more morsels costs no more allocations.
	deliveries := 0
	for _, p := range pipelines {
		if p.EmitRows {
			deliveries += max(p.Morsels, 1)
		}
	}
	emits := make([]emitRec, 0, deliveries)

	for pi, p := range pipelines {
		gate := cfg.Start
		for _, d := range p.Deps {
			if d < 0 || d >= pi {
				return nil, fmt.Errorf("cluster: pipeline %d dep %d not topologically ordered", pi, d)
			}
			if res.PipelineDone[d] > gate {
				gate = res.PipelineDone[d]
			}
		}
		gate += p.Launch

		m := p.Morsels
		if m < 1 {
			m = 1
		}
		base, firstDur := splitWork(cfg.Cost.TaskTime(p.Work), m)
		var emitPer int64
		if p.EmitBytes > 0 {
			emitPer = p.EmitBytes / int64(m)
		}

		var done time.Duration
		for mi := 0; mi < m; mi++ {
			dur := base
			if mi == 0 {
				dur = firstDur
			}
			if dur <= 0 {
				// Like the materialized scheduler, zero-cost work still
				// completes strictly after it starts.
				dur = 1
			}
			// Earliest-free worker, lowest index on ties: deterministic
			// list scheduling.
			w := 0
			for k := 1; k < workers; k++ {
				if free[k] < free[w] {
					w = k
				}
			}
			start := free[w]
			if gate > start {
				start = gate
			}

			mDone := start + dur
			if faults != nil {
				// A morsel is priced, not executed: every attempt costs
				// its share of the pipeline's work.
				var rec Recovery
				mDone, _, rec = faults.RunAttempts(morselKey(cfg.FaultSalt, pi, mi), start, dur)
				res.Recovery.Add(rec)
			}
			free[w] = mDone
			if mDone > done {
				done = mDone
			}
			if p.EmitRows {
				var deliver time.Duration
				if emitPer > 0 && cfg.Cost.NetworkBytesPerSec > 0 {
					deliver = time.Duration(float64(emitPer) / cfg.Cost.NetworkBytesPerSec * float64(time.Second))
				}
				if deliver <= 0 {
					deliver = 1
				}
				emits = append(emits, emitRec{done: mDone, deliver: deliver})
			}
		}

		// Corrupted pipeline delivery: the consumer's checksum catches
		// it and one morsel's work is recomputed from lineage before
		// dependents (or the driver) read the output.
		if faults != nil && faults.CorruptDelivery(morselKey(cfg.FaultSalt, pi, 1<<19)) {
			res.Recovery.ChecksumFailures++
			res.Recovery.LineageRecomputes++
			penalty := base
			if penalty <= 0 {
				penalty = firstDur
			}
			if penalty <= 0 {
				penalty = 1
			}
			done += penalty
			res.Recovery.RecoveryTime += penalty
		}

		res.PipelineDone[pi] = done
		if done > res.Done {
			res.Done = done
		}
	}

	// Result deliveries serialize at the driver in completion order.
	sort.Slice(emits, func(i, j int) bool { return emits[i].done < emits[j].done })
	var driverFree time.Duration
	for i, e := range emits {
		start := e.done
		if driverFree > start {
			start = driverFree
		}
		driverFree = start + e.deliver
		if i == 0 {
			res.FirstEmit = driverFree
		}
	}
	if driverFree > res.Done {
		res.Done = driverFree
	}
	return res, nil
}
