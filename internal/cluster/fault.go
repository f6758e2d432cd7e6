package cluster

import (
	"fmt"
	"time"
)

// FaultPlan is a deterministic, seedable fault-injection schedule for
// chaos testing the execution stack. Every decision is a pure function
// of (Seed, task key, attempt number, virtual start time) — never of
// wall time, pool interleaving or call order — so a fault run is
// exactly reproducible: the same plan over the same data under the
// same FaultPlan injects the same failures at the same virtual times
// and prices the same recovery, no matter how many goroutines execute
// it.
//
// Four fault classes are supported, mirroring what a real cluster
// loses: outright task-attempt failures (FailRate), workers dead for a
// virtual-time window (Outages), stragglers whose priced time is
// multiplied (StragglerRate/StragglerFactor), and corrupted exchange
// deliveries (CorruptRate). Faults are priced on the virtual clock, not
// acted out: no payload is ever touched and nothing is re-executed.
type FaultPlan struct {
	// Seed selects the pseudo-random schedule; two plans with different
	// seeds inject disjoint fault patterns at the same rates.
	Seed uint64
	// FailRate is the probability an eligible task attempt fails
	// outright after consuming its priced time.
	FailRate float64
	// MaxFailuresPerTask caps how many attempts of one task FailRate
	// may kill (0 = DefaultMaxFailuresPerTask). The cap keeps every
	// schedule recoverable: retries beyond it only fail if they land on
	// a dead worker.
	MaxFailuresPerTask int
	// MaxAttempts bounds execution attempts per task (0 =
	// DefaultMaxAttempts); exhausting it aborts the query with a typed
	// error carrying the attempt trace. A schedule stays recoverable
	// only while this exceeds MaxFailuresPerTask plus the attempts its
	// outage windows can kill.
	MaxAttempts int
	// Outages lists worker-loss windows on the virtual timeline: an
	// attempt placed on a dead worker during its window fails. Retries
	// rotate to other workers and back off past the window.
	Outages []WorkerOutage
	// StragglerRate is the probability an attempt runs slow; its priced
	// time is multiplied by StragglerFactor.
	StragglerRate float64
	// StragglerFactor multiplies a straggling attempt's priced time
	// (0 = DefaultStragglerFactor; must be >= 1 otherwise).
	StragglerFactor float64
	// CorruptRate is the probability a task's first output delivery is
	// corrupted in the exchange, priced as the consumer's checksum
	// failing and the producer being recomputed from lineage.
	// Re-deliveries are always clean.
	CorruptRate float64
}

// Fault-plan defaults.
const (
	// DefaultMaxFailuresPerTask bounds injected outright failures per
	// task so rate-based schedules stay recoverable under the executor's
	// attempt budget.
	DefaultMaxFailuresPerTask = 2
	// DefaultStragglerFactor is the priced-time multiplier of an
	// injected straggler when FaultPlan.StragglerFactor is zero.
	DefaultStragglerFactor = 6.0
)

// WorkerOutage marks one simulated worker dead for a window of virtual
// time: attempts placed on it with a virtual start in [From, Until)
// fail with a worker-outage outcome.
type WorkerOutage struct {
	// Worker is the simulated worker index (0-based).
	Worker int
	// From and Until bound the outage on the virtual timeline
	// (inclusive start, exclusive end).
	From, Until time.Duration
}

// FaultDecision is the fate of one task attempt under a FaultPlan.
type FaultDecision struct {
	// Worker is the simulated worker the attempt was placed on.
	// Consecutive attempts of one task rotate across workers, the way a
	// real scheduler avoids re-placing a retry on the machine that just
	// failed it.
	Worker int
	// Fail reports the attempt dies after consuming its priced time.
	Fail bool
	// Outage reports the failure was a worker-loss window (Fail is set
	// too); false on an injected task-level failure.
	Outage bool
	// DelayFactor multiplies the attempt's priced time; 1 for a healthy
	// attempt, StragglerFactor for an injected straggler.
	DelayFactor float64
}

// Validate reports configuration errors.
func (fp *FaultPlan) Validate() error {
	if fp == nil {
		return nil
	}
	for name, rate := range map[string]float64{
		"FailRate": fp.FailRate, "StragglerRate": fp.StragglerRate, "CorruptRate": fp.CorruptRate,
	} {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("cluster: FaultPlan.%s = %g out of [0,1]", name, rate)
		}
	}
	if fp.StragglerFactor != 0 && fp.StragglerFactor < 1 {
		return fmt.Errorf("cluster: FaultPlan.StragglerFactor = %g must be >= 1", fp.StragglerFactor)
	}
	if fp.MaxAttempts < 0 {
		return fmt.Errorf("cluster: FaultPlan.MaxAttempts = %d must be >= 0", fp.MaxAttempts)
	}
	for _, o := range fp.Outages {
		if o.Worker < 0 {
			return fmt.Errorf("cluster: FaultPlan outage worker %d must be >= 0", o.Worker)
		}
		if o.Until < o.From {
			return fmt.Errorf("cluster: FaultPlan outage window [%v,%v) inverted", o.From, o.Until)
		}
	}
	return nil
}

// Active reports whether the plan injects anything at all; executors
// skip every resilience hook (recovery pricing, attempt bookkeeping) for
// an inactive plan, keeping the fault-free hot path untouched.
func (fp *FaultPlan) Active() bool {
	return fp != nil && (fp.FailRate > 0 || len(fp.Outages) > 0 ||
		fp.StragglerRate > 0 || fp.CorruptRate > 0)
}

// maxFailures resolves the per-task injected-failure cap.
func (fp *FaultPlan) maxFailures() int {
	if fp.MaxFailuresPerTask > 0 {
		return fp.MaxFailuresPerTask
	}
	return DefaultMaxFailuresPerTask
}

// maxAttempts resolves the per-task attempt budget.
func (fp *FaultPlan) maxAttempts() int {
	if fp.MaxAttempts > 0 {
		return fp.MaxAttempts
	}
	return DefaultMaxAttempts
}

// stragglerFactor resolves the straggler multiplier.
func (fp *FaultPlan) stragglerFactor() float64 {
	if fp.StragglerFactor >= 1 {
		return fp.StragglerFactor
	}
	return DefaultStragglerFactor
}

// Hash salts separating the independent decision streams.
const (
	saltPlace uint64 = iota + 1
	saltFail
	saltStraggle
	saltCorrupt
)

// Decide returns the fate of one attempt of a task: its worker
// placement, whether it fails (injected or by landing on a worker that
// is dead at start), and its straggler delay factor. attempt is
// 1-based; workers is the cluster's worker count.
func (fp *FaultPlan) Decide(taskKey uint64, attempt int, start time.Duration, workers int) FaultDecision {
	if workers < 1 {
		workers = 1
	}
	// Consecutive attempts rotate across consecutive workers so a retry
	// never lands back on the machine that just failed it.
	base := mix64(fp.Seed, taskKey, saltPlace)
	d := FaultDecision{
		Worker:      int((base + uint64(attempt-1)) % uint64(workers)),
		DelayFactor: 1,
	}
	for _, o := range fp.Outages {
		if o.Worker == d.Worker && start >= o.From && start < o.Until {
			d.Fail, d.Outage = true, true
			return d
		}
	}
	if fp.FailRate > 0 && attempt <= fp.maxFailures() &&
		unitFloat(mix64(fp.Seed, taskKey, saltFail+uint64(attempt)<<8)) < fp.FailRate {
		d.Fail = true
		return d
	}
	if fp.StragglerRate > 0 &&
		unitFloat(mix64(fp.Seed, taskKey, saltStraggle+uint64(attempt)<<8)) < fp.StragglerRate {
		d.DelayFactor = fp.stragglerFactor()
	}
	return d
}

// CorruptDelivery reports whether the task's first output delivery is
// corrupted in its exchange. The decision is per task, not per
// attempt: once the consumer's checksum fails and the payload is
// priced as recomputed from lineage, the re-delivery is clean.
func (fp *FaultPlan) CorruptDelivery(taskKey uint64) bool {
	return fp.CorruptRate > 0 &&
		unitFloat(mix64(fp.Seed, taskKey, saltCorrupt)) < fp.CorruptRate
}

// mix64 is a splitmix64-style finalizer over the seed, task key and
// stream salt — the plan's only source of randomness.
func mix64(seed, key, salt uint64) uint64 {
	x := seed ^ key*0x9E3779B97F4A7C15 ^ salt*0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
