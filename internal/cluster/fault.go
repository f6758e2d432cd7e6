package cluster

import "fmt"

// FaultPlan is a deterministic, seedable fault-injection schedule for
// chaos testing the execution stack. Every decision is a pure function
// of (Seed, task key, attempt number) — never of wall time, pool
// interleaving or call order — so a fault run is exactly reproducible:
// the same plan over the same data under the same FaultPlan injects the
// same failures at the same virtual times and prices the same recovery,
// no matter how many goroutines execute it.
//
// Three fault classes are supported, mirroring what a real cluster
// loses: outright task-attempt failures (FailRate), stragglers whose
// priced time is multiplied (StragglerRate/StragglerFactor), and
// corrupted exchange deliveries (CorruptRate). Faults are priced on the
// virtual clock, not acted out: no payload is ever touched and nothing
// is re-executed. Every schedule recovers: at most MaxFailuresPerTask
// attempts of a task fail, and the next one runs.
type FaultPlan struct {
	// Seed selects the pseudo-random schedule; two plans with different
	// seeds inject disjoint fault patterns at the same rates.
	Seed uint64
	// FailRate is the probability one of a task's first
	// MaxFailuresPerTask attempts fails outright after consuming its
	// priced time.
	FailRate float64
	// StragglerRate is the probability an attempt runs slow; its priced
	// time is multiplied by StragglerFactor.
	StragglerRate float64
	// StragglerFactor multiplies a straggling attempt's priced time
	// (0 = DefaultStragglerFactor; in [1, MaxStragglerFactor]
	// otherwise).
	StragglerFactor float64
	// CorruptRate is the probability a task's first output delivery is
	// corrupted in the exchange, priced as the consumer's checksum
	// failing and the producer being recomputed from lineage.
	// Re-deliveries are always clean.
	CorruptRate float64
}

// Fault-plan constants.
const (
	// MaxFailuresPerTask bounds the injected outright failures per task:
	// the attempt after them always runs, so every schedule recovers.
	MaxFailuresPerTask = 2
	// DefaultStragglerFactor is the priced-time multiplier of an
	// injected straggler when FaultPlan.StragglerFactor is zero.
	DefaultStragglerFactor = 6.0
	// MaxStragglerFactor bounds FaultPlan.StragglerFactor, so that a
	// straggler's priced time stays a finite, representable duration.
	MaxStragglerFactor = 1000.0
)

// FaultDecision is the fate of one task attempt under a FaultPlan.
type FaultDecision struct {
	// Fail reports the attempt dies after consuming its priced time.
	Fail bool
	// DelayFactor multiplies the attempt's priced time; 1 for a healthy
	// attempt, StragglerFactor for an injected straggler.
	DelayFactor float64
}

// Validate reports configuration errors. NaN fails every range test
// (the comparisons are written so that it does), and so does ±Inf.
func (fp *FaultPlan) Validate() error {
	if fp == nil {
		return nil
	}
	for _, r := range []struct {
		name string
		rate float64
	}{{"FailRate", fp.FailRate}, {"StragglerRate", fp.StragglerRate}, {"CorruptRate", fp.CorruptRate}} {
		if !(r.rate >= 0 && r.rate <= 1) {
			return fmt.Errorf("cluster: FaultPlan.%s = %g out of [0,1]", r.name, r.rate)
		}
	}
	if f := fp.StragglerFactor; f != 0 && !(f >= 1 && f <= MaxStragglerFactor) {
		return fmt.Errorf("cluster: FaultPlan.StragglerFactor = %g out of [1,%g]", f, MaxStragglerFactor)
	}
	return nil
}

// Active reports whether the plan injects anything at all; executors
// skip every resilience hook (recovery pricing, attempt bookkeeping) for
// an inactive plan, keeping the fault-free hot path untouched. A rate
// that is set but invalid (NaN included) counts as active, so that it
// reaches Validate instead of turning the plan off.
func (fp *FaultPlan) Active() bool {
	return fp != nil && (fp.FailRate != 0 || fp.StragglerRate != 0 || fp.CorruptRate != 0)
}

// stragglerFactor resolves the straggler multiplier.
func (fp *FaultPlan) stragglerFactor() float64 {
	if fp.StragglerFactor >= 1 {
		return fp.StragglerFactor
	}
	return DefaultStragglerFactor
}

// Hash salts separating the independent decision streams. Their values
// are part of every seeded schedule.
const (
	saltFail     uint64 = 2
	saltStraggle uint64 = 3
	saltCorrupt  uint64 = 4
)

// Decide returns the fate of one attempt of a task: whether it fails,
// and its straggler delay factor. attempt is 1-based.
func (fp *FaultPlan) Decide(taskKey uint64, attempt int) FaultDecision {
	d := FaultDecision{DelayFactor: 1}
	if fp.FailRate > 0 && attempt <= MaxFailuresPerTask &&
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
