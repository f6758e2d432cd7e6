package cluster

import (
	"fmt"
	"time"
)

// What an executor does about a FaultPlan's decisions: the one attempt
// loop (RunAttempts) and the recovery record it charges. Both executors
// price recovery through this loop, never re-executing anything; what
// differs is the caller's unit of work — one operator for the task
// scheduler, one morsel for the morsel simulator — not the mechanism.

// The retry and speculation policy. Constants, not options: nothing in
// the tree ever set them to anything else, and every seeded schedule's
// SimTime depends on them.
const (
	// RetryBackoff is the virtual delay charged between a failed first
	// attempt and its retry; it doubles per failure (at most
	// MaxFailuresPerTask of them).
	RetryBackoff = 50 * time.Millisecond
	// SpeculativeFactor is the straggler-detection multiple: an attempt
	// running past this multiple of its fault-free time gets a
	// speculative duplicate launched against it, first finisher wins.
	SpeculativeFactor = 2.0

	// speculativeAttemptBase offsets speculative duplicates into their
	// own fault decision stream, far past any real attempt number (and
	// so past MaxFailuresPerTask: a duplicate never fails).
	speculativeAttemptBase = 1 << 16
)

// Recovery is the fault-recovery record: what RunAttempts accumulates
// for one task, what a query's Result carries, what a store totals
// across queries and what /stats embeds (the JSON tags are its
// "resilience" object, in this order). The zero value means no fault
// activity. Plain fields: concurrent tasks each fill their own and the
// owner folds them in with Add under its lock.
type Recovery struct {
	// Attempts counts every execution attempt, including clean first
	// tries and speculative duplicates.
	Attempts int64 `json:"attempts"`
	// Retries counts re-executions after a failed attempt.
	Retries int64 `json:"retries"`
	// Stragglers counts attempts the fault plan slowed down.
	Stragglers int64 `json:"stragglers"`
	// SpeculativeLaunched and SpeculativeWins count straggler-triggered
	// duplicate attempts and how many finished first.
	SpeculativeLaunched int64 `json:"speculativeLaunched"`
	SpeculativeWins     int64 `json:"speculativeWins"`
	// ChecksumFailures counts the corrupted deliveries the fault plan
	// injected, each priced as detected by its consumer's checksum.
	ChecksumFailures int64 `json:"checksumFailures"`
	// LineageRecomputes counts the tasks (operators or morsels) priced
	// as recomputed from lineage to restore a corrupted delivery.
	LineageRecomputes int64 `json:"lineageRecomputes"`
	// RecoveryTime is the total priced recovery charged into the virtual
	// clock: failed-attempt work, retry backoff, straggler delay beyond
	// the clean time and lineage recomputation. SimTime exceeds the
	// fault-free run by at most this much (recovery on parallel branches
	// overlaps).
	RecoveryTime time.Duration `json:"-"`
}

// Add folds another record into r.
func (r *Recovery) Add(o Recovery) {
	r.Attempts += o.Attempts
	r.Retries += o.Retries
	r.Stragglers += o.Stragglers
	r.SpeculativeLaunched += o.SpeculativeLaunched
	r.SpeculativeWins += o.SpeculativeWins
	r.ChecksumFailures += o.ChecksumFailures
	r.LineageRecomputes += o.LineageRecomputes
	r.RecoveryTime += o.RecoveryTime
}

// Recovered reports whether the execution hit any injected fault.
func (r Recovery) Recovered() bool {
	return r.Retries > 0 || r.Stragglers > 0 || r.ChecksumFailures > 0 ||
		r.SpeculativeLaunched > 0 || r.LineageRecomputes > 0
}

// String renders the recovery record for EXPLAIN output; "" when the
// execution saw no fault activity at all.
func (r Recovery) String() string {
	if r.Attempts == 0 {
		return ""
	}
	return fmt.Sprintf(
		"resilience: attempts=%d retries=%d stragglers=%d speculative=%d/%d checksum-failures=%d lineage-recomputes=%d recovery=%v\n",
		r.Attempts, r.Retries, r.Stragglers, r.SpeculativeWins, r.SpeculativeLaunched,
		r.ChecksumFailures, r.LineageRecomputes, r.RecoveryTime.Round(time.Microsecond))
}

// RunAttempts prices one task's attempt loop on the virtual timeline;
// dur is the task's fault-free priced time, which every attempt costs.
// An injected failure consumes the attempt's time, backs off
// (exponentially) and retries; a straggler stretches by its delay
// factor and, past SpeculativeFactor, races a speculative duplicate.
// Sibling tasks of one operator are symmetric in the simulator, so the
// task's own fault-free time stands in for the median sibling time the
// detector compares against.
//
// It returns the task's virtual completion time, its attempt count for
// EXPLAIN (every attempt, a speculative duplicate only when it won),
// and the recovery it charged. At most MaxFailuresPerTask attempts
// fail, so the loop always completes. Everything is a pure function of
// (Seed, key, start, dur).
func (fp *FaultPlan) RunAttempts(key uint64, start, dur time.Duration) (done time.Duration, attempts int, rec Recovery) {
	vstart := start
	for n := 1; ; n++ {
		dec := fp.Decide(key, n)
		rec.Attempts++

		if dec.Fail {
			rec.Retries++
			wait := RetryBackoff << (n - 1)
			rec.RecoveryTime += dur + wait
			vstart += dur + wait
			continue
		}

		if dec.DelayFactor <= 1 {
			return vstart + dur, n, rec
		}

		rec.Stragglers++
		done, attempts = vstart+scale(dur, dec.DelayFactor), n
		if dec.DelayFactor > SpeculativeFactor {
			specStart := vstart + scale(dur, SpeculativeFactor)
			specDec := fp.Decide(key, n+speculativeAttemptBase)
			rec.SpeculativeLaunched++
			rec.Attempts++
			if specDone := specStart + scale(dur, specDec.DelayFactor); specDone < done {
				done, attempts = specDone, n+1
				rec.SpeculativeWins++
			}
		}
		rec.RecoveryTime += done - (vstart + dur)
		return done, attempts, rec
	}
}

// scale multiplies a virtual duration by a straggler or speculation
// factor.
func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
