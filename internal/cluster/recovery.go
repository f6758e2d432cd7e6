package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// What an executor does about a FaultPlan's decisions: the one attempt
// loop (RunAttempts), the attempt trace it writes and the recovery
// record it charges. Both executors price recovery through this loop;
// what differs is the caller's unit of work — the task scheduler
// re-runs a whole operator per attempt, the morsel simulator re-prices
// one morsel — not the mechanism.

// The retry and speculation policy. Constants, not options: nothing in
// the tree ever set them to anything else, and every seeded schedule's
// SimTime depends on them.
const (
	// DefaultMaxAttempts is the per-task attempt budget when
	// FaultPlan.MaxAttempts is zero.
	DefaultMaxAttempts = 4
	// RetryBackoff is the virtual delay charged between a failed first
	// attempt and its retry; it doubles per failure up to
	// MaxRetryBackoff.
	RetryBackoff = 50 * time.Millisecond
	// MaxRetryBackoff caps the exponential retry backoff.
	MaxRetryBackoff = 2 * time.Second
	// SpeculativeFactor is the straggler-detection multiple: an attempt
	// running past this multiple of its fault-free time gets a
	// speculative duplicate launched against it, first finisher wins.
	SpeculativeFactor = 2.0

	// speculativeAttemptBase offsets speculative duplicates into their
	// own fault decision stream, far past any real attempt number (and
	// so past the injected-failure cap: only an outage window can kill
	// a duplicate).
	speculativeAttemptBase = 1 << 16
)

// Attempt outcomes recorded in an attempt trace.
const (
	// AttemptOK is a clean successful attempt.
	AttemptOK = "ok"
	// AttemptFailed is an injected outright attempt failure.
	AttemptFailed = "failed"
	// AttemptOutage is an attempt lost to a worker-outage window.
	AttemptOutage = "worker-outage"
	// AttemptStraggler is a successful but slowed attempt that still won
	// (no speculative duplicate, or the duplicate was slower).
	AttemptStraggler = "straggler"
	// AttemptStragglerLost is a straggling attempt beaten by its
	// speculative duplicate.
	AttemptStragglerLost = "straggler-lost"
	// AttemptSpeculativeWin is a speculative duplicate that finished
	// before the straggler it was launched against.
	AttemptSpeculativeWin = "speculative-win"
)

// Attempt is one entry of an attempt trace: where the attempt ran on
// the virtual timeline and how it ended.
type Attempt struct {
	// Attempt is the 1-based attempt number (a speculative duplicate
	// shares its straggler's number).
	Attempt int
	// Worker is the simulated worker the attempt was placed on.
	Worker int
	// Start and End bound the attempt on the virtual timeline.
	Start, End time.Duration
	// Outcome is one of the Attempt* constants.
	Outcome string
	// Speculative marks a duplicate launched by the straggler detector.
	Speculative bool
}

// String renders one attempt for the error trace.
func (a Attempt) String() string {
	kind := ""
	if a.Speculative {
		kind = " (speculative)"
	}
	return fmt.Sprintf("attempt %d%s on worker %d [%v..%v]: %s",
		a.Attempt, kind, a.Worker, a.Start.Round(time.Microsecond), a.End.Round(time.Microsecond), a.Outcome)
}

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
	// ChecksumFailures counts corrupted exchange payloads detected by
	// the consumer-side checksum.
	ChecksumFailures int64 `json:"checksumFailures"`
	// LineageRecomputes counts tasks re-executed from lineage to restore
	// a corrupted or freed input.
	LineageRecomputes int64 `json:"lineageRecomputes"`
	// TasksFailed counts tasks that exhausted their attempt budget and
	// aborted their query.
	TasksFailed int64 `json:"tasksFailed"`
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
	r.TasksFailed += o.TasksFailed
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

// ErrAttemptsExhausted is what RunAttempts returns when a task's last
// budgeted attempt failed; callers wrap it into their own typed error
// with the attempt trace.
var ErrAttemptsExhausted = errors.New("cluster: attempt budget exhausted")

// RunAttempts runs one task's attempt loop on the virtual timeline.
// attempt executes (or re-prices) the task once and returns its
// fault-free priced time; it is called once per non-speculative attempt,
// and an error from it — a real failure, not an injected one — stops
// the loop and is returned as is. An injected failure consumes the
// attempt's time, backs off (capped exponential) and retries on the next
// worker; a straggler stretches by its delay factor and, past
// SpeculativeFactor, races a speculative duplicate. Sibling tasks of
// one operator are symmetric in the simulator, so the attempt's own
// fault-free time stands in for the median sibling time the detector
// compares against.
//
// It returns the task's virtual completion time, the full attempt
// trace, and the recovery it charged — all valid on error too, where
// they describe the attempts made so far. ErrAttemptsExhausted means the
// budget (FaultPlan.MaxAttempts) ran out; rec.TasksFailed is 1 then.
// Everything is a pure function of (Seed, key, start, workers) and the
// times attempt returns.
func (fp *FaultPlan) RunAttempts(key uint64, start time.Duration, workers int, attempt func() (time.Duration, error)) (done time.Duration, trace []Attempt, rec Recovery, err error) {
	budget := fp.maxAttempts()
	vstart := start
	for n := 1; ; n++ {
		dec := fp.Decide(key, n, vstart, workers)
		dur, aerr := attempt()
		if aerr != nil {
			return 0, trace, rec, aerr
		}
		rec.Attempts++

		if dec.Fail {
			outcome := AttemptFailed
			if dec.Outage {
				outcome = AttemptOutage
			}
			trace = append(trace, Attempt{Attempt: n, Worker: dec.Worker, Start: vstart, End: vstart + dur, Outcome: outcome})
			if n >= budget {
				rec.TasksFailed++
				return 0, trace, rec, ErrAttemptsExhausted
			}
			rec.Retries++
			wait := RetryBackoff << (n - 1)
			if wait > MaxRetryBackoff || wait <= 0 {
				wait = MaxRetryBackoff
			}
			rec.RecoveryTime += dur + wait
			vstart += dur + wait
			continue
		}

		if dec.DelayFactor <= 1 {
			done = vstart + dur
			trace = append(trace, Attempt{Attempt: n, Worker: dec.Worker, Start: vstart, End: done, Outcome: AttemptOK})
			return done, trace, rec, nil
		}

		rec.Stragglers++
		slowDone := vstart + scale(dur, dec.DelayFactor)
		done = slowDone
		// last is the trace's final entry: the straggler itself, or the
		// duplicate that beat it.
		last := Attempt{Attempt: n, Worker: dec.Worker, Start: vstart, End: slowDone, Outcome: AttemptStraggler}
		if dec.DelayFactor > SpeculativeFactor {
			specStart := vstart + scale(dur, SpeculativeFactor)
			specDec := fp.Decide(key, n+speculativeAttemptBase, specStart, workers)
			rec.SpeculativeLaunched++
			rec.Attempts++
			if !specDec.Fail {
				if specDone := specStart + scale(dur, math.Max(specDec.DelayFactor, 1)); specDone < slowDone {
					done = specDone
					rec.SpeculativeWins++
					last.Outcome = AttemptStragglerLost
					trace = append(trace, last)
					last = Attempt{Attempt: n, Worker: specDec.Worker, Start: specStart, End: specDone, Outcome: AttemptSpeculativeWin, Speculative: true}
				}
			}
		}
		trace = append(trace, last)
		rec.RecoveryTime += done - (vstart + dur)
		return done, trace, rec, nil
	}
}

// scale multiplies a virtual duration by a straggler or speculation
// factor.
func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
