package cluster

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// The two attempt loops RunAttempts replaced, kept as its references:
// refTaskLoop is the attempt half of the task scheduler's former
// runResilient (pricing only — fed a fixed duration where that loop
// re-executed the operator), refMorselLoop is the morsel simulator's
// runMorselResilient. Their knobs are the values nothing ever changed,
// spelled as literals so the test also pins the constants beside the
// shared loop.
const (
	refRetryBackoff = 50 * time.Millisecond
	refMaxBackoff   = 2 * time.Second
	refSpecFactor   = 2.0
	refSpecBase     = 1 << 16
)

// refRecorder is the scheduler's old recovery bookkeeping.
type refRecorder struct {
	attempts, retries, stragglers, specLaunch, specWins int64
	recovery                                            time.Duration
}

func (r *refRecorder) addRecovery(d time.Duration) {
	if d > 0 {
		r.recovery += d
	}
}

func refRetryDelay(base time.Duration, failedAttempt int) time.Duration {
	d := base << (failedAttempt - 1)
	if d > refMaxBackoff || d <= 0 {
		return refMaxBackoff
	}
	return d
}

func refScaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// refTaskLoop returns the length of the attempt trace the old loop
// wrote: one entry per attempt, and one more for a speculative
// duplicate that won.
func refTaskLoop(fp *FaultPlan, key uint64, start, elapsed time.Duration) (done time.Duration, trace int, res refRecorder) {
	vstart := start
	for attempt := 1; ; attempt++ {
		dec := fp.Decide(key, attempt)
		res.attempts++
		trace++

		if dec.Fail {
			res.retries++
			wait := refRetryDelay(refRetryBackoff, attempt)
			res.addRecovery(elapsed + wait)
			vstart += elapsed + wait
			continue
		}

		done := vstart + elapsed
		if dec.DelayFactor > 1 {
			res.stragglers++
			slowDone := vstart + refScaleDuration(elapsed, dec.DelayFactor)
			done = slowDone
			if sf := refSpecFactor; sf > 0 && dec.DelayFactor > sf {
				specStart := vstart + refScaleDuration(elapsed, sf)
				specDec := fp.Decide(key, attempt+refSpecBase)
				res.specLaunch++
				res.attempts++
				if !specDec.Fail {
					specDone := specStart + refScaleDuration(elapsed, math.Max(specDec.DelayFactor, 1))
					if specDone < slowDone {
						done = specDone
						res.specWins++
						trace++
					}
				}
			}
			res.addRecovery(done - (vstart + elapsed))
		}
		return done, trace, res
	}
}

// refMorselRecovery is the simulator's old recovery record.
type refMorselRecovery struct {
	Attempts, Retries, Stragglers int64
	SpecLaunched, SpecWins        int64
	Recovery                      time.Duration
}

func refMorselLoop(fp *FaultPlan, key uint64, start, dur time.Duration, rec *refMorselRecovery) time.Duration {
	vstart := start
	for attempt := 1; ; attempt++ {
		dec := fp.Decide(key, attempt)
		rec.Attempts++
		if dec.Fail {
			rec.Retries++
			wait := refRetryBackoff << (attempt - 1)
			if wait > refMaxBackoff || wait <= 0 {
				wait = refMaxBackoff
			}
			rec.Recovery += dur + wait
			vstart += dur + wait
			continue
		}
		done := vstart + dur
		if dec.DelayFactor > 1 {
			rec.Stragglers++
			slowDone := vstart + time.Duration(float64(dur)*dec.DelayFactor)
			done = slowDone
			if sf := refSpecFactor; sf > 0 && dec.DelayFactor > sf {
				specStart := vstart + time.Duration(float64(dur)*sf)
				specDec := fp.Decide(key, attempt+refSpecBase)
				rec.SpecLaunched++
				rec.Attempts++
				if !specDec.Fail {
					specDone := specStart + time.Duration(float64(dur)*math.Max(specDec.DelayFactor, 1))
					if specDone < slowDone {
						done = specDone
						rec.SpecWins++
					}
				}
			}
			rec.Recovery += done - (vstart + dur)
		}
		return done
	}
}

// randomFaultPlan draws a plan over the three fault classes: straggler
// factors on both sides of the speculation multiple.
func randomFaultPlan(rng *rand.Rand) *FaultPlan {
	fp := &FaultPlan{Seed: rng.Uint64()}
	if rng.Intn(3) > 0 {
		fp.FailRate = []float64{0.05, 0.3, 0.7, 1}[rng.Intn(4)]
	}
	if rng.Intn(2) == 0 {
		fp.StragglerRate = []float64{0.1, 0.5, 1}[rng.Intn(3)]
		fp.StragglerFactor = []float64{0, 1, 1.5, 2, 2.5, 6, 40}[rng.Intn(7)]
	}
	if rng.Intn(4) == 0 {
		fp.CorruptRate = rng.Float64()
	}
	return fp
}

// TestFaultRunAttemptsMatchesOldLoops holds the shared attempt loop to
// both loops it replaced, over random plans × keys × starts ×
// durations: completion time, attempt count and recovery record are
// equal.
func TestFaultRunAttemptsMatchesOldLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var specWins, specLosses, capped int
	for i := 0; i < 20000; i++ {
		fp := randomFaultPlan(rng)
		if err := fp.Validate(); err != nil {
			t.Fatalf("drew an invalid plan %+v: %v", fp, err)
		}
		key := rng.Uint64()
		start := time.Duration(rng.Int63n(int64(2 * time.Second)))
		dur := time.Duration(1 + rng.Int63n(int64(800*time.Millisecond)))
		if rng.Intn(10) == 0 {
			dur = 1 // the zero-cost clamp both callers apply
		}

		done, attempts, rec := fp.RunAttempts(key, start, dur)

		tDone, tTrace, tRes := refTaskLoop(fp, key, start, dur)
		wantRec := Recovery{
			Attempts: tRes.attempts, Retries: tRes.retries, Stragglers: tRes.stragglers,
			SpeculativeLaunched: tRes.specLaunch, SpeculativeWins: tRes.specWins,
			RecoveryTime: tRes.recovery,
		}
		if done != tDone || attempts != tTrace || rec != wantRec {
			t.Fatalf("case %d: plan %+v key %#x start %v dur %v\n shared loop: done %v attempts %d rec %+v\n task loop:   done %v trace %d rec %+v",
				i, fp, key, start, dur, done, attempts, rec, tDone, tTrace, wantRec)
		}
		var mRec refMorselRecovery
		mDone := refMorselLoop(fp, key, start, dur, &mRec)
		gotM := refMorselRecovery{rec.Attempts, rec.Retries, rec.Stragglers, rec.SpeculativeLaunched, rec.SpeculativeWins, rec.RecoveryTime}
		if done != mDone || gotM != mRec {
			t.Fatalf("case %d: plan %+v\n shared loop: done %v rec %+v\n morsel loop: done %v rec %+v", i, fp, done, gotM, mDone, mRec)
		}

		specWins += int(rec.SpeculativeWins)
		specLosses += int(rec.SpeculativeLaunched - rec.SpeculativeWins)
		if rec.Retries == MaxFailuresPerTask {
			capped++
		}
	}
	// The draw must reach every branch of the loop, or equality proves
	// nothing.
	if specWins == 0 || specLosses == 0 || capped == 0 {
		t.Errorf("random plans missed a branch: %d speculative wins, %d speculative losses, %d tasks at the failure cap",
			specWins, specLosses, capped)
	}
}
