package cluster

import (
	"math"
	"math/rand"
	"reflect"
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
	attempts, retries, stragglers, specLaunch, specWins, taskFailed int64
	recovery                                                        time.Duration
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

func refTaskLoop(fp *FaultPlan, maxAttempts int, key uint64, start, elapsed time.Duration, workers int) (done time.Duration, trace []Attempt, res refRecorder, failed bool) {
	vstart := start
	for attempt := 1; ; attempt++ {
		dec := fp.Decide(key, attempt, vstart, workers)
		res.attempts++

		if dec.Fail {
			outcome := "failed"
			if dec.Outage {
				outcome = "worker-outage"
			}
			trace = append(trace, Attempt{
				Attempt: attempt, Worker: dec.Worker,
				Start: vstart, End: vstart + elapsed, Outcome: outcome,
			})
			if attempt >= maxAttempts {
				res.taskFailed++
				return 0, trace, res, true
			}
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
			specWon := false
			if sf := refSpecFactor; sf > 0 && dec.DelayFactor > sf {
				specStart := vstart + refScaleDuration(elapsed, sf)
				specDec := fp.Decide(key, attempt+refSpecBase, specStart, workers)
				res.specLaunch++
				res.attempts++
				if !specDec.Fail {
					specDone := specStart + refScaleDuration(elapsed, math.Max(specDec.DelayFactor, 1))
					if specDone < slowDone {
						specWon = true
						done = specDone
						res.specWins++
						trace = append(trace,
							Attempt{Attempt: attempt, Worker: dec.Worker, Start: vstart, End: slowDone, Outcome: "straggler-lost"},
							Attempt{Attempt: attempt, Worker: specDec.Worker, Start: specStart, End: specDone, Outcome: "speculative-win", Speculative: true})
					}
				}
			}
			if !specWon {
				trace = append(trace, Attempt{
					Attempt: attempt, Worker: dec.Worker,
					Start: vstart, End: slowDone, Outcome: "straggler",
				})
			}
			res.addRecovery(done - (vstart + elapsed))
		} else {
			trace = append(trace, Attempt{
				Attempt: attempt, Worker: dec.Worker,
				Start: vstart, End: done, Outcome: "ok",
			})
		}
		return done, trace, res, false
	}
}

// refMorselRecovery is the simulator's old recovery record.
type refMorselRecovery struct {
	Attempts, Retries, Stragglers int64
	SpecLaunched, SpecWins        int64
	Recovery                      time.Duration
}

// refMorselLoop returns the failed-attempt trace only on exhaustion:
// the old loop kept no trace of a morsel that completed.
func refMorselLoop(fp *FaultPlan, maxAttempts int, key uint64, start, dur time.Duration, workers int, rec *refMorselRecovery) (time.Duration, []Attempt) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var trace []Attempt
	vstart := start
	for attempt := 1; ; attempt++ {
		dec := fp.Decide(key, attempt, vstart, workers)
		rec.Attempts++
		if dec.Fail {
			outcome := "failed"
			if dec.Outage {
				outcome = "worker-outage"
			}
			trace = append(trace, Attempt{Attempt: attempt, Worker: dec.Worker, Start: vstart, End: vstart + dur, Outcome: outcome})
			if attempt >= maxAttempts {
				return 0, trace
			}
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
				specDec := fp.Decide(key, attempt+refSpecBase, specStart, workers)
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
		return done, nil
	}
}

// randomFaultPlan draws a plan over all four fault classes: outage sets
// that sometimes cover every worker (so only exhaustion ends the task),
// failure caps on both sides of the attempt budget, straggler factors
// on both sides of the speculation multiple.
func randomFaultPlan(rng *rand.Rand, workers int) *FaultPlan {
	fp := &FaultPlan{Seed: rng.Uint64()}
	if rng.Intn(3) > 0 {
		fp.FailRate = []float64{0.05, 0.3, 0.7, 1}[rng.Intn(4)]
		fp.MaxFailuresPerTask = rng.Intn(9) // 0 = default 2; up to past any budget drawn below
	}
	if rng.Intn(2) == 0 {
		fp.StragglerRate = []float64{0.1, 0.5, 1}[rng.Intn(3)]
		fp.StragglerFactor = []float64{0, 1, 1.5, 2, 2.5, 6, 40}[rng.Intn(7)]
	}
	if rng.Intn(4) == 0 {
		fp.CorruptRate = rng.Float64()
	}
	fp.MaxAttempts = rng.Intn(8) // 0 = default 4
	switch rng.Intn(4) {
	case 0: // every worker dead over one long window
		for w := 0; w < workers; w++ {
			fp.Outages = append(fp.Outages, WorkerOutage{Worker: w, From: 0, Until: time.Duration(rng.Int63n(int64(20 * time.Second)))})
		}
	case 1: // scattered windows
		for i := rng.Intn(4); i > 0; i-- {
			from := time.Duration(rng.Int63n(int64(time.Second)))
			fp.Outages = append(fp.Outages, WorkerOutage{Worker: rng.Intn(workers + 1), From: from, Until: from + time.Duration(rng.Int63n(int64(3*time.Second)))})
		}
	}
	return fp
}

// TestFaultRunAttemptsMatchesOldLoops holds the shared attempt loop to
// both loops it replaced, over random plans × keys × starts × durations
// × worker counts: completion time, attempt trace, recovery record and
// exhaustion are equal.
func TestFaultRunAttemptsMatchesOldLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var exhausted, specWins, outages, retried int
	for i := 0; i < 20000; i++ {
		workers := 1 + rng.Intn(9)
		fp := randomFaultPlan(rng, workers)
		if err := fp.Validate(); err != nil {
			t.Fatalf("drew an invalid plan %+v: %v", fp, err)
		}
		key := rng.Uint64()
		start := time.Duration(rng.Int63n(int64(2 * time.Second)))
		dur := time.Duration(1 + rng.Int63n(int64(800*time.Millisecond)))
		if rng.Intn(10) == 0 {
			dur = 1 // the zero-cost clamp both callers apply
		}
		budget := fp.MaxAttempts
		if budget == 0 {
			budget = 4
		}

		done, trace, rec, failed := fp.RunAttempts(key, start, workers, dur)

		tDone, tTrace, tRes, tFailed := refTaskLoop(fp, budget, key, start, dur, workers)
		wantRec := Recovery{
			Attempts: tRes.attempts, Retries: tRes.retries, Stragglers: tRes.stragglers,
			SpeculativeLaunched: tRes.specLaunch, SpeculativeWins: tRes.specWins,
			TasksFailed: tRes.taskFailed, RecoveryTime: tRes.recovery,
		}
		if done != tDone || failed != tFailed || rec != wantRec || !reflect.DeepEqual(trace, tTrace) {
			t.Fatalf("case %d: plan %+v key %#x start %v dur %v workers %d\n shared loop: done %v exhausted %v rec %+v\n  trace %v\n task loop:   done %v failed %v rec %+v\n  trace %v",
				i, fp, key, start, dur, workers, done, failed, rec, trace, tDone, tFailed, wantRec, tTrace)
		}
		var mRec refMorselRecovery
		mDone, mTrace := refMorselLoop(fp, budget, key, start, dur, workers, &mRec)
		if mTrace != nil {
			if !failed || !reflect.DeepEqual(trace, mTrace) {
				t.Fatalf("case %d: morsel loop exhausted with trace %v; shared loop exhausted %v trace %v", i, mTrace, failed, trace)
			}
		} else if failed {
			t.Fatalf("case %d: shared loop exhausted, morsel loop completed at %v", i, mDone)
		}
		gotM := refMorselRecovery{rec.Attempts, rec.Retries, rec.Stragglers, rec.SpeculativeLaunched, rec.SpeculativeWins, rec.RecoveryTime}
		if done != mDone || gotM != mRec {
			t.Fatalf("case %d: plan %+v\n shared loop: done %v rec %+v\n morsel loop: done %v rec %+v", i, fp, done, gotM, mDone, mRec)
		}

		if failed {
			exhausted++
		}
		specWins += int(rec.SpeculativeWins)
		retried += int(rec.Retries)
		for _, a := range trace {
			if a.Outcome == AttemptOutage {
				outages++
			}
		}
	}
	// The draw must reach every branch of the loop, or equality proves
	// nothing.
	if exhausted == 0 || specWins == 0 || outages == 0 || retried == 0 {
		t.Errorf("random plans missed a branch: %d exhausted, %d speculative wins, %d outage attempts, %d retries",
			exhausted, specWins, outages, retried)
	}
}
