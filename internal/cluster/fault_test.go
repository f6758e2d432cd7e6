package cluster

import (
	"math"
	"testing"
	"time"
)

func TestFaultPlanDeterministic(t *testing.T) {
	fp := &FaultPlan{Seed: 42, FailRate: 0.3, StragglerRate: 0.2, CorruptRate: 0.25}
	for key := uint64(0); key < 200; key++ {
		for attempt := 1; attempt <= 4; attempt++ {
			a := fp.Decide(key, attempt)
			b := fp.Decide(key, attempt)
			if a != b {
				t.Fatalf("Decide(key=%d attempt=%d) not deterministic: %+v vs %+v", key, attempt, a, b)
			}
		}
		if fp.CorruptDelivery(key) != fp.CorruptDelivery(key) {
			t.Fatalf("CorruptDelivery(key=%d) not deterministic", key)
		}
	}
}

func TestFaultPlanRates(t *testing.T) {
	// Separate plans per fault class: a failed attempt never reports a
	// straggler delay, so mixing classes would undercount stragglers.
	failing := &FaultPlan{Seed: 7, FailRate: 0.25}
	straggling := &FaultPlan{Seed: 7, StragglerRate: 0.1}
	corrupting := &FaultPlan{Seed: 7, CorruptRate: 0.15}
	const n = 20000
	var fails, straggles, corrupts int
	for key := uint64(0); key < n; key++ {
		if failing.Decide(key, 1).Fail {
			fails++
		}
		if straggling.Decide(key, 1).DelayFactor > 1 {
			straggles++
		}
		if corrupting.CorruptDelivery(key) {
			corrupts++
		}
	}
	check := func(name string, got int, want float64) {
		t.Helper()
		ratio := float64(got) / n
		if ratio < want*0.8 || ratio > want*1.2 {
			t.Errorf("%s rate %.3f, want about %.3f", name, ratio, want)
		}
	}
	check("fail", fails, 0.25)
	check("straggler", straggles, 0.1)
	check("corrupt", corrupts, 0.15)
}

func TestFaultPlanSeedsDiffer(t *testing.T) {
	a := &FaultPlan{Seed: 1, FailRate: 0.3}
	b := &FaultPlan{Seed: 2, FailRate: 0.3}
	same := 0
	const n = 1000
	for key := uint64(0); key < n; key++ {
		if a.Decide(key, 1).Fail == b.Decide(key, 1).Fail {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 1 and 2 produced identical fail schedules")
	}
}

func TestFaultPlanFailureCap(t *testing.T) {
	fp := &FaultPlan{Seed: 3, FailRate: 1.0}
	for key := uint64(0); key < 50; key++ {
		if !fp.Decide(key, 1).Fail || !fp.Decide(key, 2).Fail {
			t.Fatalf("key %d: FailRate=1 should fail attempts 1 and 2", key)
		}
		if fp.Decide(key, 3).Fail {
			t.Fatalf("key %d: attempt 3 exceeds MaxFailuresPerTask yet failed", key)
		}
	}
}

func TestFaultPlanValidateAndActive(t *testing.T) {
	var nilPlan *FaultPlan
	if nilPlan.Active() {
		t.Fatal("nil plan reported active")
	}
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan Validate: %v", err)
	}
	if (&FaultPlan{Seed: 9}).Active() {
		t.Fatal("seed-only plan reported active")
	}
	if !(&FaultPlan{CorruptRate: 0.1}).Active() {
		t.Fatal("corrupting plan reported inactive")
	}
	// A NaN rate counts as set, so that it reaches Validate instead of
	// turning the plan off.
	if !(&FaultPlan{FailRate: math.NaN()}).Active() || !(&FaultPlan{StragglerRate: math.NaN()}).Active() {
		t.Fatal("NaN-rate plan reported inactive")
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []FaultPlan{
		{FailRate: 1.5},
		{CorruptRate: -0.1},
		{StragglerFactor: 0.5, StragglerRate: 0.1},
		{FailRate: nan},
		{StragglerRate: nan},
		{CorruptRate: nan},
		{FailRate: inf},
		{CorruptRate: -inf},
		{StragglerRate: 1, StragglerFactor: nan},
		{StragglerRate: 1, StragglerFactor: inf},
		{StragglerRate: 1, StragglerFactor: 1e300},
		{StragglerRate: 1, StragglerFactor: MaxStragglerFactor * 1.01},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("bad plan %d (%+v) passed Validate", i, bad[i])
		}
	}
	good := []FaultPlan{
		{FailRate: 1, StragglerRate: 1, CorruptRate: 1},
		{StragglerRate: 1, StragglerFactor: 1},
		{StragglerRate: 1, StragglerFactor: MaxStragglerFactor},
	}
	for i := range good {
		if err := good[i].Validate(); err != nil {
			t.Errorf("good plan %d (%+v): %v", i, good[i], err)
		}
	}

	// At the largest factor a straggler's priced time stays a positive,
	// finite duration.
	fp := &FaultPlan{StragglerRate: 1, StragglerFactor: MaxStragglerFactor}
	if done, _, _ := fp.RunAttempts(1, 0, time.Hour); done < time.Hour {
		t.Errorf("RunAttempts at the largest factor finished at %v", done)
	}
}
