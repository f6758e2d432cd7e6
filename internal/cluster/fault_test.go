package cluster

import (
	"testing"
	"time"
)

func TestFaultPlanDeterministic(t *testing.T) {
	fp := &FaultPlan{Seed: 42, FailRate: 0.3, StragglerRate: 0.2, CorruptRate: 0.25}
	for key := uint64(0); key < 200; key++ {
		for attempt := 1; attempt <= 4; attempt++ {
			a := fp.Decide(key, attempt, 100*time.Millisecond, 9)
			b := fp.Decide(key, attempt, 100*time.Millisecond, 9)
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
		if failing.Decide(key, 1, 0, 9).Fail {
			fails++
		}
		if straggling.Decide(key, 1, 0, 9).DelayFactor > 1 {
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
		if a.Decide(key, 1, 0, 9).Fail == b.Decide(key, 1, 0, 9).Fail {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 1 and 2 produced identical fail schedules")
	}
}

func TestFaultPlanFailureCap(t *testing.T) {
	fp := &FaultPlan{Seed: 3, FailRate: 1.0, MaxFailuresPerTask: 2}
	for key := uint64(0); key < 50; key++ {
		if !fp.Decide(key, 1, 0, 9).Fail || !fp.Decide(key, 2, 0, 9).Fail {
			t.Fatalf("key %d: FailRate=1 should fail attempts 1 and 2", key)
		}
		if fp.Decide(key, 3, 0, 9).Fail {
			t.Fatalf("key %d: attempt 3 exceeds MaxFailuresPerTask=2 yet failed", key)
		}
	}
}

func TestFaultPlanOutageWindowAndRotation(t *testing.T) {
	fp := &FaultPlan{Seed: 11, Outages: []WorkerOutage{{Worker: 2, From: 0, Until: time.Second}}}
	foundOutage := false
	for key := uint64(0); key < 100; key++ {
		d := fp.Decide(key, 1, 500*time.Millisecond, 4)
		if d.Worker == 2 {
			if !d.Fail || !d.Outage {
				t.Fatalf("key %d on dead worker 2 did not fail with outage", key)
			}
			foundOutage = true
			// A retry rotates to the next worker and must survive.
			d2 := fp.Decide(key, 2, 600*time.Millisecond, 4)
			if d2.Worker == 2 {
				t.Fatalf("key %d attempt 2 re-placed on failed worker 2", key)
			}
			if d2.Fail {
				t.Fatalf("key %d attempt 2 on live worker %d failed", key, d2.Worker)
			}
			// Past the window the dead worker is healthy again.
			d3 := fp.Decide(key, 1, 2*time.Second, 4)
			if d3.Fail {
				t.Fatalf("key %d failed on worker %d after outage window", key, d3.Worker)
			}
		} else if d.Fail {
			t.Fatalf("key %d failed on live worker %d", key, d.Worker)
		}
	}
	if !foundOutage {
		t.Fatal("no task landed on the dead worker; placement hash suspicious")
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
	bad := []FaultPlan{
		{FailRate: 1.5},
		{CorruptRate: -0.1},
		{StragglerFactor: 0.5, StragglerRate: 0.1},
		{Outages: []WorkerOutage{{Worker: -1}}},
		{Outages: []WorkerOutage{{Worker: 0, From: time.Second, Until: 0}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("bad plan %d passed Validate", i)
		}
	}
}
