package serve

import (
	"math"
	"testing"
	"time"
)

// fakeClockBreaker returns a breaker on a clock the
// test advances by hand.
func fakeClockBreaker() (*breaker, *time.Time) {
	clock := time.Unix(1000, 0)
	b := newBreaker()
	b.now = func() time.Time { return clock }
	return b, &clock
}

// TestBreakerWindowSlides: failures count only while they are inside
// the window. Four failures are one short of the minimum sample; a
// fifth inside the window trips the breaker, a fifth arriving after the
// window has passed finds the first four gone.
func TestBreakerWindowSlides(t *testing.T) {
	b, clock := fakeClockBreaker()
	for i := 0; i < breakerMinSamples-1; i++ {
		b.record(true, 0)
		*clock = clock.Add(time.Second)
	}
	*clock = clock.Add(breakerWindow)
	b.record(true, 0)
	if st := b.stateName(); st != "closed" {
		t.Fatalf("state = %q after failures a window apart, want closed", st)
	}
	if b.total != 1 || b.failed != 1 {
		t.Fatalf("window holds %d outcomes (%d failed) after sliding, want 1 (1)", b.total, b.failed)
	}

	// Still inside the window, and diluted below the threshold by
	// successes, the same failures do not trip it either...
	for i := 0; i < 3*breakerMinSamples; i++ {
		b.record(false, 0)
	}
	*clock = clock.Add(breakerWindow / 2)
	for i := 0; i < breakerMinSamples; i++ {
		b.record(true, 0)
	}
	if st := b.stateName(); st != "closed" {
		t.Fatalf("state = %q at 6 failures of 21, want closed", st)
	}
	// ...until the successes slide out and the failures left behind are
	// the majority.
	*clock = clock.Add(breakerWindow/2 + 2*time.Second)
	b.record(true, 0)
	if st := b.stateName(); st != "open" {
		t.Fatalf("state = %q once only failures remain in the window, want open", st)
	}
	if ok, _ := b.allow(); ok {
		t.Error("open breaker admitted a query inside the cooldown")
	}
	*clock = clock.Add(breakerCooldown)
	ok, probe := b.allow()
	if !ok || probe == 0 || b.stateName() != "half-open" {
		t.Errorf("breaker past its cooldown: state %q, want an admitted half-open probe", b.stateName())
	}
	b.record(false, probe)
	if st := b.stateName(); st != "closed" || b.total != 0 {
		t.Errorf("after a successful probe: state %q with %d outcomes, want closed and empty", st, b.total)
	}
}

// TestBreakerHalfOpenAdmitsOneProbe: past its cooldown a tripped
// breaker admits a single probe and sheds everything else until the
// probe records. A probe that abandons (no execution outcome) frees the
// slot without changing state; a superseded probe's abandon or outcome
// frees nothing and decides nothing, and neither does a query admitted
// while closed. A probe out for a whole cooldown is superseded.
func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	b, clock := fakeClockBreaker()
	ok, closedQuery := b.allow()
	if !ok || closedQuery != 0 {
		t.Fatalf("closed breaker: allow = %v, probe %d; want admitted, no probe", ok, closedQuery)
	}
	trip := func() {
		for i := 0; i < breakerMinSamples; i++ {
			b.record(true, 0)
		}
		*clock = clock.Add(breakerCooldown)
	}
	trip()

	_, first := b.allow()
	if first == 0 {
		t.Fatal("half-open breaker admitted no probe")
	}
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := b.allow(); ok {
			admitted++
		}
	}
	if admitted != 0 {
		t.Errorf("%d of 10 queries admitted while a probe was out; want 0", admitted)
	}
	b.abandon(closedQuery)
	if ok, _ := b.allow(); ok {
		t.Error("a query admitted while closed freed the probe slot")
	}

	b.abandon(first)
	if st := b.stateName(); st != "half-open" {
		t.Errorf("state after an abandoned probe = %q, want half-open", st)
	}
	_, second := b.allow()
	if second == 0 || second == first {
		t.Fatalf("after an abandoned probe: probe %d, want a new one", second)
	}
	b.record(false, closedQuery) // not the probe: decides nothing
	if ok, _ := b.allow(); ok || b.stateName() != "half-open" {
		t.Errorf("a query admitted while closed recorded for the probe: state %q, next admitted %v", b.stateName(), ok)
	}
	b.record(true, second) // the probe fails: open again
	if st := b.stateName(); st != "open" {
		t.Fatalf("state after a failed probe = %q, want open", st)
	}
	*clock = clock.Add(breakerCooldown)
	_, third := b.allow()
	b.abandon(second) // superseded: must not free the third probe's slot
	b.record(false, second)
	if ok, _ := b.allow(); third == 0 || ok || b.stateName() != "half-open" {
		t.Errorf("a superseded probe freed or decided the current probe's slot (third probe %d, next admitted %v, state %q)", third, ok, b.stateName())
	}

	// The third probe stalls: it holds the slot just short of a
	// cooldown, then the next query supersedes it.
	*clock = clock.Add(breakerCooldown - time.Nanosecond)
	if ok, _ := b.allow(); ok {
		t.Error("a query was admitted beside a probe out for less than a cooldown")
	}
	*clock = clock.Add(time.Nanosecond)
	ok, fourth := b.allow()
	if !ok || fourth == 0 || fourth == third {
		t.Fatalf("probe out for a cooldown not superseded: allow %v, probe %d (stalled %d)", ok, fourth, third)
	}
	b.record(true, third) // the stalled probe ends: its outcome is stale
	if st := b.stateName(); st != "half-open" {
		t.Errorf("a superseded probe's outcome moved the breaker to %q, want half-open", st)
	}
	b.record(false, fourth)
	if ok, probe := b.allow(); b.stateName() != "closed" || !ok || probe != 0 {
		t.Errorf("after a successful probe: state %q, allow %v (probe %d); want closed and admitting", b.stateName(), ok, probe)
	}
}

// TestBreakerRecordCostIndependentOfWindowPopulation: recording an
// outcome must cost the same with sixty thousand outcomes in the window
// as with a few hundred — a server under steady load must not slow
// down as its breaker window fills.
func TestBreakerRecordCostIndependentOfWindowPopulation(t *testing.T) {
	b, clock := fakeClockBreaker()
	cost := func() time.Duration { // best of five timings of 300 records
		best := time.Duration(math.MaxInt64)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			for i := 0; i < 300; i++ {
				b.record(false, 0)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	sparse := cost()
	for i := 0; i < 60000; i++ {
		if i%3000 == 0 {
			*clock = clock.Add(time.Second) // twenty slices, all inside the window
		}
		b.record(false, 0)
	}
	if b.total < 60000 {
		t.Fatalf("window holds %d outcomes, want at least 60000", b.total)
	}
	full := cost()
	t.Logf("300 records: %v with a sparse window, %v with %d outcomes in it", sparse, full, b.total)
	if full > 8*sparse+50*time.Microsecond {
		t.Errorf("record slowed from %v to %v per 300 as the window filled", sparse, full)
	}
}
