package serve

import (
	"math"
	"testing"
	"time"
)

// fakeClockBreaker returns a default-configured breaker on a clock the
// test advances by hand.
func fakeClockBreaker() (*breaker, *time.Time) {
	clock := time.Unix(1000, 0)
	b := newBreaker(0, 0, 0, 0)
	b.now = func() time.Time { return clock }
	return b, &clock
}

// TestBreakerWindowSlides: failures count only while they are inside
// the window. Four failures are one short of the minimum sample; a
// fifth inside the window trips the breaker, a fifth arriving after the
// window has passed finds the first four gone.
func TestBreakerWindowSlides(t *testing.T) {
	b, clock := fakeClockBreaker()
	for i := 0; i < DefaultBreakerMinSamples-1; i++ {
		b.record(true)
		*clock = clock.Add(time.Second)
	}
	*clock = clock.Add(DefaultBreakerWindow)
	b.record(true)
	if st := b.stateName(); st != "closed" {
		t.Fatalf("state = %q after failures a window apart, want closed", st)
	}
	if b.total != 1 || b.failed != 1 {
		t.Fatalf("window holds %d outcomes (%d failed) after sliding, want 1 (1)", b.total, b.failed)
	}

	// Still inside the window, and diluted below the threshold by
	// successes, the same failures do not trip it either...
	for i := 0; i < 3*DefaultBreakerMinSamples; i++ {
		b.record(false)
	}
	*clock = clock.Add(DefaultBreakerWindow / 2)
	for i := 0; i < DefaultBreakerMinSamples; i++ {
		b.record(true)
	}
	if st := b.stateName(); st != "closed" {
		t.Fatalf("state = %q at 6 failures of 21, want closed", st)
	}
	// ...until the successes slide out and the failures left behind are
	// the majority.
	*clock = clock.Add(DefaultBreakerWindow/2 + 2*time.Second)
	b.record(true)
	if st := b.stateName(); st != "open" {
		t.Fatalf("state = %q once only failures remain in the window, want open", st)
	}
	if b.allow() {
		t.Error("open breaker admitted a query inside the cooldown")
	}
	*clock = clock.Add(DefaultBreakerCooldown)
	if !b.allow() || b.stateName() != "half-open" {
		t.Errorf("breaker past its cooldown: state %q, want an admitted half-open probe", b.stateName())
	}
	b.record(false)
	if st := b.stateName(); st != "closed" || b.total != 0 {
		t.Errorf("after a successful probe: state %q with %d outcomes, want closed and empty", st, b.total)
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
				b.record(false)
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
		b.record(false)
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
