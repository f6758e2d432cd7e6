package serve

import (
	"sync"
	"time"
)

// Circuit-breaker defaults, applied when the corresponding Config knob
// is zero.
const (
	// DefaultBreakerWindow is the sliding window over which the failure
	// rate is measured.
	DefaultBreakerWindow = 30 * time.Second
	// DefaultBreakerThreshold is the execution-failure rate that trips
	// the breaker once enough samples are in the window.
	DefaultBreakerThreshold = 0.5
	// DefaultBreakerMinSamples is the minimum number of executions in the
	// window before the rate is trusted.
	DefaultBreakerMinSamples = 5
	// DefaultBreakerCooldown is how long a tripped breaker rejects
	// queries before letting a probe through.
	DefaultBreakerCooldown = 5 * time.Second
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerBuckets is the number of slices the sliding window is counted
// in: one second each at the default window.
const breakerBuckets = 30

// breakerBucket counts the execution outcomes of one slice of the
// window.
type breakerBucket struct {
	total, failed int
}

// breaker sheds /sparql load when the store itself is failing: once the
// execution-failure rate over a sliding window crosses the threshold it
// opens and rejects queries instantly (fast 503s instead of queueing
// doomed work), then after a cooldown lets probes through half-open —
// one success closes it, one failure re-opens it. Only execution
// outcomes feed the window; caller mistakes (400s) and shed requests
// are not evidence about store health.
//
// The window is a fixed ring of per-slice counters with running sums,
// so recording an outcome costs the same however many requests the
// window holds. An outcome leaves the window when its whole slice does,
// up to one slice before it is a full window old.
type breaker struct {
	slice      time.Duration // window / breakerBuckets
	threshold  float64
	minSamples int
	cooldown   time.Duration
	now        func() time.Time // injectable for tests

	mu       sync.Mutex
	state    breakerState
	openedAt time.Time
	// Slices are numbered from origin, the first outcome's time.
	// ring[n%breakerBuckets] counts slice n, for the breakerBuckets
	// slices ending at head; total and failed are the sums over it.
	origin        time.Time
	ring          [breakerBuckets]breakerBucket
	head          int64
	total, failed int
}

// newBreaker applies defaults to zero knobs and returns a closed
// breaker on the real clock.
func newBreaker(window time.Duration, threshold float64, minSamples int, cooldown time.Duration) *breaker {
	if window <= 0 {
		window = DefaultBreakerWindow
	}
	if threshold <= 0 || threshold > 1 {
		threshold = DefaultBreakerThreshold
	}
	if minSamples <= 0 {
		minSamples = DefaultBreakerMinSamples
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &breaker{
		slice:      max(window/breakerBuckets, 1),
		threshold:  threshold,
		minSamples: minSamples,
		cooldown:   cooldown,
		now:        time.Now,
	}
}

// allow reports whether a query may execute now. An open breaker past
// its cooldown moves to half-open and admits probes.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen {
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
	}
	return true
}

// record feeds one execution outcome into the automaton.
func (b *breaker) record(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	switch b.state {
	case breakerHalfOpen:
		if failed {
			b.trip(now)
		} else {
			b.state = breakerClosed
			b.clear()
		}
	case breakerClosed:
		b.advance(now)
		slot := &b.ring[b.head%breakerBuckets]
		slot.total++
		b.total++
		if failed {
			slot.failed++
			b.failed++
		}
		if b.total >= b.minSamples &&
			float64(b.failed)/float64(b.total) >= b.threshold {
			b.trip(now)
		}
	}
}

// trip opens the breaker and discards the window.
func (b *breaker) trip(now time.Time) {
	b.state = breakerOpen
	b.openedAt = now
	b.clear()
}

// clear empties the window.
func (b *breaker) clear() {
	b.ring = [breakerBuckets]breakerBucket{}
	b.total, b.failed = 0, 0
}

// advance moves the ring's head to the slice containing now, retiring
// the slices that fell out of the window: at most breakerBuckets of
// them, whatever the gap. A clock that steps backwards keeps counting
// in the head slice.
func (b *breaker) advance(now time.Time) {
	if b.origin.IsZero() {
		b.origin = now
	}
	slice := int64(now.Sub(b.origin) / b.slice)
	if slice-b.head >= breakerBuckets {
		b.clear()
		b.head = slice
	}
	for b.head < slice {
		b.head++
		slot := &b.ring[b.head%breakerBuckets]
		b.total -= slot.total
		b.failed -= slot.failed
		*slot = breakerBucket{}
	}
}

// stateName is the current state for /stats and /readyz.
func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}
