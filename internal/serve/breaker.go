package serve

import (
	"sync"
	"time"
)

// The circuit breaker's settings.
const (
	// breakerWindow is the sliding window over which the failure rate is
	// measured.
	breakerWindow = 30 * time.Second
	// breakerThreshold is the execution-failure rate that trips the
	// breaker once enough samples are in the window.
	breakerThreshold = 0.5
	// breakerMinSamples is the minimum number of executions in the
	// window before the rate is trusted.
	breakerMinSamples = 5
	// breakerCooldown is how long a tripped breaker rejects queries
	// before letting a probe through.
	breakerCooldown = 5 * time.Second
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
// in: one second each.
const breakerBuckets = 30

// breakerSlice is the span of one slice of the window.
const breakerSlice = breakerWindow / breakerBuckets

// breakerBucket counts the execution outcomes of one slice of the
// window.
type breakerBucket struct {
	total, failed int
}

// breaker sheds /sparql load when the store itself is failing: once the
// execution-failure rate over a sliding window crosses the threshold it
// opens and rejects queries instantly (fast 503s instead of queueing
// doomed work), then after a cooldown goes half-open and admits one
// probe at a time — its success closes the breaker, its failure
// re-opens it, and every other query is shed until it records. A probe
// holds its slot for at most breakerCooldown: one still out after that
// (a stalled request body, a long query) is superseded by the next
// query, and only the current probe's outcome decides the state. Only
// execution outcomes feed the window; caller mistakes (400s) and shed
// requests are not evidence about store health, so a probe that ends
// as one frees its slot for the next probe (abandon).
//
// The window is a fixed ring of per-slice counters with running sums,
// so recording an outcome costs the same however many requests the
// window holds. An outcome leaves the window when its whole slice does,
// up to one slice before it is a full window old.
type breaker struct {
	now func() time.Time // injectable for tests

	mu       sync.Mutex
	state    breakerState
	openedAt time.Time
	// probing: a half-open breaker has admitted probe number probes at
	// probedAt, which has not recorded an outcome or abandoned yet.
	probing  bool
	probes   uint64
	probedAt time.Time
	// Slices are numbered from origin, the first outcome's time.
	// ring[n%breakerBuckets] counts slice n, for the breakerBuckets
	// slices ending at head; total and failed are the sums over it.
	origin        time.Time
	ring          [breakerBuckets]breakerBucket
	head          int64
	total, failed int
}

// newBreaker returns a closed breaker on the real clock.
func newBreaker() *breaker {
	return &breaker{now: time.Now}
}

// allow reports whether a query may execute now and, for a half-open
// breaker's probe, the probe's nonzero ticket. An open breaker past its
// cooldown moves to half-open; a half-open breaker admits one probe and
// sheds every other query until that probe records or abandons, or
// until it has been out for breakerCooldown, when the next query
// supersedes it with a new ticket.
func (b *breaker) allow() (ok bool, probe uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if b.state == breakerOpen {
		if now.Sub(b.openedAt) < breakerCooldown {
			return false, 0
		}
		b.state = breakerHalfOpen
	}
	if b.state != breakerHalfOpen {
		return true, 0
	}
	if b.probing && now.Sub(b.probedAt) < breakerCooldown {
		return false, 0
	}
	b.probing = true
	b.probes++
	b.probedAt = now
	return true, b.probes
}

// abandon ends an admitted query that produced no execution outcome (a
// bad request, a shed at the in-flight bound, a drain). A probe's slot
// is freed for the next query, unless the probe has been superseded;
// nothing else changes.
func (b *breaker) abandon(probe uint64) {
	if probe == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing && b.probes == probe {
		b.probing = false
	}
}

// record feeds one execution outcome, of the query allow admitted with
// ticket probe, into the automaton. A half-open breaker acts only on
// its current probe's outcome; an open one ignores every outcome.
func (b *breaker) record(failed bool, probe uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	switch b.state {
	case breakerHalfOpen:
		if !b.probing || probe != b.probes {
			return
		}
		b.probing = false
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
		if b.total >= breakerMinSamples &&
			float64(b.failed)/float64(b.total) >= breakerThreshold {
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
	slice := int64(now.Sub(b.origin) / breakerSlice)
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
