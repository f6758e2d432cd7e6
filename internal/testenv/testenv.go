// Package testenv holds what the module's allocation pins share: the
// race-detector constant, the skip every pin makes under it, and the
// harnesses that count a function's allocations.
//
// An allocation pin is a test that asserts how much a path allocates.
// Under the race detector, sync.Pool drops a random part of what is put
// back, so a pin measures the detector's pools rather than the code; it
// skips itself there and runs without it. Only tests import this
// package (the root rules_test.go checks it), so the goroutines its
// harness starts ship with no binary.
package testenv

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// SkipUnderRace skips an allocation pin when the race detector is built
// in. Every pin calls it, directly or through one of the harnesses
// below.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if Race {
		t.Skip("allocation pin: the race detector's sync.Pool drops part of what is put back")
	}
}

// AllocsPerRun is testing.AllocsPerRun for an allocation pin: it skips t
// under the race detector, then counts f's average allocations on one
// processor.
func AllocsPerRun(t testing.TB, runs int, f func()) float64 {
	t.Helper()
	SkipUnderRace(t)
	return testing.AllocsPerRun(runs, f)
}

// ParallelAllocsPerRun is AllocsPerRun without testing.AllocsPerRun's
// switch to one processor, which would leave every stage a single
// worker and decode every result on the caller. It returns the fewest
// allocations per run over three rounds: what f allocates is the same
// in every round, while the runtime allocates on its own now and then
// — a thread, or a goroutine descriptor or wait record for a processor
// that has no spare — and that only adds. An allocation f makes on
// every call, a helper start's included, still shows in every round.
func ParallelAllocsPerRun(t testing.TB, runs int, f func()) float64 {
	t.Helper()
	allocs, _ := ParallelMemPerRun(t, runs, f)
	return allocs
}

// ParallelMemPerRun is ParallelAllocsPerRun that also returns the fewest
// bytes allocated per run over the same three rounds.
func ParallelMemPerRun(t testing.TB, runs int, f func()) (allocs, bytes float64) {
	t.Helper()
	SkipUnderRace(t)
	// Park and end a few hundred goroutines first. A helper that ends,
	// or a caller that parks, leaves its goroutine descriptor or its
	// wait record on the processor it ran on last, and the runtime moves
	// spares between processors in batches, so until a process has
	// spares everywhere a helper start or a park may allocate one.
	// Without this, a fresh process's first stages at GOMAXPROCS 2 read
	// 4 allocations at 2 partitions and 3 at 1,000.
	var wg sync.WaitGroup
	release := make(chan struct{})
	for range 512 {
		wg.Add(1)
		go func() { <-release; wg.Done() }()
	}
	close(release)
	wg.Wait()
	f() // warm-up, as testing.AllocsPerRun does
	fewest, least := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		mallocs, total := m.Mallocs, m.TotalAlloc
		for range runs {
			f()
		}
		runtime.ReadMemStats(&m)
		fewest = min(fewest, (m.Mallocs-mallocs)/uint64(runs))
		least = min(least, (m.TotalAlloc-total)/uint64(runs))
	}
	return float64(fewest), float64(least)
}
