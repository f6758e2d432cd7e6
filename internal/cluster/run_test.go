package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testenv"
)

// TestRun checks the one rule every parallel task in the process runs
// by: who runs a task, what a late helper may touch, what the caller
// waits for, which error it reports, and that a task may run a Run of
// its own.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"caller takes part at GOMAXPROCS 1", func(t *testing.T) { runCallerTakesPart(t, 1) }},
		{"caller takes part at GOMAXPROCS 2", func(t *testing.T) { runCallerTakesPart(t, 2) }},
		{"caller takes part at GOMAXPROCS 8", func(t *testing.T) { runCallerTakesPart(t, 8) }},
		{"a late helper makes one failed claim", runLateHelper},
		{"the caller waits for claimed tasks only", runWaitsForClaimed},
		{"the lowest failing task is reported", runLowestError},
		{"a Run inside a task", runNested},
	} {
		t.Run(c.name, c.run)
	}
}

// goid returns the calling goroutine's ID, read off its stack header.
func goid() int {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.Atoi(f[1])
	return id
}

// slotLog records, per task, how often it ran, on which worker slot and
// on which goroutine.
type slotLog struct {
	tasks Tasks
	ran   []atomic.Int32
	slot  []int
	g     []int
}

func newSlotLog(n int) *slotLog {
	return &slotLog{ran: make([]atomic.Int32, n), slot: make([]int, n), g: make([]int, n)}
}

func (l *slotLog) Task(w, i int) error {
	l.ran[i].Add(1)
	l.slot[i], l.g[i] = w, goid()
	if i%8 == 0 {
		runtime.Gosched() // let the helpers overlap
	}
	return nil
}

// runCallerTakesPart: at width GOMAXPROCS every task runs once, the
// caller runs task 0 and every task of slot 0, no task runs in a slot
// at or past the width, and slot 0 is the caller's alone; on one
// processor no helper starts at all.
func runCallerTakesPart(t *testing.T, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const n = 200
	width := runtime.GOMAXPROCS(0)
	l := newSlotLog(n)
	if err := Run(width, n, &l.tasks, l); err != nil {
		t.Fatal(err)
	}
	caller := goid()
	slotG := map[int]int{}
	for i := range n {
		if got := l.ran[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
		w, g := l.slot[i], l.g[i]
		if w < 0 || w >= width {
			t.Fatalf("task %d ran in slot %d of %d", i, w, width)
		}
		if (w == 0) != (g == caller) {
			t.Errorf("task %d ran in slot %d on goroutine %d; the caller is %d", i, w, g, caller)
		}
		if prev, ok := slotG[w]; ok && prev != g {
			t.Errorf("slot %d ran on goroutines %d and %d", w, prev, g)
		}
		slotG[w] = g
	}
	if l.slot[0] != 0 {
		t.Errorf("task 0 ran in slot %d, want the caller's", l.slot[0])
	}
	if _, slots := l.tasks.Claims(); procs == 1 && slots != 0 {
		t.Errorf("on one processor %d helpers took a slot", slots)
	}
}

// holdHelpers waits until no helper of an earlier Run is still to
// start, then holds every helper that starts from now on before its
// first claim, counting them. release lets them go.
func holdHelpers(t *testing.T) (held *atomic.Int64, release func()) {
	for deadline := time.Now().Add(time.Minute); !HelpersStarted(); {
		if time.Now().After(deadline) {
			t.Fatal("helpers never started")
		}
		time.Sleep(time.Millisecond)
	}
	held = new(atomic.Int64)
	hold := make(chan struct{})
	hook := func() { held.Add(1); <-hold }
	HelperHook.Store(&hook)
	return held, func() {
		HelperHook.Store(nil)
		close(hold)
	}
}

// runLateHelper holds every helper back until the run is over: the
// caller runs every task, and each released helper makes one failed
// claim and takes no slot.
func runLateHelper(t *testing.T) {
	const n, width = 10, 4
	held, release := holdHelpers(t)
	l := newSlotLog(n)
	if err := Run(width, n, &l.tasks, l); err != nil {
		t.Fatal(err)
	}
	if claims, slots := l.tasks.Claims(); claims != n+1 || slots != 0 {
		t.Errorf("with every helper held: %d claims and %d slots taken, want %d and 0", claims, slots, n+1)
	}
	for i := range n {
		if l.slot[i] != 0 {
			t.Errorf("task %d ran in slot %d while every helper was held", i, l.slot[i])
		}
	}
	for deadline := time.Now().Add(time.Minute); held.Load() < width-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers started", held.Load(), width-1)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	want := int64(n + 1 + width - 1)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		claims, _ := l.tasks.Claims()
		if claims >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("released helpers never claimed: %d claims, want %d", claims, want)
		}
	}
	if claims, slots := l.tasks.Claims(); claims != want || slots != 0 {
		t.Errorf("released helpers: %d claims and %d slots taken, want %d and 0", claims, slots, want)
	}
}

// blockingJob's task 1 runs on a helper — task 0, the caller's, waits
// until it has started — and blocks until release is closed.
type blockingJob struct {
	tasks    Tasks
	started  chan struct{}
	release  chan struct{}
	onHelper atomic.Bool
}

func (j *blockingJob) Task(w, i int) error {
	if i == 0 {
		<-j.started
		return nil
	}
	j.onHelper.Store(w != 0)
	close(j.started)
	<-j.release
	return nil
}

// runWaitsForClaimed: a task a helper claimed holds its Run until it
// is done, past the time the caller spends yielding, so it parks and
// is woken.
func runWaitsForClaimed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	j := &blockingJob{started: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- Run(2, 2, &j.tasks, j) }()
	select {
	case err := <-done:
		t.Fatalf("Run returned (%v) while a helper's task was running", err)
	case <-time.After(20 * yieldFor):
	}
	if !j.onHelper.Load() {
		t.Fatal("task 1 ran on the caller")
	}
	close(j.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run never returned after its last task finished")
	}
}

// runLowestError: with tasks 3, 7 and 15 failing — task 3 last, when
// helpers run beside it — every task still runs and Run reports task
// 3's error, at any width.
func runLowestError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 40
	for _, width := range []int{1, 2, 8} {
		var ran atomic.Int32
		err := Run(width, n, new(Tasks), Func(func(_, i int) error {
			ran.Add(1)
			if i == 3 {
				time.Sleep(time.Millisecond)
			}
			if i == 3 || i == 7 || i == 15 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		}))
		if err == nil || err.Error() != "task 3 failed" {
			t.Errorf("width %d: error %v, want task 3's", width, err)
		}
		if ran.Load() != n {
			t.Errorf("width %d: %d of %d tasks ran", width, ran.Load(), n)
		}
	}
}

// runNested: a task that runs a Run of its own — as a helper running a
// stage inside a scheduler operator does — finishes, and every inner
// task runs once.
func runNested(t *testing.T) {
	const outer, inner = 8, 16
	var ran [outer * inner]atomic.Int32
	boom := errors.New("inner task 5 of outer task 6")
	err := Run(4, outer, new(Tasks), Func(func(_, o int) error {
		return Run(4, inner, new(Tasks), Func(func(_, i int) error {
			ran[o*inner+i].Add(1)
			if o == 6 && i == 5 {
				return boom
			}
			return nil
		}))
	}))
	if err != boom {
		t.Errorf("error %v, want %v", err, boom)
	}
	for k := range ran {
		if got := ran[k].Load(); got != 1 {
			t.Errorf("outer task %d, inner task %d ran %d times", k/inner, k%inner, got)
		}
	}
}

// countJob is a Job that only counts its tasks.
type countJob struct{ n atomic.Int64 }

func (j *countJob) Task(_, _ int) error { j.n.Add(1); return nil }

// TestRunHelperAllocatesNothing: a Run whose state and job its caller
// owns allocates nothing, however many helpers it starts — the same
// zero at width 1 as at width 8, on one processor and on two. Each Run
// waits until all of its width-1 helpers have made their last claim,
// so every Run measured starts them all.
func TestRunHelperAllocatesNothing(t *testing.T) {
	testenv.SkipUnderRace(t)
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		for _, width := range []int{1, 8} {
			const runs = 100
			var j countJob
			tasks := make([]Tasks, 1+3*runs) // a warm-up and three rounds: a Tasks serves one Run
			next := 0
			allocs := testenv.ParallelAllocsPerRun(t, runs, func() {
				if err := Run(width, 64, &tasks[next], &j); err != nil {
					t.Fatal(err)
				}
				// 64 claims succeed; the caller and each helper fail one.
				for deadline := time.Now().Add(time.Minute); ; runtime.Gosched() {
					if claims, _ := tasks[next].Claims(); claims == int64(64+width) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("GOMAXPROCS=%d, width %d: the helpers of a Run never claimed", procs, width)
					}
				}
				next++
			})
			if allocs != 0 {
				t.Errorf("GOMAXPROCS=%d: a Run of width %d allocates %.0f times", procs, width, allocs)
			}
			if got := j.n.Load(); got != int64(64*next) {
				t.Errorf("GOMAXPROCS=%d, width %d: %d tasks ran in %d Runs of 64", procs, width, got, next)
			}
		}
	}
}
