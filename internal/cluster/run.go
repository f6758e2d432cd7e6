package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Run runs job.Task(w, i) once for every task i in [0, n), as Spark runs
// a stage's tasks in its executors' slots, and returns the lowest failing
// task's error; every task runs, even after one has failed. w is the
// worker slot the task runs in, below min(width, n). The calling
// goroutine is worker 0 and claims task 0 before any helper starts; up to
// min(width, n)-1 helpers claim tasks from the same counter, so a task
// runs on exactly one worker and per-slot state needs no lock. A helper
// takes a slot only once its first claim succeeds: one that starts after
// the last claim makes one failed claim and touches nothing else. The
// caller claims until no task is left, then waits only for the tasks
// helpers claimed: it yields its processor for up to yieldFor, so that it
// goes on with its query on its own core, then parks (a helper may be
// waiting on a socket).
//
// The run's state is t, which the caller owns (typically in the struct
// that is job) and helpers receive over one channel, so starting a helper
// allocates nothing. A Tasks serves one Run. There is no pool: helpers
// start per call and end when the tasks run out.
func Run(width, n int, t *Tasks, job Job) error {
	t.job, t.n = job, int64(n)
	t.woke.L = &t.mu
	i := t.claim()
	for range min(width, n) - 1 {
		select {
		case helpers <- t:
			go help()
		default: // every buffered run awaits a helper; go on without one
		}
	}
	for ; i >= 0; i = t.claim() {
		t.run(0, i)
	}
	if t.done.Load() < t.n {
		t.wait()
	}
	return t.err
}

// Job is what Run runs: Task runs task i in worker slot w.
type Job interface {
	Task(w, i int) error
}

// Func is a Job whose tasks are calls of one function.
type Func func(w, i int) error

// Task implements Job.
func (f Func) Task(w, i int) error { return f(w, i) }

// Tasks is one Run's state: next is the lowest task not yet claimed,
// done counts the tasks finished and slots the worker slots helpers took.
// mu guards the lowest failure (failed, err) and, with woke, a parked
// caller. The zero value is ready for Run.
type Tasks struct {
	job               Job
	n                 int64
	next, done, slots atomic.Int64
	mu                sync.Mutex
	woke              sync.Cond
	failed            int
	err               error
}

// Claims reports how many claims t has seen, failed ones included, and
// how many helpers took a worker slot.
func (t *Tasks) Claims() (claims, slots int64) { return t.next.Load(), t.slots.Load() }

// helpers carries each run to the helper Run starts for it: a run passed
// in a closure would cost an allocation per helper. Every helper receives
// exactly one run, maybe another caller's, which changes nothing. The
// buffer holds the runs of helpers not yet running; 256 of them means
// every processor is long busy.
var helpers = make(chan *Tasks, 256)

// HelpersStarted reports whether every helper Run started has received
// its run.
func HelpersStarted() bool { return len(helpers) == 0 }

// HelperHook, when set, runs in every helper before its first claim: a
// test hook that holds helpers back, so that they start late.
var HelperHook atomic.Pointer[func()]

// help is one helper of a run. Nothing waits for it to return: the
// caller waits for the tasks it claimed.
func help() {
	t := <-helpers
	if h := HelperHook.Load(); h != nil {
		(*h)()
	}
	i := t.claim()
	if i < 0 {
		return
	}
	w := int(t.slots.Add(1))
	for ; i >= 0; i = t.claim() {
		t.run(w, i)
	}
}

// claim returns the next unclaimed task, or -1 when every one has been
// claimed.
func (t *Tasks) claim() int {
	if i := t.next.Add(1) - 1; i < t.n {
		return int(i)
	}
	return -1
}

// run runs claimed task i in slot w, keeps its error if it is the lowest
// failing one, and counts it done; the last task done wakes the caller.
func (t *Tasks) run(w, i int) {
	if err := t.job.Task(w, i); err != nil {
		t.mu.Lock()
		if t.err == nil || i < t.failed {
			t.failed, t.err = i, err
		}
		t.mu.Unlock()
	}
	if t.done.Add(1) == t.n {
		t.mu.Lock()
		t.woke.Signal()
		t.mu.Unlock()
	}
}

// yieldFor is how long a caller yields before it parks. A parked caller
// is woken on the processor of the helper that finished last, whose
// caches hold none of its rows (WatDiv E2, whose union replay and decode
// follow two fanned-out scans, ran 3 % slower so); a yielding one on a
// lone processor keeps the runtime from polling the network for a
// helper's socket.
const yieldFor = 100 * time.Microsecond

// wait returns once every task is done.
func (t *Tasks) wait() {
	for start := time.Now(); time.Since(start) < yieldFor; {
		if runtime.Gosched(); t.done.Load() == t.n {
			return
		}
	}
	t.mu.Lock()
	for t.done.Load() < t.n {
		t.woke.Wait()
	}
	t.mu.Unlock()
}
