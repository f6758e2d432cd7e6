package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/sparql"
)

// queryFaultSalt hashes the query's written patterns into a per-query
// salt for fault-plan task keys: stable across runs and across
// feedback-cache corrections (it reads the query text, not the plan),
// but different between queries, so a fault schedule decorrelates
// across a workload even though plan node IDs are small and shared.
func queryFaultSalt(q *sparql.Query) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, tp := range q.Patterns {
		for _, b := range []byte(tp.String()) {
			h ^= uint64(b)
			h *= prime
		}
		h ^= '\n'
		h *= prime
	}
	return h
}

// QueryAbort is the shared face of errors that abort a query
// mid-execution — context cancellation (*CancelError) and fault
// exhaustion (*TaskFailedError) — so servers can report partial
// progress uniformly while still distinguishing the two by type
// (504 vs 500, queries.timeouts vs queries.failed).
type QueryAbort interface {
	error
	// AbortProgress reports plan tasks completed vs scheduled when the
	// query aborted.
	AbortProgress() (completed, total int)
}

// TaskFailedError reports a task that exhausted its attempt budget
// under fault injection — the permanent-failure abort, carrying the
// full attempt trace for diagnosis. When several tasks exhaust theirs,
// it names the one whose last attempt ends earliest on the virtual
// timeline (ties: the lower plan node ID), so the report is the same
// however the workers interleaved. prost-serve returns it as a 500
// (distinct from the 504 a *CancelError produces).
type TaskFailedError struct {
	// Task describes the failed plan operator.
	Task string
	// Attempts is the task's full attempt trace, in virtual-time order.
	Attempts []cluster.Attempt
	// CompletedTasks counts the plan tasks that produced their output:
	// under fault exhaustion, every operator that neither exhausted its
	// attempts nor depends on one that did (on the streaming executor,
	// the pipelines finished before the failed morsel's), a number
	// deterministic for a given plan and fault plan; for a dead shard,
	// the operators completed when it was seen. TotalTasks counts the
	// plan's tasks (streaming: pipelines).
	CompletedTasks, TotalTasks int
	// Cause is the underlying failure for non-injected aborts — a dead
	// shard process surfaces its *wire.ShardError here. Nil for
	// simulated fault-injection aborts.
	Cause error
}

// Unwrap exposes the underlying failure (e.g. a *wire.ShardError) to
// errors.Is/As.
func (e *TaskFailedError) Unwrap() error { return e.Cause }

// Error implements error.
func (e *TaskFailedError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "core: task %s failed permanently after %d attempts (%d/%d plan tasks completed)",
		e.Task, len(e.Attempts), e.CompletedTasks, e.TotalTasks)
	for _, a := range e.Attempts {
		sb.WriteString("; ")
		sb.WriteString(a.String())
	}
	if e.Cause != nil {
		fmt.Fprintf(&sb, "; cause: %v", e.Cause)
	}
	return sb.String()
}

// AbortProgress implements QueryAbort.
func (e *TaskFailedError) AbortProgress() (completed, total int) {
	return e.CompletedTasks, e.TotalTasks
}

// AbortProgress implements QueryAbort.
func (e *CancelError) AbortProgress() (completed, total int) {
	return e.CompletedTasks, e.TotalTasks
}

// Both abort types satisfy the shared interface.
var (
	_ QueryAbort = (*CancelError)(nil)
	_ QueryAbort = (*TaskFailedError)(nil)
)

// recoveryTotal is a recovery record several goroutines fold into: a
// query's concurrent tasks into the scheduler's, concurrent queries
// into the store's. Only fault-injected executions add to one.
type recoveryTotal struct {
	mu  sync.Mutex
	rec cluster.Recovery
}

// add folds one task's or one query's record in.
func (t *recoveryTotal) add(r cluster.Recovery) {
	t.mu.Lock()
	t.rec.Add(r)
	t.mu.Unlock()
}

// snapshot returns the record accumulated so far.
func (t *recoveryTotal) snapshot() cluster.Recovery {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec
}

// ResilienceMetrics returns the recovery record totalled across queries
// (zero unless fault injection ran).
func (s *Store) ResilienceMetrics() cluster.Recovery {
	return s.resilience.snapshot()
}
