package core

import (
	"fmt"
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
// mid-execution — context cancellation (*CancelError) and a dead shard
// (*TaskFailedError) — so servers can report partial progress uniformly
// while still distinguishing the two by type (504 vs 500,
// queries.timeouts vs queries.failed).
type QueryAbort interface {
	error
	// AbortProgress reports plan tasks completed vs scheduled when the
	// query aborted.
	AbortProgress() (completed, total int)
}

// TaskFailedError reports a plan task whose shard process died — the
// dead-shard abort: there is no replica to retry against, so the query
// fails (injected faults never abort one; their recovery is priced).
// prost-serve returns it as a 500 (distinct from the 504 a
// *CancelError produces).
type TaskFailedError struct {
	// Task describes the failed plan operator.
	Task string
	// Shard is the index of the dead shard the task ran on.
	Shard int
	// CompletedTasks counts the plan operators completed when the dead
	// shard was seen; TotalTasks counts the plan's operators.
	CompletedTasks, TotalTasks int
	// Cause is the shard's *wire.ShardError.
	Cause error
}

// Unwrap exposes the underlying *wire.ShardError to errors.Is/As.
func (e *TaskFailedError) Unwrap() error { return e.Cause }

// Error implements error.
func (e *TaskFailedError) Error() string {
	return fmt.Sprintf("core: task %s failed permanently on shard %d (%d/%d plan tasks completed); cause: %v",
		e.Task, e.Shard, e.CompletedTasks, e.TotalTasks, e.Cause)
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
