package workload

import (
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// countingBuilder returns a Builder producing fixed-size tables and
// recording every build request.
func countingBuilder(bytes int64, mu *sync.Mutex, calls *[]TableKey) Builder {
	return func(pred, partner uint64, pos uint8, gen uint64) (Table, bool) {
		mu.Lock()
		*calls = append(*calls, TableKey{Pred: pred, Partner: partner, Pos: pos})
		mu.Unlock()
		return Table{Rows: 10, Bytes: bytes, Data: pred}, true
	}
}

func TestBuildAfterThreshold(t *testing.T) {
	var mu sync.Mutex
	var calls []TableKey
	m := New(Config{BudgetBytes: 1 << 20, BuildAfter: 3, Builder: countingBuilder(100, &mu, &calls)})

	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 50)
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 50)
	if _, ok := m.Lookup(1, 2, uint8(stats.JoinSO)); ok {
		t.Fatalf("table built after 2 observations, want threshold 3")
	}
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 50)
	if _, ok := m.Lookup(1, 2, uint8(stats.JoinSO)); !ok {
		t.Fatalf("table not built after crossing threshold")
	}
	// Both directions of a non-self pair materialize.
	if _, ok := m.Lookup(2, 1, uint8(stats.JoinOS)); !ok {
		t.Fatalf("transposed direction not built")
	}
	mu.Lock()
	n := len(calls)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("builder called %d times, want 2 (both directions once)", n)
	}
}

func TestSelfPairSingleDirection(t *testing.T) {
	var mu sync.Mutex
	var calls []TableKey
	m := New(Config{BudgetBytes: 1 << 20, BuildAfter: 1, Builder: countingBuilder(100, &mu, &calls)})
	m.ObserveJoin(7, 7, uint8(stats.JoinSS), 5)
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 {
		t.Fatalf("self-pair built %d directions, want 1", len(calls))
	}
}

func TestObserveJoinCanonicalizes(t *testing.T) {
	m := New(Config{})
	// p2⋈p1 at o-s is the same pair as p1⋈p2 at s-o.
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 10)
	m.ObserveJoin(2, 1, uint8(stats.JoinOS), 30)
	pairs := m.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("got %d tracked pairs, want 1 (canonicalized)", len(pairs))
	}
	if pairs[0].Hits != 2 || pairs[0].Volume != 40 {
		t.Fatalf("pair hits=%d volume=%d, want 2/40", pairs[0].Hits, pairs[0].Volume)
	}
}

func TestBudgetEviction(t *testing.T) {
	var mu sync.Mutex
	var calls []TableKey
	// Budget fits two 100-byte tables (one pair's two directions), not
	// four: installing the second pair must evict the first's tables,
	// lowest volume-per-byte first.
	m := New(Config{BudgetBytes: 250, BuildAfter: 1, Builder: countingBuilder(100, &mu, &calls)})

	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 10) // low volume
	if _, ok := m.Lookup(1, 2, uint8(stats.JoinSO)); !ok {
		t.Fatalf("first pair not built")
	}
	dropped := m.ObserveJoin(3, 4, uint8(stats.JoinSO), 1000) // high volume

	met := m.Metrics()
	if met.TableBytes > met.BudgetBytes {
		t.Fatalf("live bytes %d exceed budget %d", met.TableBytes, met.BudgetBytes)
	}
	if met.TablesEvicted == 0 {
		t.Fatalf("no eviction recorded under budget pressure")
	}
	if uint64(len(dropped)) != met.TablesEvicted {
		t.Fatalf("ObserveJoin returned %d dropped tables, %d were evicted", len(dropped), met.TablesEvicted)
	}
	// The high-volume pair's tables survive.
	if _, ok := m.Peek(3, 4, uint8(stats.JoinSO)); !ok {
		t.Fatalf("high-volume reduction evicted, want it to survive")
	}
	if _, ok := m.Peek(4, 3, uint8(stats.JoinOS)); !ok {
		t.Fatalf("high-volume transposed reduction evicted, want it to survive")
	}
	// The low-volume pair lost at least one table.
	_, a := m.Peek(1, 2, uint8(stats.JoinSO))
	_, b := m.Peek(2, 1, uint8(stats.JoinOS))
	if a && b {
		t.Fatalf("low-volume pair kept both tables despite budget pressure")
	}
}

func TestOversizedTableRejected(t *testing.T) {
	var mu sync.Mutex
	var calls []TableKey
	m := New(Config{BudgetBytes: 50, BuildAfter: 1, Builder: countingBuilder(100, &mu, &calls)})
	dropped := m.ObserveJoin(1, 2, uint8(stats.JoinSS), 10)
	met := m.Metrics()
	if met.TablesLive != 0 || met.TableBytes != 0 {
		t.Fatalf("table larger than the whole budget was installed: %+v", met)
	}
	if len(dropped) != 2 {
		t.Fatalf("ObserveJoin returned %d dropped tables, want both rejected directions", len(dropped))
	}
}

func TestInvalidateDropsEverything(t *testing.T) {
	var mu sync.Mutex
	var calls []TableKey
	m := New(Config{BudgetBytes: 1 << 20, BuildAfter: 1, Builder: countingBuilder(100, &mu, &calls)})
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 10)
	m.ObserveScan(1, 99, true, 42)
	epoch := m.Epoch()
	gen := m.Generation()

	if dropped := m.Invalidate(); len(dropped) != 2 {
		t.Fatalf("Invalidate returned %d dropped tables, want both directions", len(dropped))
	}
	if m.Generation() != gen+1 {
		t.Fatalf("generation %d, want %d", m.Generation(), gen+1)
	}
	if m.Epoch() <= epoch {
		t.Fatalf("epoch did not advance on invalidate")
	}
	if _, ok := m.Lookup(1, 2, uint8(stats.JoinSO)); ok {
		t.Fatalf("table survived invalidation")
	}
	if _, ok := m.LookupObserved(1, 99, true); ok {
		t.Fatalf("observation survived invalidation")
	}
	// The pair's build eligibility resets: one more observation crosses
	// the threshold again and rebuilds against the new generation.
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 10)
	if _, ok := m.Lookup(1, 2, uint8(stats.JoinSO)); !ok {
		t.Fatalf("pair not rebuilt after invalidation")
	}
}

// TestBuildInstalledWhenObserveReturns pins the build contract: the
// observation that crosses the threshold returns only once both
// reductions are live, however long the Builder takes.
func TestBuildInstalledWhenObserveReturns(t *testing.T) {
	m := New(Config{BudgetBytes: 1 << 20, BuildAfter: 1, Builder: func(pred, partner uint64, pos uint8, gen uint64) (Table, bool) {
		time.Sleep(5 * time.Millisecond)
		return Table{Rows: 1, Bytes: 10, Data: pred}, true
	}})
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 10)
	if _, ok := m.Lookup(1, 2, uint8(stats.JoinSO)); !ok {
		t.Fatalf("reduction not live when the crossing ObserveJoin returned")
	}
	if _, ok := m.Lookup(2, 1, uint8(stats.JoinOS)); !ok {
		t.Fatalf("transposed reduction not live when the crossing ObserveJoin returned")
	}
}

// TestStaleBuildDiscarded: an invalidation that lands while another
// goroutine's ObserveJoin is building makes that build stale, so it
// installs nothing and hands both tables back as dropped.
func TestStaleBuildDiscarded(t *testing.T) {
	building := make(chan struct{}, 2)
	release := make(chan struct{})
	m := New(Config{BudgetBytes: 1 << 20, BuildAfter: 1, Builder: func(pred, partner uint64, pos uint8, gen uint64) (Table, bool) {
		building <- struct{}{}
		<-release // hold the build until the invalidation lands
		return Table{Rows: 1, Bytes: 10, Data: nil}, true
	}})
	done := make(chan []Table)
	go func() { done <- m.ObserveJoin(1, 2, uint8(stats.JoinSS), 10) }()
	<-building
	m.Invalidate() // races past the running build
	close(release)
	dropped := <-done
	if met := m.Metrics(); met.TablesLive != 0 {
		t.Fatalf("stale build installed %d tables after invalidation", met.TablesLive)
	}
	if len(dropped) != 2 {
		t.Fatalf("ObserveJoin returned %d dropped tables, want both stale directions", len(dropped))
	}
}

func TestObservationsRefreshWithoutEpochChurn(t *testing.T) {
	m := New(Config{})
	e0 := m.Epoch()
	m.ObserveScan(5, 6, false, 100)
	e1 := m.Epoch()
	if e1 == e0 {
		t.Fatalf("first observation did not bump epoch")
	}
	m.ObserveScan(5, 6, false, 120)
	if m.Epoch() != e1 {
		t.Fatalf("repeat observation bumped epoch, want refresh in place")
	}
	rows, ok := m.LookupObserved(5, 6, false)
	if !ok || rows != 120 {
		t.Fatalf("LookupObserved = %d,%v, want 120,true", rows, ok)
	}
}

func TestDisabledModelStillTracks(t *testing.T) {
	m := New(Config{}) // no budget, no builder
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 10)
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 10)
	m.ObserveJoin(1, 2, uint8(stats.JoinSO), 10)
	met := m.Metrics()
	if met.PairsTracked != 1 {
		t.Fatalf("disabled model tracked %d pairs, want 1", met.PairsTracked)
	}
	if met.TablesBuilt != 0 {
		t.Fatalf("disabled model built %d tables, want 0", met.TablesBuilt)
	}
}
