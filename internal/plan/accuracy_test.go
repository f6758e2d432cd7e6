package plan_test

// The estimator accuracy harness — the regression gate for all future
// estimator work. For every 2- and 3-pattern connected subquery of the
// WatDiv query set it computes the exact result cardinality with the
// naive planner (written order, a static plan; the planner cannot
// influence row counts) and compares the cost planner's root estimate
// against it, under both the Mixed strategy (characteristic sets price
// the PT stars) and VP-only (pair sketches price every join).
//
// The hard bound: wherever the root estimate is sketch- or cset-sourced
// and the subquery is constant-free with a non-empty result, the
// q-error max(est/actual, actual/est) must stay within 4x. Constant-
// bearing subqueries and independence-fallback estimates are reported
// in the printed q-error summary but not bounded — constants hit
// value-skew the per-predicate statistics cannot see, and independence
// is exactly the fallback the sketches exist to displace.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// qErrorBound is the harness's stated accuracy contract for sketch- and
// cset-sourced estimates on constant-free subqueries.
const qErrorBound = 4.0

// accuracyStore loads a WatDiv dataset with join-graph statistics.
func accuracyStore(t *testing.T) *core.Store {
	t.Helper()
	g := watdiv.MustGenerate(watdiv.Config{Scale: 200, Seed: 42})
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	s, err := core.Load(g, core.Options{Cluster: c})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

// connectedSubsets enumerates the k-element subsets of pats whose
// patterns form a connected join graph via shared variables.
func connectedSubsets(pats []sparql.TriplePattern, k int) [][]sparql.TriplePattern {
	idx := make([]int, k)
	var out [][]sparql.TriplePattern
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			sub := make([]sparql.TriplePattern, k)
			for i, j := range idx {
				sub[i] = pats[j]
			}
			if connected(sub) {
				out = append(out, sub)
			}
			return
		}
		for j := start; j < len(pats); j++ {
			idx[depth] = j
			rec(j+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

// connected reports whether the patterns form one component under
// shared-variable adjacency.
func connected(pats []sparql.TriplePattern) bool {
	if len(pats) == 0 {
		return false
	}
	joined := map[int]bool{0: true}
	varsOf := func(i int) map[string]bool {
		m := map[string]bool{}
		for _, v := range pats[i].Vars() {
			m[v] = true
		}
		return m
	}
	for changed := true; changed; {
		changed = false
		for i := range pats {
			if joined[i] {
				continue
			}
			vi := varsOf(i)
			for j := range pats {
				if !joined[j] {
					continue
				}
				for v := range varsOf(j) {
					if vi[v] {
						joined[i] = true
						changed = true
						break
					}
				}
				if joined[i] {
					break
				}
			}
		}
	}
	return len(joined) == len(pats)
}

// constantFree reports whether every subject and object is a variable.
func constantFree(pats []sparql.TriplePattern) bool {
	for _, tp := range pats {
		if !tp.S.IsVar() || !tp.O.IsVar() {
			return false
		}
	}
	return true
}

// rootEstimate returns the top estimating node of a plan: the first
// Scan/Join/Bound below the epilogue (Project/Distinct/Filter).
func rootEstimate(p *plan.Plan) *plan.Node {
	n := p.Root
	for n != nil {
		switch n.Op {
		case plan.OpProject, plan.OpDistinct, plan.OpFilter:
			n = n.Children[0]
		default:
			return n
		}
	}
	return nil
}

// qErr is the symmetric estimation-error factor with a 1-row floor.
func qErr(est float64, actual int64) float64 {
	e := math.Max(est, 1)
	a := math.Max(float64(actual), 1)
	if e > a {
		return e / a
	}
	return a / e
}

// bucket accumulates the q-error summary for one estimate source.
type bucket struct {
	n      int
	sum    float64 // of log q-errors, for the geometric mean
	max    float64
	maxAt  string
	errors []float64
}

func (b *bucket) add(q float64, label string) {
	b.n++
	b.sum += math.Log(q)
	b.errors = append(b.errors, q)
	if q > b.max {
		b.max, b.maxAt = q, label
	}
}

func (b *bucket) line(name string) string {
	if b.n == 0 {
		return fmt.Sprintf("%-22s      0 subqueries", name)
	}
	sort.Float64s(b.errors)
	p95 := b.errors[(b.n-1)*95/100]
	return fmt.Sprintf("%-22s %6d subqueries  geo-mean %6.2fx  p95 %7.2fx  max %8.2fx (%s)",
		name, b.n, math.Exp(b.sum/float64(b.n)), p95, b.max, b.maxAt)
}

// TestEstimatorAccuracyHarness is the table-driven accuracy gate.
func TestEstimatorAccuracyHarness(t *testing.T) {
	s := accuracyStore(t)
	queries := watdiv.BasicQuerySet()
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"mixed", core.StrategyMixed},
		{"vp-only", core.StrategyVPOnly},
	}

	// exactCache deduplicates naive executions per (strategy, subquery);
	// firstCount cross-checks that the naive engine's row count is
	// strategy-independent — every subquery executes under both
	// strategies, and a divergence fails the harness outright.
	exactCache := map[string]int64{}
	firstCount := map[string]int64{}
	exact := func(q *sparql.Query, strat core.Strategy) int64 {
		pats := ""
		for _, tp := range q.Patterns {
			pats += tp.String() + "\n"
		}
		key := strat.String() + "|" + pats
		if n, ok := exactCache[key]; ok {
			return n
		}
		res, err := s.Query(q, core.QueryOptions{Strategy: strat, Planner: plan.ModeNaive})
		if err != nil {
			t.Fatalf("naive execution of %s: %v", q.Name, err)
		}
		n := int64(len(res.Rows))
		exactCache[key] = n
		if prev, seen := firstCount[pats]; seen {
			if prev != n {
				t.Errorf("%s: naive row count depends on strategy (%d vs %d)\n%s", q.Name, prev, n, pats)
			}
		} else {
			firstCount[pats] = n
		}
		return n
	}

	buckets := map[string]*bucket{}
	bucketFor := func(name string) *bucket {
		b := buckets[name]
		if b == nil {
			b = &bucket{}
			buckets[name] = b
		}
		return b
	}

	var violations []string
	total, bounded := 0, 0
	for _, st := range strategies {
		for _, wq := range queries {
			for _, k := range []int{2, 3} {
				for si, sub := range connectedSubsets(wq.Parsed.Patterns, k) {
					q := &sparql.Query{
						Name:     fmt.Sprintf("%s/%s[%d-%d]", wq.Name, st.name, k, si),
						Patterns: sub,
						Limit:    -1,
					}
					pl, err := s.Plan(q, core.QueryOptions{Strategy: st.strat})
					if err != nil {
						t.Fatalf("planning %s: %v", q.Name, err)
					}
					top := rootEstimate(pl)
					if top == nil {
						t.Fatalf("%s: no estimating node in plan:\n%s", q.Name, pl)
					}
					actual := exact(q, st.strat)
					qe := qErr(pl.Root.Est, actual)
					total++

					src := top.EstSource
					tag := src
					if !constantFree(sub) {
						tag = src + "+const"
					} else if actual == 0 {
						tag = src + "+empty"
					}
					bucketFor(tag).add(qe, q.Name)

					covered := (src == plan.EstSketch || src == plan.EstCSet) &&
						constantFree(sub) && actual > 0
					if covered {
						bounded++
						if qe > qErrorBound {
							violations = append(violations,
								fmt.Sprintf("%s: est=%.4g actual=%d q-error %.2fx (source %s)\n%s",
									q.Name, pl.Root.Est, actual, qe, src, pl))
						}
					}
				}
			}
		}
	}

	names := make([]string, 0, len(buckets))
	for name := range buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	t.Logf("q-error summary over %d 2-/3-pattern connected WatDiv subqueries (%d bounded):", total, bounded)
	for _, name := range names {
		t.Logf("  %s", buckets[name].line(name))
	}

	if bounded == 0 {
		t.Fatalf("no sketch/cset-covered subqueries found — the join statistics are not being used")
	}
	for _, v := range violations {
		t.Errorf("q-error bound (%gx) violated: %s", qErrorBound, v)
	}

	// The bound only has teeth if coverage is real: on the constant-free
	// WatDiv subqueries the sketches must cover a solid majority.
	free := 0
	for name, b := range buckets {
		if name == plan.EstSketch || name == plan.EstCSet || name == plan.EstIndep {
			free += b.n
		}
	}
	if free > 0 && bounded*3 < free {
		t.Errorf("sketch/cset coverage too thin: %d of %d constant-free subqueries bounded", bounded, free)
	}
}
