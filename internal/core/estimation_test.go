package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/watdiv"
)

// TestRandomBGPEstimationModesAgree is the estimator-isolation property
// test: planner output rows must be byte-identical whether cardinality
// estimates come from the independence assumption, characteristic sets
// only, or characteristic sets plus pair sketches — estimates may steer
// join order and physical methods, but they must never change results.
// Checked for random connected BGPs under all three storage strategies.
// Load collects characteristic sets and pair sketches together, so the
// sets-only store is given a collection without sketches before its
// first query.
func TestRandomBGPEstimationModesAgree(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 150, Seed: 21})
	load := func(opts Options) *Store {
		opts.Cluster = cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
		opts.BuildInversePT = true
		s, err := Load(g, opts)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		return s
	}
	csets := load(Options{})
	setStats(csets, stats.Config{CSets: true, SketchTopK: -1})
	stores := []struct {
		name  string
		store *Store
	}{
		{"indep", load(Options{DisableJoinStats: true})},
		{"cset", csets},
		{"sketch", load(Options{})},
	}

	rng := rand.New(rand.NewSource(5))
	preds := []string{
		watdiv.NSwsdbm + "follows",
		watdiv.NSwsdbm + "likes",
		watdiv.NSwsdbm + "friendOf",
		watdiv.NSrev + "reviewer",
		watdiv.NSrev + "rating",
		watdiv.NSwsdbm + "hasGenre",
		watdiv.NSwsdbm + "livesIn",
		watdiv.NSsorg + "caption",
	}
	for qi := 0; qi < 12; qi++ {
		src := randomBGP(rng, preds)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("query %d does not parse: %v\n%s", qi, err, src)
		}
		for _, strat := range []Strategy{StrategyMixed, StrategyVPOnly, StrategyMixedIPT} {
			want := ""
			for i, st := range stores {
				res, err := st.store.Query(q, QueryOptions{Strategy: strat})
				if err != nil {
					t.Fatalf("query %d strategy %v on %s store: %v\n%s", qi, strat, st.name, err, src)
				}
				got := renderSorted(res)
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("query %d strategy %v: %s-store rows differ from indep-store rows\n%s\nplan:\n%s",
						qi, strat, st.name, src, res.Plan)
				}
			}
		}
	}
}

// randomBGP builds a random connected BGP of 2–5 patterns: each new
// pattern reuses an existing variable in subject or object position, or
// both (a cycle), so the query never degenerates into a cartesian
// product.
func randomBGP(rng *rand.Rand, preds []string) string {
	nPatterns := 2 + rng.Intn(4)
	vars := []string{"v0", "v1"}
	src := fmt.Sprintf("SELECT * WHERE {\n  ?v0 <%s> ?v1 .\n", preds[rng.Intn(len(preds))])
	for n := 1; n < nPatterns; n++ {
		pred := preds[rng.Intn(len(preds))]
		reuse := vars[rng.Intn(len(vars))]
		fresh := fmt.Sprintf("v%d", len(vars))
		switch rng.Intn(3) {
		case 0: // reuse as subject
			src += fmt.Sprintf("  ?%s <%s> ?%s .\n", reuse, pred, fresh)
			vars = append(vars, fresh)
		case 1: // reuse as object
			src += fmt.Sprintf("  ?%s <%s> ?%s .\n", fresh, pred, reuse)
			vars = append(vars, fresh)
		default: // reuse on both sides
			src += fmt.Sprintf("  ?%s <%s> ?%s .\n", reuse, pred, vars[rng.Intn(len(vars))])
		}
	}
	return src + "}"
}
