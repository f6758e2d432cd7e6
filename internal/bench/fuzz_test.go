package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// Strategy aliases keep the table in TestRandomBGPStrategiesAgree tidy.
type coreStrategy = core.Strategy

const (
	coreStrategyMixed    = core.StrategyMixed
	coreStrategyVPOnly   = core.StrategyVPOnly
	coreStrategyMixedIPT = core.StrategyMixedIPT
)

// runStrategy executes q on the fixture's PRoST store under one
// strategy and returns the result row count.
func runStrategy(s *Systems, q *sparql.Query, strat core.Strategy) (int, error) {
	res, err := s.PRoST.Query(q, core.QueryOptions{Strategy: strat, BroadcastThreshold: s.BroadcastThreshold})
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// TestRandomBGPAgreement generates random connected BGPs over the WatDiv
// vocabulary and checks that all four systems return identical row
// counts — a fuzz-style differential test across four independent
// implementations of SPARQL join semantics.
func TestRandomBGPAgreement(t *testing.T) {
	s := systems(t)
	rng := rand.New(rand.NewSource(99))

	preds := []string{
		watdiv.NSwsdbm + "follows",
		watdiv.NSwsdbm + "likes",
		watdiv.NSwsdbm + "friendOf",
		watdiv.NSwsdbm + "livesIn",
		watdiv.NSwsdbm + "gender",
		watdiv.NSfoaf + "age",
		watdiv.NSsorg + "nationality",
		watdiv.NSrev + "reviewer",
		watdiv.NSrev + "rating",
		watdiv.NSgr + "includes",
		watdiv.NSwsdbm + "hasGenre",
		watdiv.NSsorg + "caption",
	}

	for qi := 0; qi < 25; qi++ {
		src := randomBGP(rng, preds)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("query %d does not parse: %v\n%s", qi, err, src)
		}
		q.Name = fmt.Sprintf("fuzz%d", qi)
		counts := map[string]int{}
		for _, name := range SystemNames() {
			out, err := s.RunOn(name, q)
			if err != nil {
				t.Fatalf("query %d on %s: %v\n%s", qi, name, err, src)
			}
			counts[name] = out.Rows
		}
		base := counts[SysPRoST]
		for name, n := range counts {
			if n != base {
				t.Errorf("query %d: %s returned %d rows, PRoST returned %d\n%s", qi, name, n, base, src)
			}
		}
	}
}

// randomBGP builds a random connected BGP of 2–5 patterns: each new
// pattern reuses an existing variable in subject or object position, so
// the query never degenerates into a cartesian product.
func randomBGP(rng *rand.Rand, preds []string) string {
	nPatterns := 2 + rng.Intn(4)
	vars := []string{"v0", "v1"}
	patterns := []string{
		fmt.Sprintf("?v0 <%s> ?v1 .", preds[rng.Intn(len(preds))]),
	}
	for len(patterns) < nPatterns {
		pred := preds[rng.Intn(len(preds))]
		reuse := vars[rng.Intn(len(vars))]
		fresh := fmt.Sprintf("v%d", len(vars))
		var pat string
		switch rng.Intn(3) {
		case 0: // reuse as subject
			pat = fmt.Sprintf("?%s <%s> ?%s .", reuse, pred, fresh)
			vars = append(vars, fresh)
		case 1: // reuse as object
			pat = fmt.Sprintf("?%s <%s> ?%s .", fresh, pred, reuse)
			vars = append(vars, fresh)
		default: // reuse on both sides (adds a cycle)
			other := vars[rng.Intn(len(vars))]
			pat = fmt.Sprintf("?%s <%s> ?%s .", reuse, pred, other)
		}
		patterns = append(patterns, pat)
	}
	src := "SELECT * WHERE {\n"
	for _, p := range patterns {
		src += "  " + p + "\n"
	}
	return src + "}"
}

// TestRandomBGPStrategiesAgree additionally checks PRoST's three
// strategies against each other on the random workload.
func TestRandomBGPStrategiesAgree(t *testing.T) {
	s := systems(t)
	rng := rand.New(rand.NewSource(7))
	preds := []string{
		watdiv.NSwsdbm + "follows",
		watdiv.NSwsdbm + "likes",
		watdiv.NSrev + "reviewer",
		watdiv.NSwsdbm + "hasGenre",
		watdiv.NSwsdbm + "livesIn",
	}
	for qi := 0; qi < 15; qi++ {
		src := randomBGP(rng, preds)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("query %d does not parse: %v\n%s", qi, err, src)
		}
		rows := map[string]int{}
		for _, st := range []struct {
			name string
			s    coreStrategy
		}{
			{"mixed", coreStrategyMixed},
			{"vp-only", coreStrategyVPOnly},
			{"mixed+ipt", coreStrategyMixedIPT},
		} {
			res, err := runStrategy(s, q, st.s)
			if err != nil {
				t.Fatalf("query %d strategy %s: %v\n%s", qi, st.name, err, src)
			}
			rows[st.name] = res
		}
		if rows["mixed"] != rows["vp-only"] || rows["mixed"] != rows["mixed+ipt"] {
			t.Errorf("query %d: strategies disagree: %v\n%s", qi, rows, src)
		}
	}
}
