package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/watdiv"
)

// ExtVPRecord is one query's A/B/C measurement of the workload-driven
// ExtVP semi-join tables against the sketch store: the sketch
// baseline, the cold run (the query's first run on the workload store,
// which sees only the reductions the queries before it earned), and the
// warm run once the workload's hot pairs are materialized.
type ExtVPRecord struct {
	Query     string  `json:"query"`
	Group     string  `json:"group"`
	Rows      int     `json:"rows"`
	BaseSimMS float64 `json:"baseSimMs"`
	ColdSimMS float64 `json:"coldSimMs"`
	WarmSimMS float64 `json:"warmSimMs"`
	// WinPct is the warm run's SimTime win over the baseline in
	// percent; negative means the rewritten plan regressed.
	WinPct float64 `json:"winPct"`
}

// ExtVPProfile measures the workload-driven semi-join tables (A7):
// every query runs cold on the ExtVP store, mining its join pairs and
// building the reductions they earn before the next query starts; the
// workload is then replayed until the rewritten plans stabilize, and
// the stable warm time is paired with the sketch baseline measured on
// the default store. Builds run on the query that earns them, so the
// profile depends only on the query order.
//
// Both sides run VP-only: the rewrite targets VP scans, and under the
// mixed strategy star shapes route through the Property Table where a
// per-predicate reduction has nothing to attach to. The plan cache is
// bypassed so every run prices and pays for a fresh plan — the
// comparison is planner output vs planner output, not cache state.
func (s *Systems) ExtVPProfile(queries []watdiv.Query) ([]ExtVPRecord, error) {
	store, err := s.PRoSTExtVP()
	if err != nil {
		return nil, fmt.Errorf("bench: extvp profile: %w", err)
	}
	opts := core.QueryOptions{Strategy: core.StrategyVPOnly, BroadcastThreshold: s.BroadcastThreshold,
		NoPlanCache: true}

	// Cold pass: the workload model observes every executed join, and
	// a query whose joins cross the build threshold builds their
	// reductions, so later cold queries may already rewrite onto them.
	cold := make(map[string]*core.Result, len(queries))
	for _, q := range queries {
		res, err := store.Query(q.Parsed, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: extvp profile, %s cold: %w", q.Name, err)
		}
		cold[q.Name] = res
	}

	// Warm until stable: a rewritten plan can shift which joins execute
	// and therefore which pairs the model sees next, so replay the
	// workload until the aggregate simulated time stops moving.
	warm := make(map[string]*core.Result, len(queries))
	prev := time.Duration(-1)
	for i := 0; i < 6; i++ {
		var total time.Duration
		for _, q := range queries {
			res, err := store.Query(q.Parsed, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: extvp profile, %s warm: %w", q.Name, err)
			}
			warm[q.Name] = res
			total += res.SimTime
		}
		if total == prev {
			break
		}
		prev = total
	}

	var out []ExtVPRecord
	for _, q := range queries {
		base, err := s.PRoST.Query(q.Parsed, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: extvp profile, %s baseline: %w", q.Name, err)
		}
		c, w := cold[q.Name], warm[q.Name]
		if len(c.Rows) != len(base.Rows) || len(w.Rows) != len(base.Rows) {
			return nil, fmt.Errorf("bench: extvp profile, %s: row counts diverge (base %d, cold %d, warm %d)",
				q.Name, len(base.Rows), len(c.Rows), len(w.Rows))
		}
		out = append(out, ExtVPRecord{
			Query:     q.Name,
			Group:     q.Group,
			Rows:      len(base.Rows),
			BaseSimMS: ms(base.SimTime),
			ColdSimMS: ms(c.SimTime),
			WarmSimMS: ms(w.SimTime),
			WinPct:    100 * (1 - float64(w.SimTime)/float64(base.SimTime)),
		})
	}
	return out, nil
}

// AblationExtVP renders the profile as the A7 figure: the sketch-store
// baseline against the workload store cold (mining, unrewritten) and
// warm (rewritten onto the materialized reductions).
func (s *Systems) AblationExtVP(queries []watdiv.Query) (Figure, error) {
	recs, err := s.ExtVPProfile(queries)
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Title: "Ablation A7: workload-driven ExtVP semi-join tables vs sketch store (VP-only)",
		Series: []Series{
			{Name: "sketch-baseline"},
			{Name: "extvp-cold"},
			{Name: "extvp-warm"},
		},
	}
	for _, r := range recs {
		fig.Labels = append(fig.Labels, r.Query)
		fig.Series[0].Values = append(fig.Series[0].Values, time.Duration(r.BaseSimMS*float64(time.Millisecond)))
		fig.Series[1].Values = append(fig.Series[1].Values, time.Duration(r.ColdSimMS*float64(time.Millisecond)))
		fig.Series[2].Values = append(fig.Series[2].Values, time.Duration(r.WarmSimMS*float64(time.Millisecond)))
	}
	return fig, nil
}

// ExtVPTable renders the profile for human consumption.
func ExtVPTable(recs []ExtVPRecord) Table {
	t := Table{
		Title:  "Workload-driven ExtVP tables vs sketch store: cold, warm, win",
		Header: []string{"query", "base-ms", "cold-ms", "warm-ms", "win"},
	}
	for _, r := range recs {
		t.Rows = append(t.Rows, []string{
			r.Query,
			fmt.Sprintf("%.2f", r.BaseSimMS),
			fmt.Sprintf("%.2f", r.ColdSimMS),
			fmt.Sprintf("%.2f", r.WarmSimMS),
			fmt.Sprintf("%.1f%%", r.WinPct),
		})
	}
	return t
}

// extvpTrajectory is the BENCH_extvp.json document: the fixture's
// shape plus the per-query records. Every field is derived from the
// virtual cost model, so reruns on any machine produce identical
// bytes — the committed file only changes when an engine or pricing
// change moves a tracked metric.
type extvpTrajectory struct {
	Scale   int           `json:"scale"`
	Workers int           `json:"workers"`
	Queries []ExtVPRecord `json:"queries"`
}

// WriteExtVPTrajectory writes the profile to path as the
// BENCH_extvp.json trajectory document.
func WriteExtVPTrajectory(path string, scale, workers int, recs []ExtVPRecord) error {
	doc := extvpTrajectory{Scale: scale, Workers: workers, Queries: recs}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
