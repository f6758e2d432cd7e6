package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/watdiv"
)

// TestExtVPProfileShape pins the workload-driven ExtVP acceptance
// shape on the extrapolated cross-system fixture: once the hot pairs
// are materialized, the C-family (complex queries, the join-heaviest
// group) must win at least 20% aggregate SimTime against the
// sketch store, and no query anywhere may regress more than 1% — a
// rewrite the pricer keeps must actually pay off. The measured profile
// is then written out and read back — over BENCH_extvp.json at the
// repo root under -update, to a scratch directory otherwise; all
// numbers come from the virtual cost model.
func TestExtVPProfileShape(t *testing.T) {
	sys := systems(t)
	queries := watdiv.BasicQuerySet()
	recs, err := sys.ExtVPProfile(queries)
	if err != nil {
		t.Fatalf("ExtVPProfile: %v", err)
	}

	famBase := map[string]float64{}
	famWarm := map[string]float64{}
	for _, r := range recs {
		if r.WarmSimMS > r.BaseSimMS*1.01 {
			t.Errorf("%s: warm %.2fms regresses >1%% vs sketch baseline %.2fms", r.Query, r.WarmSimMS, r.BaseSimMS)
		}
		famBase[r.Group] += r.BaseSimMS
		famWarm[r.Group] += r.WarmSimMS
		t.Logf("%-4s base=%9.2fms cold=%9.2fms warm=%9.2fms win=%5.1f%%",
			r.Query, r.BaseSimMS, r.ColdSimMS, r.WarmSimMS, r.WinPct)
	}
	for _, g := range watdiv.Groups() {
		win := 100 * (1 - famWarm[g]/famBase[g])
		t.Logf("family %s aggregate win = %.1f%%", g, win)
		if g == "C" && win < 20 {
			t.Errorf("C-family aggregate win %.1f%%, want >= 20%%", win)
		}
	}

	out := ExtVPTable(recs).String()
	for _, q := range queries {
		if !strings.Contains(out, q.Name) {
			t.Errorf("extvp table missing %s:\n%s", q.Name, out)
		}
	}

	path := trajectoryPath(t, "BENCH_extvp.json")
	if err := WriteExtVPTrajectory(path, fixtureScale, sys.Cluster.Workers(), recs); err != nil {
		t.Fatalf("WriteExtVPTrajectory: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trajectory: %v", err)
	}
	var doc struct {
		Scale   int
		Workers int
		Queries []ExtVPRecord
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trajectory not valid JSON: %v", err)
	}
	if doc.Scale != fixtureScale || doc.Workers != sys.Cluster.Workers() || len(doc.Queries) != len(recs) {
		t.Errorf("trajectory round-trip mismatch: scale=%d workers=%d queries=%d", doc.Scale, doc.Workers, len(doc.Queries))
	}
}

// TestExtVPProfileDeterministic: reductions are built by the query that
// earns them, before the next query starts, so the profile depends only
// on the query order. Two freshly loaded fixtures must agree in every
// record, all four simulated-time fields included.
func TestExtVPProfileDeterministic(t *testing.T) {
	queries := watdiv.BasicQuerySet()
	var runs [2][]ExtVPRecord
	for i := range runs {
		g := watdiv.MustGenerate(watdiv.Config{Scale: fixtureScale, Seed: 42})
		sys, err := LoadAll(g, LoadOptions{InversePT: true, ExtrapolateTriples: 100_000_000})
		if err != nil {
			t.Fatalf("LoadAll: %v", err)
		}
		if runs[i], err = sys.ExtVPProfile(queries); err != nil {
			t.Fatalf("ExtVPProfile: %v", err)
		}
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("profiles hold %d and %d records", len(runs[0]), len(runs[1]))
	}
	for i, r := range runs[0] {
		if !reflect.DeepEqual(r, runs[1][i]) {
			t.Errorf("%s differs between runs:\n%+v\n%+v", r.Query, r, runs[1][i])
		}
	}
}
