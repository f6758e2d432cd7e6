package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// scanShapes are the access-path shapes the 26 WatDiv queries never
// produce. min is the least number of rows the fixture must answer with
// (0: the point of the shape is that it is empty).
var scanShapes = []struct {
	name, body string
	min        int
}{
	{"existence test that holds", `SELECT ?o WHERE { wsdbm:User0 wsdbm:follows wsdbm:User0 . wsdbm:User0 wsdbm:likes ?o }`, 1},
	{"existence test that fails", `SELECT ?o WHERE { wsdbm:User0 wsdbm:follows wsdbm:Product0 . wsdbm:User0 wsdbm:likes ?o }`, 0},
	{"existence test on an unknown term", `SELECT ?o WHERE { wsdbm:User0 wsdbm:follows wsdbm:Nobody . wsdbm:User0 wsdbm:likes ?o }`, 0},
	{"unknown predicate", `SELECT ?s ?o WHERE { ?s wsdbm:nope ?o }`, 0},
	{"unknown predicate in a star", `SELECT ?s ?o ?p WHERE { ?s wsdbm:nope ?o . ?s wsdbm:likes ?p }`, 0},
	{"unknown bound object", `SELECT ?s WHERE { ?s wsdbm:follows wsdbm:Nobody }`, 0},
	{"unknown bound object in a star", `SELECT ?s ?p WHERE { ?s wsdbm:follows wsdbm:Nobody . ?s wsdbm:likes ?p }`, 0},
	{"?u p ?u", `SELECT ?u WHERE { ?u wsdbm:follows ?u }`, 1},
	{"?u p ?u in a star", `SELECT ?u ?p WHERE { ?u wsdbm:follows ?u . ?u wsdbm:likes ?p }`, 1},
	{"bound subject, free object", `SELECT ?o WHERE { wsdbm:User0 wsdbm:follows ?o }`, 1},
	{"variable predicate, bound subject", `SELECT ?p ?o WHERE { wsdbm:User0 ?p ?o }`, 1},
	{"variable predicate, bound object", `SELECT ?s ?p WHERE { ?s ?p wsdbm:User0 }`, 1},
	{"variable predicate joined under a pushed filter", `SELECT ?u ?p ?id WHERE { ?u ?p ?o . ?u wsdbm:userId ?id . FILTER(?o = wsdbm:Product0) }`, 1},
	{"pushed filter on a VP leaf", `SELECT ?u ?id WHERE { ?u wsdbm:userId ?id . FILTER(?id < 5) }`, 1},
	{"pushed filter on a PT star", `SELECT ?u ?id ?p WHERE { ?u wsdbm:userId ?id . ?u wsdbm:likes ?p . FILTER(?id < 5) }`, 1},
	{"object star", `SELECT ?a ?b ?u WHERE { ?a wsdbm:follows ?u . ?b wsdbm:friendOf ?u }`, 1},
}

// renderTrace flattens a result's stage trace, every field of every
// record.
func renderTrace(res *core.Result) string {
	var sb strings.Builder
	for _, st := range res.Clock.Stages() {
		fmt.Fprintf(&sb, "%+v\n", st)
	}
	return sb.String()
}

// TestScanShapesAgreeAcrossRoutes: a Join Tree node is resolved into one
// access path whichever route executes it, so on every scan shape and
// under every strategy the materialized scheduler, the streaming
// pipelines and a 2-shard coordinator return the same rows, and the
// coordinator's SimTime and stage trace are the single-process ones.
func TestScanShapesAgreeAcrossRoutes(t *testing.T) {
	store := testStore(t)
	coord := dialShards(t, store, 2)
	for _, shape := range scanShapes {
		q, err := sparql.Parse("PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>\n" + shape.body)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		for _, stratName := range core.StrategyNames() {
			strat, err := core.ParseStrategy(stratName)
			if err != nil {
				t.Fatal(err)
			}
			label := shape.name + "/" + stratName
			// The static plan: no route runs an entry another corrected.
			opts := core.QueryOptions{Strategy: strat, NoPlanCache: true}
			mat, err := store.Query(q, opts)
			if err != nil {
				t.Fatalf("%s materialized: %v", label, err)
			}
			if shape.min == 0 && len(mat.Rows) != 0 {
				t.Errorf("%s: %d rows, want none", label, len(mat.Rows))
			} else if len(mat.Rows) < shape.min {
				t.Errorf("%s: no rows, want some", label)
			}
			want := renderResult(mat)

			sopts := opts
			sopts.Streaming = true
			str, err := store.Query(q, sopts)
			if err != nil {
				t.Fatalf("%s streaming: %v", label, err)
			}
			if !str.Streamed {
				t.Errorf("%s: the streaming compiler handed the plan back", label)
			}
			if got := renderResult(str); got != want {
				t.Errorf("%s: streaming rows diverge from materialized\ngot:\n%swant:\n%s", label, got, want)
			}

			dopts := opts
			dopts.Dist = coord
			dist, err := store.Query(q, dopts)
			if err != nil {
				t.Fatalf("%s on 2 shards: %v", label, err)
			}
			if got := renderResult(dist); got != want {
				t.Errorf("%s: sharded rows diverge from materialized\ngot:\n%swant:\n%s", label, got, want)
			}
			if dist.SimTime != mat.SimTime {
				t.Errorf("%s: SimTime %v on 2 shards, %v single-process", label, dist.SimTime, mat.SimTime)
			}
			if got, want := renderTrace(dist), renderTrace(mat); got != want {
				t.Errorf("%s: stage trace on 2 shards differs from single-process\ngot:\n%swant:\n%s", label, got, want)
			}
		}
	}
}

// constantFree reports a query none of whose patterns binds a subject or
// an object.
func constantFree(q *sparql.Query) bool {
	for _, tp := range q.Patterns {
		if !tp.S.IsVar() || !tp.O.IsVar() {
			return false
		}
	}
	return true
}

// TestCoordinatorPlansWithoutExtVP: shards hold base tables, so a
// coordinator on a store with a warm workload model must not plan, price
// or label scans as semi-join reductions — every basic query on 2 shards
// carries no rewrite and costs exactly what it costs on a store loaded
// without an ExtVP budget, while the same store's local queries keep
// their rewrites (and neither kind of plan is served to the other from
// the plan cache).
func TestCoordinatorPlansWithoutExtVP(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: testScale, Seed: 42})
	ext, err := core.Load(g, core.Options{Cluster: cluster.MustNew(cluster.DefaultConfig()),
		BuildInversePT: true, ExtVPBudget: 1 << 30, ExtVPBuildAfter: 1})
	if err != nil {
		t.Fatalf("loading the ExtVP store: %v", err)
	}
	plain := testStore(t)
	coord := dialShards(t, ext, 2)
	queries := watdiv.BasicQuerySet()
	opts := core.QueryOptions{Strategy: core.StrategyVPOnly, NoPlanCache: true}

	// Warm the model with local runs of the constant-free queries — the
	// join pairs they mine are the ones the others share, and they leave
	// no observed scan cardinality behind to seed estimates the plain
	// store cannot have. Each run builds the reductions it earns before
	// it returns, so the set of live reductions is settled before
	// anything is compared.
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			if !constantFree(q.Parsed) {
				continue
			}
			if _, err := ext.Query(q.Parsed, opts); err != nil {
				t.Fatalf("%s local: %v", q.Name, err)
			}
		}
	}
	rewritten := 0
	for _, q := range queries {
		if p, err := ext.Plan(q.Parsed, opts); err != nil {
			t.Fatalf("%s: planning locally: %v", q.Name, err)
		} else if strings.Contains(p.String(), "est-source=extvp") {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Fatalf("no local plan is rewritten to a reduction: the test exercises nothing")
	}
	built := ext.WorkloadMetrics().TablesBuilt

	for _, q := range queries {
		want, err := plain.Query(q.Parsed, opts)
		if err != nil {
			t.Fatalf("%s on the plain store: %v", q.Name, err)
		}
		dopts := opts
		dopts.Dist = coord
		got, err := ext.Query(q.Parsed, dopts)
		if err != nil {
			t.Fatalf("%s on 2 shards: %v", q.Name, err)
		}
		for _, n := range got.Plan.Scans() {
			if n.ExtVP != nil {
				t.Errorf("%s: sharded plan scans a reduction at %s", q.Name, n.Label)
			}
		}
		if s := got.Plan.String(); strings.Contains(s, "est-source=extvp") {
			t.Errorf("%s: sharded plan priced from a reduction:\n%s", q.Name, s)
		}
		if renderResult(got) != renderResult(want) {
			t.Errorf("%s: sharded rows differ from the plain store's", q.Name)
		}
		if got.SimTime != want.SimTime {
			t.Errorf("%s: SimTime %v on 2 shards of the ExtVP store, %v on the plain store", q.Name, got.SimTime, want.SimTime)
		}
		if !reflect.DeepEqual(got.Clock.Stages(), want.Clock.Stages()) {
			t.Errorf("%s: stage trace differs from the plain store's\ngot:\n%swant:\n%s", q.Name, renderTrace(got), renderTrace(want))
		}
	}
	if now := ext.WorkloadMetrics().TablesBuilt; now != built {
		t.Errorf("sharded queries fed the reduction builder: %d tables built, %d before", now, built)
	}
}
