package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// TestWriteRowsMatchesReference: what prost-query prints — every row,
// and the first three with a count of the rest — is byte for byte the
// rows QueryContext returns, in query order for an ORDER BY query
// without LIMIT (of which only the rows printed are decoded) and sorted
// otherwise, as tab-separated N-Triples terms with unbound OPTIONAL
// cells left empty. Released query regions are poisoned, so rows
// printed from region memory fail to decode.
func TestWriteRowsMatchesReference(t *testing.T) {
	defer engine.PoisonReleased(engine.PoisonReleased(true))
	g := watdiv.MustGenerate(watdiv.Config{Scale: 150, Seed: 7})
	store, err := core.Load(g, core.Options{Cluster: cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 6})})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.QueryOptions{NoPlanCache: true}
	unbound := 0
	for _, text := range []string{
		`PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
		SELECT ?u ?p WHERE { ?u wsdbm:likes ?p . } ORDER BY DESC(?p) ?u`,
		`PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
		PREFIX foaf: <http://xmlns.com/foaf/>
		SELECT ?u ?a WHERE { ?u wsdbm:likes ?p . OPTIONAL { ?u foaf:age ?a . } }`,
	} {
		q := sparql.MustParse(text)
		res, err := store.QueryContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Rows
		if !res.Ordered {
			rows = res.SortedRows()
		}
		if len(rows) <= 3 {
			t.Fatalf("%d rows: nothing is left out at -max-rows 3", len(rows))
		}
		_, ids, err := store.QueryIDs(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxRows := range []int{0, 3} {
			var want bytes.Buffer
			for i, row := range rows {
				if maxRows > 0 && i >= maxRows {
					fmt.Fprintf(&want, "… (%d more rows)\n", len(rows)-maxRows)
					break
				}
				for j, term := range row {
					if j > 0 {
						want.WriteByte('\t')
					}
					if term == (rdf.Term{}) {
						unbound++
					} else {
						want.WriteString(term.String())
					}
				}
				want.WriteByte('\n')
			}
			var got bytes.Buffer
			writeRows(&got, ids, res.Ordered, maxRows)
			if got.String() != want.String() {
				t.Errorf("ordered %v, -max-rows %d: printed\n%.600s\nwant\n%.600s", res.Ordered, maxRows, got.String(), want.String())
			}
		}
	}
	if unbound == 0 {
		t.Error("no row printed has an unbound cell")
	}
}
