package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/testenv"
)

// edgeGraph exercises the Property Table corner cases: multi-valued
// cells, self-referential triples, and repeated predicates per subject.
func edgeGraph() *rdf.Graph {
	iri := func(s string) rdf.Term { return rdf.NewIRI(testNS + s) }
	g := rdf.NewGraph(0)
	add := func(s, p string, o rdf.Term) { g.AddSPO(iri(s), iri(p), o) }

	// a knows b and c (multi-valued); a rates both 5 and 7.
	add("a", "knows", iri("b"))
	add("a", "knows", iri("c"))
	add("a", "rates", rdf.NewTypedLiteral("5", rdf.XSDInteger))
	add("a", "rates", rdf.NewTypedLiteral("7", rdf.XSDInteger))
	// b knows itself (key == value) and knows c.
	add("b", "knows", iri("b"))
	add("b", "knows", iri("c"))
	add("b", "rates", rdf.NewTypedLiteral("5", rdf.XSDInteger))
	// c has rates only.
	add("c", "rates", rdf.NewTypedLiteral("9", rdf.XSDInteger))
	return g
}

func edgeStore(t *testing.T) *Store {
	t.Helper()
	c := cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: 3})
	s, err := Load(edgeGraph(), Options{Cluster: c, BuildInversePT: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

func TestPTScanMultiValuedFlatten(t *testing.T) {
	s := edgeStore(t)
	// Star over two multi-valued predicates: the PT node must emit the
	// cartesian combination per subject (the paper's flatten).
	got := runQuery(t, s, `SELECT ?s ?k ?r WHERE {
		?s <http://example.org/knows> ?k .
		?s <http://example.org/rates> ?r .
	}`, StrategyMixed)
	want := []string{
		"a|b|5", "a|b|7", "a|c|5", "a|c|7",
		"b|b|5", "b|c|5",
	}
	eqStrings(t, got, want, "flatten")
	// VP-only must agree.
	vp := runQuery(t, s, `SELECT ?s ?k ?r WHERE {
		?s <http://example.org/knows> ?k .
		?s <http://example.org/rates> ?r .
	}`, StrategyVPOnly)
	eqStrings(t, vp, want, "flatten vp-only")
}

func TestPTScanSameVariableTwice(t *testing.T) {
	s := edgeStore(t)
	// ?s knows ?s: the value must equal the row key (only b qualifies).
	got := runQuery(t, s, `SELECT ?s WHERE {
		?s <http://example.org/knows> ?s .
		?s <http://example.org/rates> ?r .
	}`, StrategyMixed)
	eqStrings(t, got, []string{"b"}, "self loop")
}

func TestPTScanRepeatedPredicateDistinctVars(t *testing.T) {
	s := edgeStore(t)
	// Same predicate twice with different object vars: pairs of knows
	// values per subject (including equal pairs).
	got := runQuery(t, s, `SELECT ?s ?x ?y WHERE {
		?s <http://example.org/knows> ?x .
		?s <http://example.org/knows> ?y .
	}`, StrategyMixed)
	want := []string{
		"a|b|b", "a|b|c", "a|c|b", "a|c|c",
		"b|b|b", "b|b|c", "b|c|b", "b|c|c",
	}
	eqStrings(t, got, want, "repeated predicate")
	vp := runQuery(t, s, `SELECT ?s ?x ?y WHERE {
		?s <http://example.org/knows> ?x .
		?s <http://example.org/knows> ?y .
	}`, StrategyVPOnly)
	eqStrings(t, vp, want, "repeated predicate vp-only")
}

func TestPTScanRepeatedPredicateSharedVar(t *testing.T) {
	s := edgeStore(t)
	// Same predicate twice binding the SAME var: plain membership.
	got := runQuery(t, s, `SELECT ?s ?x WHERE {
		?s <http://example.org/knows> ?x .
		?s <http://example.org/knows> ?x .
	}`, StrategyMixed)
	want := []string{"a|b", "a|c", "b|b", "b|c"}
	eqStrings(t, got, want, "shared var")
}

func TestPTScanBoundObjectConstraint(t *testing.T) {
	s := edgeStore(t)
	got := runQuery(t, s, `SELECT ?s ?r WHERE {
		?s <http://example.org/knows> <http://example.org/c> .
		?s <http://example.org/rates> ?r .
	}`, StrategyMixed)
	want := []string{"a|5", "a|7", "b|5"}
	eqStrings(t, got, want, "bound object")
}

func TestInversePTSelfLoopAndPairs(t *testing.T) {
	s := edgeStore(t)
	// Object star: pairs of subjects knowing the same entity.
	q := sparql.MustParse(`SELECT ?x ?y WHERE {
		?x <http://example.org/knows> ?k .
		?y <http://example.org/knows> ?k .
	}`)
	ipt, err := s.Query(q, QueryOptions{Strategy: StrategyMixedIPT})
	if err != nil {
		t.Fatalf("ipt: %v", err)
	}
	mixed, err := s.Query(q, QueryOptions{Strategy: StrategyMixed})
	if err != nil {
		t.Fatalf("mixed: %v", err)
	}
	eqStrings(t, renderRows(ipt), renderRows(mixed), "ipt vs mixed pairs")
	// Sanity: tree used an IPT node.
	usedIPT := false
	for _, n := range ipt.Tree.Nodes {
		if n.Kind == NodeIPT {
			usedIPT = true
		}
	}
	if !usedIPT {
		t.Errorf("object star did not use the inverse PT:\n%s", ipt.Tree)
	}
}

func TestPTMultiValuedColumnsOnHDFS(t *testing.T) {
	s := edgeStore(t)
	knows, ok := s.Dictionary().Lookup(rdf.NewIRI(testNS + "knows"))
	if !ok {
		t.Fatalf("knows not in dictionary")
	}
	if !s.PropertyTable().MultiValued(knows) {
		t.Errorf("knows not multi-valued in PT")
	}
	if s.PropertyTable().FileBytes() <= 0 {
		t.Errorf("PT FileBytes = %d", s.PropertyTable().FileBytes())
	}
	files := s.FS().ListPrefix("/prost/pt/")
	if len(files) != s.Partitions() {
		t.Errorf("PT files on HDFS = %d, want %d", len(files), s.Partitions())
	}
	for _, f := range files {
		if !strings.HasSuffix(f, ".parquet") {
			t.Errorf("unexpected PT file name %q", f)
		}
	}
}

func TestVPTableAccessors(t *testing.T) {
	s := edgeStore(t)
	knows, _ := s.Dictionary().Lookup(rdf.NewIRI(testNS + "knows"))
	vt := s.VPTable(knows)
	if vt == nil {
		t.Fatalf("VPTable(knows) = nil")
	}
	if vt.Rows() != 4 {
		t.Errorf("knows VP rows = %d, want 4", vt.Rows())
	}
	if vt.FileBytes <= 0 {
		t.Errorf("knows VP FileBytes = %d", vt.FileBytes)
	}
	if s.VPTable(rdf.ID(9999)) != nil {
		t.Errorf("VPTable of unknown predicate not nil")
	}
}

// --- the columnar table and its sorted-intersection scan ---

// starPat is one pattern of a star in key/value terms, so the same
// template reads as a subject star (PT) or an object star (inverse PT).
// The value is "?var", or a bound term's local name.
type starPat struct{ pred, value string }

// patterns renders the star's patterns around key variable ?k.
func starPatterns(mode ptKeyMode, pats []starPat) []sparql.TriplePattern {
	term := func(v string) sparql.PatternTerm {
		if strings.HasPrefix(v, "?") {
			return sparql.PatternTerm{Var: v[1:]}
		}
		return sparql.PatternTerm{Term: rdf.NewIRI(testNS + v)}
	}
	out := make([]sparql.TriplePattern, len(pats))
	for i, p := range pats {
		key, value := term("?k"), term(p.value)
		out[i] = sparql.TriplePattern{S: key, P: term(p.pred), O: value}
		if mode == keyOnObject {
			out[i].S, out[i].O = value, key
		}
	}
	return out
}

// randomStarGraph draws a graph over entities e0..e{n-1} (subjects and
// objects alike, so self loops and object stars exist) and predicates
// p0..p3 with 0–3 values per (entity, predicate), half of them drawn
// from e0..e3, plus a predicate
// "rare" that only two entities carry, so most partitions lack its
// column.
func randomStarGraph(rng *rand.Rand, n int) *rdf.Graph {
	ent := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%se%d", testNS, i)) }
	pred := func(name string) rdf.Term { return rdf.NewIRI(testNS + name) }
	g := rdf.NewGraph(0)
	for s := 0; s < n; s++ {
		for p := 0; p < 4; p++ {
			for k := rng.Intn(4); k > 0; k-- {
				o := rng.Intn(n)
				if rng.Intn(2) == 0 {
					o = rng.Intn(4) // popular objects: shared values, hits for bound terms
				}
				g.AddSPO(ent(s), pred(fmt.Sprintf("p%d", p)), ent(o))
			}
		}
		if rng.Intn(3) == 0 {
			g.AddSPO(ent(s), pred(fmt.Sprintf("p%d", rng.Intn(2))), ent(s)) // self loop
		}
	}
	for i := 0; i < 2; i++ {
		g.AddSPO(ent(rng.Intn(n)), pred("rare"), ent(rng.Intn(n)))
	}
	return g
}

func starStore(t testing.TB, g *rdf.Graph, partitions int) *Store {
	t.Helper()
	c := cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: partitions})
	s, err := Load(g, Options{Cluster: c, BuildInversePT: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

func allPartitions(int) bool { return true }

// sortedRowStrings renders rows as sorted strings for multiset
// comparison.
func sortedRowStrings(rows []engine.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint([]rdf.ID(r))
	}
	sort.Strings(out)
	return out
}

// TestPTScanMatchesReferenceOnRandomGraphs is the differential property
// of the columnar scan: on random graphs with multi-valued cells, every
// star shape the scan has a case for — ?k p ?k, a variable shared by
// two predicates, a predicate repeated with distinct and with shared
// variables, bound values alone and beside ?k p ?k, a predicate most
// partitions lack — returns exactly what nested loops over the triples
// return, from the PT and from the inverse PT, scanned directly and
// through both executors. Along the way it pins what the cost model is
// charged (processed = the smallest column's key count, nothing for a
// partition lacking a column) and that rows come out in ascending key
// order in their key's partition.
func TestPTScanMatchesReferenceOnRandomGraphs(t *testing.T) {
	templates := func(bound string) map[string][]starPat {
		return map[string][]starPat{
			"self loop":                   {{"p0", "?k"}, {"p1", "?x"}},
			"variable across predicates":  {{"p0", "?x"}, {"p1", "?x"}},
			"predicate twice, two vars":   {{"p2", "?x"}, {"p2", "?y"}},
			"predicate twice, one var":    {{"p2", "?x"}, {"p2", "?x"}, {"p3", "?y"}},
			"bound value":                 {{"p0", bound}, {"p1", "?x"}},
			"bound value and self loop":   {{"p0", bound}, {"p1", "?k"}},
			"column missing in places":    {{"rare", "?x"}, {"p0", "?y"}},
			"three multi-valued columns":  {{"p0", "?x"}, {"p1", "?y"}, {"p3", "?z"}},
			"shared var after a new one":  {{"p0", "?x"}, {"p1", "?y"}, {"p2", "?x"}},
			"bound value, dense driver":   {{"p3", "?x"}, {"p2", bound}, {"p1", "?y"}},
			"self loop on the last wheel": {{"p1", "?x"}, {"p3", "?y"}, {"p0", "?k"}},
		}
	}
	matched := map[string]int{} // reference rows per template and table, over all seeds
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		g := randomStarGraph(rng, n)
		s := starStore(t, g, 1+rng.Intn(6))
		for name, star := range templates(fmt.Sprintf("e%d", rng.Intn(4))) {
			for _, mode := range []ptKeyMode{keyOnSubject, keyOnObject} {
				label := fmt.Sprintf("seed %d, %s, inverse=%v", seed, name, mode == keyOnObject)
				node := &Node{Kind: NodePT, Key: "k", Patterns: starPatterns(mode, star)}
				pt, strategy := s.pt, StrategyMixed
				if mode == keyOnObject {
					node.Kind, pt, strategy = NodeIPT, s.ipt, StrategyMixedIPT
				}
				spec := s.ptNodeScan(pt, node)
				if spec.empty {
					t.Fatalf("%s: scan recipe empty", label)
				}

				var want []engine.Row
				for _, b := range refEvalBGP(s.triples, s, node.Patterns) {
					r := make(engine.Row, len(spec.schema))
					for i, v := range spec.schema {
						r[i] = b[v]
					}
					want = append(want, r)
				}
				matched[fmt.Sprintf("%s, inverse=%v", name, mode == keyOnObject)] += len(want)

				parts, processed, err := s.ScanNodeParts(node, nil, allPartitions)
				if err != nil {
					t.Fatalf("%s: ScanNodeParts: %v", label, err)
				}
				var got []engine.Row
				for p, rows := range parts {
					got = append(got, rows...)
					for i, r := range rows {
						if engine.PartitionFor(r[0], len(parts)) != p {
							t.Errorf("%s: key %d emitted from partition %d", label, r[0], p)
						}
						if i > 0 && r[0] < rows[i-1][0] {
							t.Errorf("%s: partition %d rows not in ascending key order", label, p)
						}
					}
					driverKeys := int64(-1)
					for _, sp := range spec.specs {
						col := pt.parts[p].cols[sp.pid]
						if col == nil {
							driverKeys = 0
							break
						}
						if driverKeys < 0 || int64(len(col.keys)) < driverKeys {
							driverKeys = int64(len(col.keys))
						}
					}
					if processed[p] != driverKeys {
						t.Errorf("%s: partition %d processed = %d, want the driver column's %d keys", label, p, processed[p], driverKeys)
					}
				}
				eqStrings(t, sortedRowStrings(got), sortedRowStrings(want), label)

				// A partition at a time into one region, the shard server's
				// way: each partition's rows and count again.
				ns, err := s.PrepareNodeScan(node, nil)
				if err != nil {
					t.Fatalf("%s: PrepareNodeScan: %v", label, err)
				}
				region := engine.NewRegion()
				for p := range parts {
					rows, n := ns.ScanPart(p, region)
					if n != processed[p] || fmt.Sprint(rows.Rows()) != fmt.Sprint(parts[p]) {
						t.Errorf("%s: partition %d scanned into a region: %d rows, %d processed; want %d and %d",
							label, p, rows.Len(), n, len(parts[p]), processed[p])
					}
				}
				region.Release()

				// The same star as a query, through both executors.
				texts := make([]string, len(node.Patterns))
				for i, tp := range node.Patterns {
					texts[i] = tp.String()
				}
				q, err := sparql.Parse("SELECT * WHERE { " + strings.Join(texts, " . ") + " }")
				if err != nil {
					t.Fatalf("%s: Parse: %v", label, err)
				}
				ref := sortLines(refEval(t, s, g, q))
				for _, streaming := range []bool{false, true} {
					res, err := s.Query(q, QueryOptions{Strategy: strategy, Streaming: streaming})
					if err != nil {
						t.Fatalf("%s streaming=%v: Query: %v", label, streaming, err)
					}
					if out := sortLines(renderInOrder(res)); out != ref {
						t.Errorf("%s streaming=%v: query result differs from the reference:\n got %q\nwant %q", label, streaming, out, ref)
					}
				}
			}
		}
	}
	if len(matched) != 2*len(templates("")) {
		t.Errorf("%d template × table combinations ran, want %d", len(matched), 2*len(templates("")))
	}
	for label, rows := range matched {
		if rows == 0 {
			t.Errorf("%s: no seed produced a matching row; the case is not being tested", label)
		}
	}
}

// TestPTColumnsSortedAndComplete checks the layout itself: in every
// column of both tables keys ascend strictly, offsets (present only
// where some key has several values) tile the values, each key sits in
// its placement partition, and the cells are exactly the loaded
// triples, each key's values in load order.
func TestPTColumnsSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := starStore(t, randomStarGraph(rng, 60), 4)
	for _, pt := range []*PropertyTable{s.pt, s.ipt} {
		type cell struct{ pred, key rdf.ID }
		want := map[cell][]rdf.ID{}
		for _, tr := range s.triples {
			c, v := cell{tr.P, tr.S}, tr.O
			if pt.mode == keyOnObject {
				c, v = cell{tr.P, tr.O}, tr.S
			}
			want[c] = append(want[c], v)
		}
		cells, rowKeys := 0, map[rdf.ID]bool{}
		for p, part := range pt.parts {
			for pred, col := range part.cols {
				multi := false
				for i, key := range col.keys {
					if i > 0 && key <= col.keys[i-1] {
						t.Fatalf("mode %d partition %d pred %d: keys not strictly ascending at %d", pt.mode, p, pred, i)
					}
					if engine.PartitionFor(key, len(pt.parts)) != p {
						t.Errorf("mode %d: key %d stored in partition %d", pt.mode, key, p)
					}
					vs := col.values(i)
					if !slices.Equal(vs, want[cell{pred, key}]) {
						t.Errorf("mode %d pred %d key %d: values %v, want %v (load order)", pt.mode, pred, key, vs, want[cell{pred, key}])
					}
					multi = multi || len(vs) > 1
					cells++
					rowKeys[key] = true
				}
				if (col.offs != nil) != multi {
					t.Errorf("mode %d partition %d pred %d: offsets present = %v, some key multi-valued = %v", pt.mode, p, pred, col.offs != nil, multi)
				}
				if multi && !pt.MultiValued(pred) {
					t.Errorf("mode %d pred %d: list cells in a column reported single-valued", pt.mode, pred)
				}
			}
		}
		if cells != len(want) {
			t.Errorf("mode %d: table holds %d cells, the triples make %d", pt.mode, cells, len(want))
		}
		if pt.Rows() != len(rowKeys) {
			t.Errorf("mode %d: Rows() = %d, distinct keys = %d", pt.mode, pt.Rows(), len(rowKeys))
		}
	}
}

// TestPTScanOrderReproducible: the table is scanned in key order, so
// two runs of a query return their rows in the same order — in either
// executor — without an ORDER BY.
func TestPTScanOrderReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := starStore(t, randomStarGraph(rng, 300), 3)
	q := sparql.MustParse(`SELECT * WHERE {
		?k <http://example.org/p0> ?x .
		?k <http://example.org/p1> ?y .
	}`)
	for _, streaming := range []bool{false, true} {
		var first string
		for run := 0; run < 4; run++ {
			res, err := s.Query(q, QueryOptions{Streaming: streaming, chunkSize: 64})
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if len(res.Rows) < 300 {
				t.Fatalf("only %d rows; the test needs enough to make a chance match implausible", len(res.Rows))
			}
			out := renderInOrder(res)
			if run == 0 {
				first = out
			} else if out != first {
				t.Fatalf("streaming=%v: run %d returned the rows in a different order than run 0", streaming, run)
			}
		}
	}
}

// denseStarStore loads keys subjects, each with one p0 value, two p1
// values and one p2 value, into a single partition.
func denseStarStore(t testing.TB, keys int) *Store {
	g := rdf.NewGraph(0)
	ent := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%se%d", testNS, i)) }
	for i := 0; i < keys; i++ {
		g.AddSPO(ent(i), rdf.NewIRI(testNS+"p0"), ent((i+1)%keys))
		g.AddSPO(ent(i), rdf.NewIRI(testNS+"p1"), ent((i+2)%keys))
		g.AddSPO(ent(i), rdf.NewIRI(testNS+"p1"), ent((i+3)%keys))
		g.AddSPO(ent(i), rdf.NewIRI(testNS+"p2"), ent((i+4)%keys))
	}
	return starStore(t, g, 1)
}

// TestPTScanAllocationsIndependentOfKeyCount: a partition scan allocates
// its cursors and one row, and the materializing wrapper — in a region,
// where every caller runs it, its arena growing there — the same handful
// more, whether the partition holds a hundred keys or ten thousand. (The
// map-based table allocated three times per key.) The wrapper's count
// crosses slab-pool traffic, so the collector is off while it counts.
func TestPTScanAllocationsIndependentOfKeyCount(t *testing.T) {
	testenv.SkipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(keys int) (scan, rows float64) {
		s := denseStarStore(t, keys)
		node := &Node{Kind: NodePT, Key: "k", Patterns: starPatterns(keyOnSubject,
			[]starPat{{"p0", "?x"}, {"p1", "?y"}, {"p2", "?z"}})}
		spec := s.ptNodeScan(s.pt, node)
		part := s.pt.parts[0]
		var emitted int64
		scan = testenv.AllocsPerRun(t, 10, func() {
			emitted = 0
			var sc ptScan
			sc.init(part, spec.specs, len(spec.schema))
			sc.run(nil, func(engine.Row) { emitted++ })
		})
		if emitted != int64(2*keys) {
			t.Fatalf("%d keys: scan emitted %d rows, want %d", keys, emitted, 2*keys)
		}
		region := engine.NewRegion()
		rows = testenv.AllocsPerRun(t, 10, func() {
			out, processed := new(ptScan).rows(part, spec, nil, region)
			if out.Len() != 2*keys || processed != int64(keys) {
				t.Fatalf("%d keys: %d rows, %d processed", keys, out.Len(), processed)
			}
			region.Release()
		})
		return scan, rows
	}
	smallScan, smallRows := allocs(100)
	bigScan, bigRows := allocs(10000)
	t.Logf("allocations per scan: %.0f at 100 keys, %.0f at 10000; materialized: %.0f and %.0f", smallScan, bigScan, smallRows, bigRows)
	if bigScan != smallScan || bigRows != smallRows {
		t.Errorf("allocations grew with the key count: scan %.0f -> %.0f, materialized %.0f -> %.0f", smallScan, bigScan, smallRows, bigRows)
	}
	// The property is the equality above; the ceilings are loose (3 and 3
	// measured). It is an allocation pin, skipped under the race
	// detector: there sync.Pool drops a share of the slabs put back, so
	// the wrapper's count follows the pool, not the scan.
	if bigScan > 6 || bigRows > 12 {
		t.Errorf("scan allocates %.0f times, materialized %.0f; want at most 6 and 12", bigScan, bigRows)
	}
}

// TestDecodeRowsSharesOneBackingSlice: a result's terms are decoded
// into one slice (two allocations for a thousand rows, not a thousand
// and one), and a row handed out cannot grow into its neighbour.
func TestDecodeRowsSharesOneBackingSlice(t *testing.T) {
	testenv.SkipUnderRace(t)
	s := denseStarStore(t, 50)
	rows := make([]engine.Row, 1000)
	for i := range rows {
		rows[i] = engine.Row{rdf.ID(1 + i%50), rdf.NullID, rdf.ID(1 + (i+7)%50)}
	}
	// Three blocks, one empty, as a result's partitions arrive.
	all := engine.NewBlock(3, rows)
	blocks := []engine.Block{all.Slice(0, 400), all.Slice(400, 400), all.Slice(400, 1000)}
	var decoded [][]rdf.Term
	if n := testenv.AllocsPerRun(t, 10, func() { decoded = s.decodeRows(blocks, nil) }); n > 2 {
		t.Errorf("decoding 1000 rows allocated %.0f times, want 2", n)
	}
	for i, r := range rows {
		for j, id := range r {
			if want := decodeCell(s.dict.Snapshot(), id, false, nil); decoded[i][j] != want {
				t.Fatalf("row %d col %d decoded to %v, want %v", i, j, decoded[i][j], want)
			}
		}
	}
	next := decoded[1][0]
	_ = append(decoded[0], rdf.NewLiteral("spill"))
	if decoded[1][0] != next {
		t.Error("appending to a decoded row overwrote the next row")
	}
	if got := s.decodeRows(nil, nil); got == nil || len(got) != 0 {
		t.Errorf("decodeRows(nil) = %v, want an empty non-nil result", got)
	}
}

// TestGallopMatchesLinearSearch checks the cursor advance against a
// linear scan from every start position, for present, absent, too-small
// and too-large keys.
func TestGallopMatchesLinearSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 200} {
		keys := make([]rdf.ID, n)
		next := rdf.ID(1)
		for i := range keys {
			next += rdf.ID(1 + rng.Intn(3))
			keys[i] = next
		}
		for from := 0; from <= n; from++ {
			for key := rdf.ID(0); key <= next+2; key++ {
				want := from
				for want < n && keys[want] < key {
					want++
				}
				if got := gallop(keys, from, key); got != want {
					t.Fatalf("gallop(%d keys, from %d, key %d) = %d, want %d", n, from, key, got, want)
				}
			}
		}
	}
}

// TestQueryAllocsIndependentOfRowCount: a plain BGP query allocates the
// same at 10 result rows as at 1,000 and at 1,400 — every operator's
// output is one block per partition, a shuffle's targets one
// allocation, and the driver decodes the root's blocks where they lie —
// apart from the two slices decodeRows fills, whose size, not count,
// follows the rows. 1,400 rows of three columns pass decodeSplitCells;
// on the one processor AllocsPerRun runs on, they still decode on the
// caller into one slice. The
// query joins n subjects, through a shuffle of their side on the object
// (broadcasts are off), to ten objects that build the hash table at
// either size; one partition keeps the partitions holding rows the same.
func TestQueryAllocsIndependentOfRowCount(t *testing.T) {
	testenv.SkipUnderRace(t)
	allocs := func(n int) float64 {
		s, q := rowCountStore(t, n)
		opts := QueryOptions{BroadcastThreshold: -1}
		return testenv.AllocsPerRun(t, 20, func() {
			res, err := s.Query(q, opts)
			if err != nil || len(res.Rows) != n {
				t.Fatalf("%d subjects: %d rows (err %v)", n, len(res.Rows), err)
			}
		})
	}
	small, large, split := allocs(10), allocs(1000), allocs(1400)
	t.Logf("allocations per query: %.0f at 10 rows, %.0f at 1,000, %.0f at 1,400", small, large, split)
	if large > small || split > small {
		t.Errorf("a query's allocations follow its row count: %.0f at 10 rows, %.0f at 1,000, %.0f at 1,400", small, large, split)
	}
}

// rowCountStore holds a graph on which q returns n rows: n subjects
// joined, through a shuffle of their side on the object (once
// broadcasts are off), to ten objects that build the hash table at
// either size, in one partition.
func rowCountStore(t *testing.T, n int) (*Store, *sparql.Query) {
	t.Helper()
	g := rdf.NewGraph(0)
	iri := func(f string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%s%s%d", testNS, f, i)) }
	for i := 0; i < n; i++ {
		g.AddSPO(iri("s", i), rdf.NewIRI(testNS+"p"), iri("o", i%10))
	}
	for i := 0; i < 10; i++ {
		g.AddSPO(iri("o", i), rdf.NewIRI(testNS+"q"), iri("x", i))
	}
	return starStore(t, g, 1), sparql.MustParse("SELECT ?s ?o ?x WHERE { ?s <" + testNS + "p> ?o . ?o <" + testNS + "q> ?x }")
}

// TestQueryIDsAllocsOneBlockForRows: QueryIDs runs QueryContext's body
// but copies the rows' IDs out as one block instead of decoding them
// into a row slice and a term slice, so it allocates at least one fewer
// time than QueryContext, and the same at 10 rows as at 1,000.
func TestQueryIDsAllocsOneBlockForRows(t *testing.T) {
	testenv.SkipUnderRace(t)
	allocs := func(n int) (ids, decoded float64) {
		s, q := rowCountStore(t, n)
		opts := QueryOptions{BroadcastThreshold: -1}
		ids = testenv.AllocsPerRun(t, 20, func() {
			_, rows, err := s.QueryIDs(context.Background(), q, opts)
			if err != nil || rows.Len() != n {
				t.Fatalf("%d subjects: %d rows (err %v)", n, rows.Len(), err)
			}
		})
		decoded = testenv.AllocsPerRun(t, 20, func() {
			if _, err := s.QueryContext(context.Background(), q, opts); err != nil {
				t.Fatal(err)
			}
		})
		return ids, decoded
	}
	var perQuery []float64
	for _, n := range []int{10, 1000} {
		ids, decoded := allocs(n)
		t.Logf("%d rows: QueryIDs %.0f allocations, QueryContext %.0f", n, ids, decoded)
		if ids > decoded-1 {
			t.Errorf("%d rows: QueryIDs allocates %.0f times, QueryContext %.0f; want at least one fewer", n, ids, decoded)
		}
		perQuery = append(perQuery, ids)
	}
	if perQuery[1] > perQuery[0] {
		t.Errorf("QueryIDs allocates %.0f times at 1,000 rows, %.0f at 10", perQuery[1], perQuery[0])
	}
}

// TestPTScanScratchIndependentOfPartitions: a property-table scan sets
// up its cursors, its output list and its scratch row once per scan, not
// once per partition, so scanning 16 partitions allocates what scanning
// 2 does, on both executors. The star's pushed FILTER keeps no row, so
// the scan's work is all there is to count.
func TestPTScanScratchIndependentOfPartitions(t *testing.T) {
	testenv.SkipUnderRace(t)
	g := rdf.NewGraph(0)
	for i := 0; i < 400; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%ss%d", testNS, i))
		g.AddSPO(s, rdf.NewIRI(testNS+"p"), rdf.NewIRI(fmt.Sprintf("%so%d", testNS, i%7)))
		g.AddSPO(s, rdf.NewIRI(testNS+"q"), rdf.NewIRI(fmt.Sprintf("%sx%d", testNS, i%5)))
		g.AddSPO(s, rdf.NewIRI(testNS+"r"), rdf.NewIRI(fmt.Sprintf("%sv%d", testNS, i)))
	}
	q := sparql.MustParse("SELECT ?s ?o WHERE { ?s <" + testNS + "p> ?o . ?s <" + testNS + "q> ?x . ?s <" + testNS + "r> ?v . FILTER(?o = <" + testNS + "x1>) }")
	for _, streaming := range []bool{false, true} {
		allocs := func(parts int) float64 {
			c := cluster.MustNew(cluster.Config{Workers: 2, DefaultPartitions: parts})
			s, err := Load(g, Options{Cluster: c})
			if err != nil {
				t.Fatal(err)
			}
			opts := QueryOptions{Streaming: streaming}
			run := func() {
				res, err := s.Query(q, opts)
				if err != nil || len(res.Rows) != 0 || res.Plan.Root.Op != plan.OpScan && res.Plan.Root.Children[0].Op != plan.OpScan {
					t.Fatalf("%d partitions: %d rows (err %v), plan\n%s", parts, len(res.Rows), err, res.Plan)
				}
			}
			// One processor, no collection: see
			// TestWarmQueryAllocsIndependentOfIntermediateRows.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			run()
			return testenv.AllocsPerRun(t, 20, run)
		}
		few, many := allocs(2), allocs(16)
		t.Logf("streaming %v: %.0f allocations per query over 2 partitions, %.0f over 16", streaming, few, many)
		if many > few {
			t.Errorf("streaming %v: a PT scan's allocations follow its partition count: %.0f over 2 partitions, %.0f over 16", streaming, few, many)
		}
	}
}

// TestPTStreamExaminesEachCandidateOnce: the streaming PT source makes
// one pass over each partition, so the star's pushed FILTER runs on
// each candidate row once — as many times streamed, at any chunk size,
// as materialized. A counting pass ahead of the emitting one doubled it.
func TestPTStreamExaminesEachCandidateOnce(t *testing.T) {
	s := watdivStreamStore(t)
	q := sparql.MustParse(`PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
		PREFIX foaf: <http://xmlns.com/foaf/>
		SELECT ?u ?a ?p WHERE { ?u foaf:age ?a . ?u wsdbm:likes ?p . FILTER(?a > 30) }`)
	// calls runs q on one executor with the query's filter predicates
	// counting their calls.
	calls := func(opts QueryOptions) (n int64) {
		opts.Strategy, opts.NoPlanCache = StrategyMixed, true
		r, err := s.resolve(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		entry, _, err := s.planEntry(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if sc := entry.plan.Scans(); len(sc) != 1 || entry.nodes[sc[0].Leaf].Kind != NodePT || len(sc[0].Filters) != 1 {
			t.Fatalf("want one PT scan with the FILTER pushed into it, planned\n%s", entry.plan)
		}
		filters, err := s.compileFilters(q)
		if err != nil {
			t.Fatal(err)
		}
		var count atomic.Int64
		for i := range filters {
			pred := filters[i].pred
			filters[i].pred = func(id rdf.ID) bool { count.Add(1); return pred(id) }
		}
		region := engine.NewRegion()
		defer region.Release()
		var x execution
		if r.streaming {
			x, err = s.runStreaming(context.Background(), r, entry, filters, region)
		} else {
			x, err = s.runMaterialized(context.Background(), q, r, entry, filters, region)
		}
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, b := range x.rows {
			rows += b.Len()
		}
		if rows == 0 {
			t.Fatal("the query returns no rows; it is vacuous at this scale")
		}
		return count.Load()
	}
	if parts := len(s.pt.parts); parts < 2 {
		t.Fatalf("the property table has %d partition(s); the test needs several", parts)
	}
	want := calls(QueryOptions{})
	t.Logf("the FILTER ran %d times materialized", want)
	for _, chunk := range []int{7, 0} {
		if got := calls(QueryOptions{Streaming: true, chunkSize: chunk}); got != want {
			t.Errorf("chunk size %d: the FILTER ran %d times streamed, %d times materialized", chunk, got, want)
		}
	}
}
