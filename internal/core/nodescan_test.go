package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// scanNode builds a Join Tree node of the given kind over the patterns
// of a WHERE body written with the test namespace as prefix e:.
func scanNode(t *testing.T, kind NodeKind, key, body string) *Node {
	t.Helper()
	q, err := sparql.Parse("PREFIX e: <" + testNS + "> SELECT * WHERE { " + body + " }")
	if err != nil {
		t.Fatalf("parsing %q: %v", body, err)
	}
	return &Node{Kind: kind, Key: key, Patterns: q.Patterns}
}

// resolveCases are the node shapes TestResolveScan walks: every kind,
// with the dictionary misses and missing tables that empty it. allocs is
// the resolver's allocation bound — what PrepareNodeScan cost before the
// resolver existed, less the *NodeScan it returned (-1: not a shape
// PrepareNodeScan took).
var resolveCases = []struct {
	name    string
	kind    NodeKind
	key     string
	body    string
	want    scanKind
	schema  string
	partCol string
	allocs  float64
}{
	{"vp", NodeVP, "", "?a e:follows ?b", scanVP, "a b", "a", 0},
	{"vp bound object", NodeVP, "", "?u e:likes e:prodA", scanVP, "u", "u", 3},
	{"vp bound subject", NodeVP, "", "e:user0 e:likes ?p", scanVP, "p", "", 3},
	{"vp self loop", NodeVP, "", "?u e:follows ?u", scanVP, "u", "u", 2},
	{"vp fully bound", NodeVP, "", "e:user0 e:likes e:prodA", scanVPExist, "", "", 5},
	{"vp unknown predicate", NodeVP, "", "?s e:nope ?o", scanEmpty, "s o", "s", 0},
	{"vp predicate without a table", NodeVP, "", "?s e:user0 ?o", scanEmpty, "s o", "s", 0},
	{"vp unknown object", NodeVP, "", "?s e:likes e:nobody", scanEmpty, "s", "s", 0},
	{"pt star", NodePT, "u", "?u e:likes ?p . ?u e:age ?a", scanPT, "u p a", "u", 5},
	{"pt shared value, bound value, key loop", NodePT, "u", "?u e:likes ?p . ?u e:follows ?p . ?u e:name \"bob\" . ?u e:follows ?u", scanPT, "u p", "u", 4},
	{"pt unknown predicate", NodePT, "u", "?u e:likes ?p . ?u e:nope ?a", scanEmpty, "u p a", "u", 4},
	{"pt predicate without a column", NodePT, "u", "?u e:likes ?p . ?u e:user0 ?a", scanEmpty, "u p a", "u", 4},
	{"pt unknown value", NodePT, "u", "?u e:likes e:nobody . ?u e:age ?a", scanEmpty, "u a", "u", 3},
	{"ipt star", NodeIPT, "x", "?a e:likes ?x . ?b e:follows ?x", scanPT, "x a b", "x", 5},
	{"triples bound subject", NodeTriples, "", "e:user0 ?p ?o", scanTriples, "p o", "p", -1},
	{"triples bound object", NodeTriples, "", "?s ?p e:prodA", scanTriples, "s p", "s", -1},
}

// TestResolveScan pins the one access-path resolver: for every node kind
// and every way a node can turn out unanswerable it returns the expected
// kind, schema, partitioning, partition count and disk charge; the
// planner's leaf for the same node agrees on schema and partitioning; and
// a resolve allocates no more than preparing a shard scan used to.
func TestResolveScan(t *testing.T) {
	s := testStore(t, true)
	var vpBytes int64
	for _, table := range s.vp {
		vpBytes += table.FileBytes
	}
	for _, tc := range resolveCases {
		n := scanNode(t, tc.kind, tc.key, tc.body)
		ns, err := s.resolveScan(n, nil, nil)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if ns.kind != tc.want {
			t.Errorf("%s: kind %d, want %d", tc.name, ns.kind, tc.want)
		}
		if got := strings.Join(ns.schema(), " "); got != tc.schema {
			t.Errorf("%s: schema %q, want %q", tc.name, got, tc.schema)
		}
		if ns.partCol != tc.partCol {
			t.Errorf("%s: partitioned on %q, want %q", tc.name, ns.partCol, tc.partCol)
		}
		if ns.Partitions() != s.parts {
			t.Errorf("%s: %d partitions, want %d", tc.name, ns.Partitions(), s.parts)
		}
		var disk int64
		switch tc.want {
		case scanVP, scanVPExist:
			pid, _ := s.dict.Lookup(n.Patterns[0].P.Term)
			disk = s.vp[pid].FileBytes
			if ns.table != s.vp[pid] || ns.label != "" {
				t.Errorf("%s: reads table %p labelled %q, want the predicate's own", tc.name, ns.table, ns.label)
			}
		case scanPT:
			pt := s.pt
			if tc.kind == NodeIPT {
				pt = s.ipt
			}
			if ns.pt != pt {
				t.Errorf("%s: reads the wrong property table", tc.name)
			}
			disk = pt.scanBytes(ns.spec.preds)
		case scanTriples:
			disk = vpBytes
		}
		if ns.diskBytes != disk || (tc.want != scanEmpty && disk <= 0) {
			t.Errorf("%s: charged %d disk bytes, want %d", tc.name, ns.diskBytes, disk)
		}

		leaf := s.planLeaves(s.curStats(), &JoinTree{Nodes: []*Node{n}})[0]
		if got := strings.Join(leaf.Vars, " "); got != tc.schema {
			t.Errorf("%s: plan leaf Vars %q, resolved schema %q", tc.name, got, tc.schema)
		}
		if got := strings.Join(leaf.PartCols, " "); got != tc.partCol {
			t.Errorf("%s: plan leaf PartCols %q, resolved partitioning %q", tc.name, got, tc.partCol)
		}

		if tc.allocs >= 0 {
			if got := testing.AllocsPerRun(50, func() { s.resolveScan(n, nil, nil) }); got > tc.allocs {
				t.Errorf("%s: a resolve allocates %.0f times, want at most %.0f", tc.name, got, tc.allocs)
			}
		}
	}
}

// TestResolveScanErrors: what cannot be scanned is refused by the
// resolver, before any row is produced — on every route, since they all
// resolve through it.
func TestResolveScanErrors(t *testing.T) {
	s := testStore(t, true)
	onX := []compiledFilter{{v: "x", pred: func(rdf.ID) bool { return true }}}
	for _, tc := range []struct {
		name   string
		n      *Node
		pushed []compiledFilter
		want   string
	}{
		{"vp filter on a hidden variable", scanNode(t, NodeVP, "", "?a e:follows ?b"), onX, "pushed filter variable ?x not in pattern"},
		{"pt filter on a hidden variable", scanNode(t, NodePT, "u", "?u e:likes ?p . ?u e:age ?a"), onX, "pushed filter variable ?x not in scan schema"},
		{"triples filter on a hidden variable", scanNode(t, NodeTriples, "", "e:user0 ?p ?o"), onX, "pushed filter variable ?x not in scan schema"},
		{"unknown kind", &Node{Kind: NodeKind(9), Patterns: scanNode(t, NodeVP, "", "?a e:follows ?b").Patterns}, nil, "unknown node kind"},
	} {
		if _, err := s.resolveScan(tc.n, tc.pushed, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// A filter the scan does expose is fused into its predicate.
	onA := []compiledFilter{{v: "a", pred: func(rdf.ID) bool { return false }}}
	ns, err := s.resolveScan(scanNode(t, NodeVP, "", "?a e:follows ?b"), onA, nil)
	if err != nil || ns.pred == nil {
		t.Fatalf("vp filter on ?a: pred %v, err %v", ns.pred != nil, err)
	}
	for p := 0; p < ns.Partitions(); p++ {
		if rows, _ := ns.ScanPart(p, nil); rows.Len() != 0 {
			t.Errorf("partition %d: %d rows passed an always-false filter", p, rows.Len())
		}
	}

	// An inverse-PT node on a store loaded without the inverse table is
	// the one typed error, from the local routes and the shard entry
	// point alike.
	noIPT := testStore(t, false)
	star := scanNode(t, NodeIPT, "x", "?a e:likes ?x . ?b e:follows ?x")
	if _, err := noIPT.resolveScan(star, nil, nil); !errors.Is(err, errNoInversePT) {
		t.Errorf("resolveScan without an inverse PT: %v, want errNoInversePT", err)
	}
	if _, err := noIPT.PrepareNodeScan(star, nil); !errors.Is(err, errNoInversePT) {
		t.Errorf("PrepareNodeScan without an inverse PT: %v, want errNoInversePT", err)
	}
	if _, err := s.PrepareNodeScan(scanNode(t, NodeTriples, "", "e:user0 ?p ?o"), nil); err == nil {
		t.Errorf("PrepareNodeScan accepted a raw-triples node")
	}
}

// TestResolveScanReduction: a scan the planner rewrote resolves to the
// live reduction, labelled and charged as such; once the reduction is
// gone the same reference falls back to the predicate's full table.
func TestResolveScanReduction(t *testing.T) {
	s := extvpStore(t, 1<<20)
	q := sparql.MustParse(extvpQueries[0])
	opts := QueryOptions{Strategy: StrategyVPOnly}
	if _, err := s.Query(q, opts); err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := s.Query(q, opts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	var scan *plan.Node
	for _, n := range warm.Plan.Scans() {
		if n.ExtVP != nil {
			scan = n
		}
	}
	if scan == nil {
		t.Fatalf("warm plan carries no rewrite:\n%s", warm.Plan)
	}
	node := warm.Tree.Nodes[0]
	for i, n := range warm.Plan.Scans() {
		if n == scan {
			node = warm.Tree.Nodes[i]
		}
	}
	base := s.vp[rdf.ID(scan.ExtVP.Pred)]

	live, err := s.resolveScan(node, nil, scan.ExtVP)
	if err != nil {
		t.Fatalf("live: %v", err)
	}
	if live.kind != scanVP || live.table == base || !strings.HasPrefix(live.label, "ExtVP ") ||
		live.diskBytes != live.table.FileBytes || int64(live.table.Rows()) != scan.ExtVP.TableRows {
		t.Errorf("live reduction resolved to kind %d, label %q, %d rows, %d bytes (base table: %v)",
			live.kind, live.label, live.table.Rows(), live.diskBytes, live.table == base)
	}
	if live.Partitions() != base.Rel.Partitions() || fmt.Sprint(live.schema()) != fmt.Sprint(scan.Vars) {
		t.Errorf("live reduction: %d partitions, schema %v; base has %d, plan recorded %v",
			live.Partitions(), live.schema(), base.Rel.Partitions(), scan.Vars)
	}

	s.Workload().Invalidate()
	gone, err := s.resolveScan(node, nil, scan.ExtVP)
	if err != nil {
		t.Fatalf("evicted: %v", err)
	}
	if gone.kind != scanVP || gone.table != base || gone.label != "" || gone.diskBytes != base.FileBytes {
		t.Errorf("evicted reduction resolved to kind %d, label %q, %d bytes; want the full table's %d",
			gone.kind, gone.label, gone.diskBytes, base.FileBytes)
	}
	// The full table is a superset of what the reduction held.
	count := func(ns NodeScan) (n int) {
		for p := 0; p < ns.Partitions(); p++ {
			rows, _ := ns.ScanPart(p, nil)
			n += rows.Len()
		}
		return n
	}
	if r, f := count(live), count(gone); r >= f || r == 0 {
		t.Errorf("reduction scans %d rows, the full table %d", r, f)
	}
}
