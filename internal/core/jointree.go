package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sparql"
)

// NodeKind identifies which storage structure a Join Tree node reads.
type NodeKind uint8

// Join Tree node kinds.
const (
	// NodeVP answers one triple pattern from a Vertical Partitioning
	// table.
	NodeVP NodeKind = iota
	// NodePT answers a group of same-subject patterns from the Property
	// Table with a single select (the joins the paper's strategy
	// avoids).
	NodePT
	// NodeIPT answers a group of same-object patterns from the inverse
	// Property Table (future-work extension).
	NodeIPT
	// NodeTriples answers a variable-predicate pattern from the raw
	// triple data (fallback; never produced for the WatDiv workload).
	NodeTriples
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case NodeVP:
		return "VP"
	case NodePT:
		return "PT"
	case NodeIPT:
		return "IPT"
	case NodeTriples:
		return "TT"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is one Join Tree node: a sub-query answered from one storage
// structure (paper §3.2).
type Node struct {
	// Kind selects the storage structure.
	Kind NodeKind
	// Patterns is the node's triple patterns: exactly one for VP and
	// Triples nodes, two or more for PT/IPT nodes.
	Patterns []sparql.TriplePattern
	// Key is the grouping variable: the shared subject variable for PT
	// nodes, the shared object variable for IPT nodes, empty otherwise.
	Key string
	// Priority orders execution: higher-priority nodes are computed
	// first (pushed toward the leaves); the lowest-priority node is the
	// root, joined last (paper §3.3).
	Priority float64
}

// Vars returns the node's output variables in pattern order.
func (n *Node) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, tp := range n.Patterns {
		for _, v := range tp.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Label renders a short display name, e.g. "PT(?v0: follows,likes)".
func (n *Node) Label() string {
	var preds []string
	for _, tp := range n.Patterns {
		if tp.P.IsVar() {
			preds = append(preds, "?"+tp.P.Var)
		} else {
			preds = append(preds, localName(tp.P.Term.Value))
		}
	}
	switch n.Kind {
	case NodePT, NodeIPT:
		return fmt.Sprintf("%s(?%s: %s)", n.Kind, n.Key, strings.Join(preds, ","))
	default:
		return fmt.Sprintf("%s(%s)", n.Kind, strings.Join(preds, ","))
	}
}

// localName trims an IRI to its final path/fragment segment.
func localName(iri string) string {
	if i := strings.LastIndexAny(iri, "/#"); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}

// JoinTree is the translated query: nodes in execution order (leaves
// first, root last). Execution joins them left-deep, which computes
// exactly the bottom-up order the paper describes.
type JoinTree struct {
	// Nodes is the execution order.
	Nodes []*Node
}

// Root returns the node joined last (the paper's tree root), or nil for
// an empty tree.
func (t *JoinTree) Root() *Node {
	if len(t.Nodes) == 0 {
		return nil
	}
	return t.Nodes[len(t.Nodes)-1]
}

// String renders the tree as an execution-ordered list with priorities.
func (t *JoinTree) String() string {
	var sb strings.Builder
	for i, n := range t.Nodes {
		role := "node"
		if i == len(t.Nodes)-1 {
			role = "root"
		}
		fmt.Fprintf(&sb, "%2d. %-6s %-50s priority=%.3g\n", i+1, role, n.Label(), n.Priority)
	}
	return sb.String()
}

// Translate turns a parsed query's BGP into a Join Tree under the given
// strategy, using the store's statistics for node priorities (paper
// §3.2–3.3). The Join Tree references only pattern structure and
// statistics, so it can be built (and inspected) without executing.
func (s *Store) Translate(q *sparql.Query, strategy Strategy) (*JoinTree, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if strategy == StrategyMixedIPT && s.ipt == nil {
		return nil, fmt.Errorf("core: StrategyMixedIPT requires a store loaded with BuildInversePT")
	}
	nodes := s.groupPatterns(q, strategy)
	for _, n := range nodes {
		n.Priority = s.scoreNode(n)
	}
	ordered := s.orderNodes(nodes)
	return &JoinTree{Nodes: ordered}, nil
}

// groupPatterns assigns patterns to nodes. Under Mixed strategies,
// patterns sharing a subject variable (with bound predicates) collapse
// into a PT node when the group has at least two members; under
// MixedIPT the leftovers are additionally grouped by shared object
// variable into IPT nodes. Everything else becomes one VP (or Triples)
// node per pattern.
func (s *Store) groupPatterns(q *sparql.Query, strategy Strategy) []*Node {
	var nodes []*Node
	remaining := make([]sparql.TriplePattern, len(q.Patterns))
	copy(remaining, q.Patterns)

	if strategy == StrategyMixed || strategy == StrategyMixedIPT {
		remaining = groupByKey(remaining, subjectVarOf, NodePT, &nodes)
	}
	if strategy == StrategyMixedIPT {
		remaining = groupByKey(remaining, objectVarOf, NodeIPT, &nodes)
	}
	for _, tp := range remaining {
		kind := NodeVP
		if tp.P.IsVar() {
			kind = NodeTriples
		}
		nodes = append(nodes, &Node{Kind: kind, Patterns: []sparql.TriplePattern{tp}})
	}
	return nodes
}

// subjectVarOf returns the grouping key for PT nodes: the subject
// variable of patterns with a bound predicate.
func subjectVarOf(tp sparql.TriplePattern) string {
	if tp.S.IsVar() && !tp.P.IsVar() {
		return tp.S.Var
	}
	return ""
}

// objectVarOf returns the grouping key for IPT nodes: the object
// variable of patterns with a bound predicate.
func objectVarOf(tp sparql.TriplePattern) string {
	if tp.O.IsVar() && !tp.P.IsVar() {
		return tp.O.Var
	}
	return ""
}

// groupByKey extracts groups of ≥2 patterns sharing a key into nodes of
// the given kind, returning the ungrouped remainder in original order.
func groupByKey(pats []sparql.TriplePattern, keyOf func(sparql.TriplePattern) string, kind NodeKind, nodes *[]*Node) []sparql.TriplePattern {
	groups := make(map[string][]sparql.TriplePattern)
	var keyOrder []string
	for _, tp := range pats {
		k := keyOf(tp)
		if k == "" {
			continue
		}
		if _, seen := groups[k]; !seen {
			keyOrder = append(keyOrder, k)
		}
		groups[k] = append(groups[k], tp)
	}
	grouped := make(map[string]bool)
	for _, k := range keyOrder {
		if len(groups[k]) >= 2 {
			*nodes = append(*nodes, &Node{Kind: kind, Patterns: groups[k], Key: k})
			grouped[k] = true
		}
	}
	var rest []sparql.TriplePattern
	for _, tp := range pats {
		if k := keyOf(tp); k != "" && grouped[k] {
			continue
		}
		rest = append(rest, tp)
	}
	return rest
}

// Priority magnitudes. Bound terms are strong selectivity signals: the
// paper scores literal-bearing patterns with "the highest priority" and
// weights literals "heavily" inside PT nodes. Bound IRI objects (the
// other constant form WatDiv uses) get a smaller boost, and the size
// estimate is subtracted so that among equally constrained nodes the
// smaller one still runs first.
const (
	literalBoost  = 2e15
	boundIRIBoost = 1e15
	boundSubjBump = 5e14
)

// scoreNode implements the paper's three scoring rules (§3.3).
func (s *Store) scoreNode(n *Node) float64 {
	var boost float64
	sizeEst := -1.0
	for _, tp := range n.Patterns {
		boost += patternBoost(tp)
		est := s.patternSize(tp)
		if sizeEst < 0 || est < sizeEst {
			sizeEst = est
		}
	}
	// A PT node's output is bounded by its most selective pattern: the
	// node intersects the subject sets of all its patterns, so the
	// minimum estimate is used for single patterns and groups alike.
	return boost - sizeEst
}

// patternBoost scores the constants of one pattern.
func patternBoost(tp sparql.TriplePattern) float64 {
	var b float64
	if !tp.O.IsVar() {
		if tp.O.Term.IsLiteral() {
			b += literalBoost
		} else {
			b += boundIRIBoost
		}
	}
	if !tp.S.IsVar() {
		b += boundSubjBump
	}
	return b
}

// patternSize estimates a pattern's tuple count: the predicate's triple
// count adjusted by its distinct-subject ratio, so predicates with heavy
// object fan-out (many triples per subject) sink toward the root.
func (s *Store) patternSize(tp sparql.TriplePattern) float64 {
	if tp.P.IsVar() {
		return float64(s.stats.TotalTriples)
	}
	pid, ok := s.dict.Lookup(tp.P.Term)
	if !ok {
		return 0 // unseen predicate: empty result, cheapest possible
	}
	ps := s.stats.Predicate(pid)
	// Adjustment (paper: "adjusted according to the number of distinct
	// subjects"): multi-valued predicates produce more join fan-out per
	// subject, so their effective size grows by the inverse subject
	// ratio, up to 2×.
	return float64(ps.Triples) * (2 - ps.SubjectsPerTriple())
}

// orderNodes produces the execution order. The start node is the
// highest-priority one (literal-constrained patterns first, paper
// §3.3); each following step picks, among the nodes sharing a variable
// with what has been joined so far, the one whose estimated join output
// is smallest under the textbook independence assumption
// |A ⋈ B| ≈ |A|·|B| / max(d_A(v), d_B(v)) over the shared variables,
// with d taken from the loader's distinct-subject/object statistics.
// The largest node therefore sinks to the end — the paper's root.
func (s *Store) orderNodes(nodes []*Node) []*Node {
	if len(nodes) == 0 {
		return nil
	}
	pending := make([]*Node, len(nodes))
	copy(pending, nodes)
	sort.SliceStable(pending, func(i, j int) bool {
		if pending[i].Priority != pending[j].Priority {
			return pending[i].Priority > pending[j].Priority
		}
		return pending[i].Label() < pending[j].Label()
	})

	var order []*Node
	curDist := map[string]float64{}
	var curSize float64
	take := func(i int, joinedSize float64) {
		n := pending[i]
		order = append(order, n)
		_, dist := s.nodeEstimate(n)
		for v, d := range dist {
			if prev, ok := curDist[v]; !ok || d < prev {
				curDist[v] = d
			}
		}
		curSize = joinedSize
		pending = append(pending[:i], pending[i+1:]...)
	}
	startSize, _ := s.nodeEstimate(pending[0])
	take(0, startSize)
	for len(pending) > 0 {
		best, bestEst := -1, 0.0
		for i, n := range pending {
			size, dist := s.nodeEstimate(n)
			denom := 0.0
			for v, d := range dist {
				if cd, ok := curDist[v]; ok {
					shared := cd
					if d > shared {
						shared = d
					}
					if shared > denom {
						denom = shared
					}
				}
			}
			if denom == 0 {
				continue // no shared variable
			}
			est := curSize * size / denom
			if best < 0 || est < bestEst {
				best, bestEst = i, est
			}
		}
		if best < 0 {
			// Disconnected BGP: fall back to priority order; the join
			// becomes a cartesian product whichever node is chosen.
			size, _ := s.nodeEstimate(pending[0])
			take(0, curSize*size)
			continue
		}
		if bestEst < 1 {
			bestEst = 1
		}
		take(best, bestEst)
	}
	return order
}

// nodeEstimate returns a node's estimated output cardinality and, per
// output variable, an estimated distinct-value count, both derived from
// the per-predicate statistics gathered at load time.
func (s *Store) nodeEstimate(n *Node) (float64, map[string]float64) {
	dist := map[string]float64{}
	size := -1.0
	for _, tp := range n.Patterns {
		base, svD, ovD := s.patternEstimate(tp)
		if size < 0 || base < size {
			size = base
		}
		if tp.S.IsVar() {
			if prev, ok := dist[tp.S.Var]; !ok || svD < prev {
				dist[tp.S.Var] = svD
			}
		}
		if tp.O.IsVar() {
			if prev, ok := dist[tp.O.Var]; !ok || ovD < prev {
				dist[tp.O.Var] = ovD
			}
		}
		if tp.P.IsVar() {
			dist[tp.P.Var] = float64(len(s.stats.ByPredicate))
		}
	}
	if size < 0 {
		size = 0
	}
	// No variable can have more distinct values than the node has rows.
	for v, d := range dist {
		if d > size {
			dist[v] = size
		}
	}
	return size, dist
}

// patternEstimate returns (rows, distinct subjects, distinct objects)
// for one pattern after applying its bound positions.
func (s *Store) patternEstimate(tp sparql.TriplePattern) (rows, subjD, objD float64) {
	if tp.P.IsVar() {
		t := float64(s.stats.TotalTriples)
		return t, float64(s.stats.DistinctSubjects), float64(s.stats.DistinctObjects)
	}
	pid, ok := s.dict.Lookup(tp.P.Term)
	if !ok {
		return 0, 0, 0
	}
	ps := s.stats.Predicate(pid)
	rows = float64(ps.Triples)
	subjD = float64(ps.DistinctSubjects)
	objD = float64(ps.DistinctObjects)
	if subjD < 1 {
		subjD = 1
	}
	if objD < 1 {
		objD = 1
	}
	if !tp.O.IsVar() {
		rows /= objD
	}
	if !tp.S.IsVar() {
		rows /= subjD
	}
	return rows, subjD, objD
}
