package core

// Extended-surface planning: OPTIONAL, UNION, ORDER BY/LIMIT and
// GROUP BY/COUNT queries take the extended half of planQuery, which
// runs every UNION branch's BGP (and every OPTIONAL group's) through
// planGroup — all there is to planning a plain query — then grafts the
// per-group plans into one physical plan via plan.Extend. The per-group plans
// carry leaf and filter indexes local to their own group; this file
// offsets them into the query-global lists so the scheduler executes
// the composed plan with one node list and one compiled-filter list.

import (
	"runtime"
	"slices"
	"sort"
	"strconv"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// planQuery is the plan step. A plain query is one BGP group. In an
// extended query each group is planned independently by planGroup
// (reusing filter pushdown, join ordering and physical join selection),
// then the extended operators are composed on top. nodes is the Join
// Tree node list the plan's Leaf indexes point into: for an extended
// query the concatenation of every group's nodes, in branch order (base
// first, then its OPTIONAL groups) — the same order extendedFilterList
// concatenates filters in, so the plan's offset leaf and filter indexes
// line up.
func (s *Store) planQuery(q *sparql.Query, r resolved) (nodes []*Node, _ *plan.Plan, _ error) {
	if !q.Extended() {
		return s.planGroup(q, r, nil)
	}
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	var (
		leaves []plan.Leaf
		labels []string
	)
	planGroup := func(pats []sparql.TriplePattern, fs []sparql.Filter) (*plan.Plan, error) {
		// The synthetic per-group query projects every pattern variable
		// (sorted, so the group's output schema is planner-mode
		// independent) and carries no limit: LIMIT/OFFSET belong to the
		// composed plan's TopK operator, never to a group.
		gnodes, pl, err := s.planGroup(&sparql.Query{
			Vars:     sortedPatternVars(pats),
			Patterns: pats,
			Filters:  fs,
			Limit:    -1,
		}, r, nil)
		if err != nil {
			return nil, err
		}
		offsetPlanRefs(pl.Root, len(leaves), len(labels))
		nodes = append(nodes, gnodes...)
		leaves = append(leaves, pl.Leaves...)
		labels = append(labels, pl.FilterLabels...)
		return pl, nil
	}

	branches := q.BranchGroups()
	spec := plan.ExtendSpec{
		BranchVars: branches[0].Vars(),
		Projection: q.Projection(),
		Distinct:   q.Distinct,
		GroupBy:    q.GroupBy,
		Limit:      q.Limit,
		Offset:     q.Offset,
	}
	for bi := range branches {
		g := &branches[bi]
		base, err := planGroup(g.Patterns, g.Filters)
		if err != nil {
			return nil, nil, err
		}
		br := plan.BranchSpec{Base: base}
		for oi := range g.Optionals {
			og := &g.Optionals[oi]
			opl, err := planGroup(og.Patterns, og.Filters)
			if err != nil {
				return nil, nil, err
			}
			br.Optionals = append(br.Optionals, opl)
		}
		spec.Branches = append(spec.Branches, br)
	}
	for _, c := range q.Counts {
		spec.Counts = append(spec.Counts, plan.CountAgg{Var: c.Var, As: c.Alias})
	}
	for _, k := range q.Order {
		spec.Order = append(spec.Order, plan.SortKey{Col: k.Var, Desc: k.Desc})
	}
	spec.Leaves = leaves
	spec.FilterLabels = labels
	return nodes, plan.Extend(spec), nil
}

// offsetPlanRefs rebases a group plan's leaf and filter indexes into
// the query-global lists the composed plan carries.
func offsetPlanRefs(n *plan.Node, leafOff, filterOff int) {
	if n.Op == plan.OpScan {
		n.Leaf += leafOff
	}
	for i := range n.Filters {
		n.Filters[i] += filterOff
	}
	for _, c := range n.Children {
		offsetPlanRefs(c, leafOff, filterOff)
	}
}

// extendedFilterList concatenates every group's FILTERs in the exact
// order planQuery plans the groups (per branch: base, then its
// OPTIONAL groups), matching the composed plan's global filter
// indexes. For a plain single-BGP query this is q.Filters.
func extendedFilterList(q *sparql.Query) []sparql.Filter {
	branches := q.BranchGroups()
	var out []sparql.Filter
	for bi := range branches {
		g := &branches[bi]
		out = append(out, g.Filters...)
		for oi := range g.Optionals {
			out = append(out, g.Optionals[oi].Filters...)
		}
	}
	return out
}

// sortedPatternVars returns the distinct variables of a pattern list,
// sorted — the planner-mode-independent projection of a synthetic
// per-group query.
func sortedPatternVars(pats []sparql.TriplePattern) []string {
	seen := map[string]bool{}
	for _, tp := range pats {
		for _, v := range tp.Vars() {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// topkLess compiles a TopK node's sort keys into a row comparator over
// the node's column order. ORDER BY keys compare by term (numeric for
// integer literals, dictionary term order otherwise) with unbound
// cells first; COUNT columns compare by their raw count value. Ties —
// including the no-ORDER-BY case — break by raw dictionary-ID order
// over the full row, a total order that is identical across planner
// modes, strategies and both executors (the TopK node sits above the
// final projection, so its column order is the projection). That total
// order is what makes limited results deterministic.
func (s *Store) topkLess(n *plan.Node) func(a, b engine.Row) bool {
	type sortCol struct {
		col   int
		desc  bool
		count bool
	}
	keys := make([]sortCol, 0, len(n.Sort))
	for _, k := range n.Sort {
		for j, v := range n.Vars {
			if v == k.Col {
				keys = append(keys, sortCol{
					col:   j,
					desc:  k.Desc,
					count: j < len(n.CountCols) && n.CountCols[j],
				})
				break
			}
		}
	}
	terms := s.dict.Snapshot()
	return func(a, b engine.Row) bool {
		for _, k := range keys {
			c := compareCell(terms, a[k.col], b[k.col], k.count)
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		for j := range a {
			if j < len(b) && a[j] != b[j] {
				return a[j] < b[j]
			}
		}
		return false
	}
}

// compareCell three-way compares two row cells of one column. Count
// columns hold raw counts, compared numerically; term columns compare
// unbound (NullID) first, then by CompareTermIDs (numeric for integer
// literals, deterministic term order otherwise).
func compareCell(terms rdf.Snapshot, x, y rdf.ID, isCount bool) int {
	if x == y {
		return 0
	}
	if isCount {
		if x < y {
			return -1
		}
		return 1
	}
	if x == rdf.NullID {
		return -1
	}
	if y == rdf.NullID {
		return 1
	}
	return engine.CompareTermIDs(terms, x, y)
}

// decodeCell turns one result cell into a term: COUNT columns hold raw
// counts (decoded to xsd:integer literals), NullID is an unbound
// OPTIONAL variable (decoded to the zero Term — callers render it as
// an empty binding), everything else is a dictionary ID. decodeRow
// calls it for COUNT columns alone; the tests decode every cell through
// it, as the reference a row decoded in place must match.
//
// A count's digits are a string of their own when digits is nil.
// Otherwise they are appended to *digits and the literal views them
// there, so a reused buffer decodes counts without allocating; the
// bytes of *digits up to its length must then not be written again
// while the term lives (appending is safe: a grown buffer leaves the
// old one as it was).
func decodeCell(terms rdf.Snapshot, id rdf.ID, isCount bool, digits *[]byte) rdf.Term {
	if isCount {
		if digits == nil {
			return rdf.NewTypedLiteral(strconv.FormatUint(uint64(id), 10), rdf.XSDInteger)
		}
		lo := len(*digits)
		*digits = strconv.AppendUint(*digits, uint64(id), 10)
		d := (*digits)[lo:]
		return rdf.NewTypedLiteral(unsafe.String(unsafe.SliceData(d), len(d)), rdf.XSDInteger)
	}
	if id == rdf.NullID {
		return rdf.Term{}
	}
	return terms.Term(id)
}

// decodeSplitCells is the fewest cells a result needs for its decode to
// be split across workers. Below it one caller decodes faster than a
// helper starts.
const decodeSplitCells = 4096

// decodeRows turns result rows — blocks, read in order where they lie —
// into terms. Each decoded row is a capacity-clipped window of a
// backing slice of terms, so a caller appending to a row cannot write
// into the next one. A result of at least decodeSplitCells cells is
// split into contiguous row ranges, at most GOMAXPROCS of them, each
// decoded as a task of one cluster.Run into a backing slice of its own,
// so its zeroing runs in parallel too. A smaller result, or one on one
// processor, decodes on the caller into one slice. The rows are the
// same, in the same order, either way, and every task has finished
// when decodeRows returns.
func (s *Store) decodeRows(blocks []engine.Block, countCols []bool) [][]rdf.Term {
	n, width := 0, 0
	for _, b := range blocks {
		if b.Len() > 0 {
			n, width = n+b.Len(), b.Width()
		}
	}
	decoded := make([][]rdf.Term, n)
	terms := s.dict.Snapshot()
	ranges := 1
	if n*width >= decodeSplitCells {
		ranges = min(runtime.GOMAXPROCS(0), n)
	}
	if ranges == 1 {
		decodeRange(terms, decoded, blocks, 0, n, width, countCols)
		return decoded
	}
	// No task fails: decoding an ID the dictionary issued cannot.
	_ = cluster.Run(ranges, ranges, new(cluster.Tasks), cluster.Func(func(_, i int) error {
		decodeRange(terms, decoded, blocks, i*n/ranges, (i+1)*n/ranges, width, countCols)
		return nil
	}))
	return decoded
}

// decodeRange decodes the result rows [lo, hi), numbered across the
// blocks in order, into decoded[lo:hi], over a backing slice of its own.
func decodeRange(terms rdf.Snapshot, decoded [][]rdf.Term, blocks []engine.Block, lo, hi, width int, countCols []bool) {
	cells := make([]rdf.Term, (hi-lo)*width)
	first := 0 // the result row number of the block's first row
	for _, b := range blocks {
		for r := max(lo-first, 0); r < min(hi-first, b.Len()); r++ {
			i := first + r
			k := (i - lo) * width
			out := cells[k : k+width : k+width]
			decodeRow(terms, out, b.Row(r), countCols, nil)
			decoded[i] = out
		}
		if first += b.Len(); first >= hi {
			return
		}
	}
}

// decodeRow writes row's terms into out, each where it lies. COUNT
// columns alone go through decodeCell, which turns their raw counts
// into xsd:integer literals, their digits in *digits unless digits is
// nil.
func decodeRow(terms rdf.Snapshot, out []rdf.Term, row engine.Row, countCols []bool, digits *[]byte) {
	from := 0
	for j, isCount := range countCols[:min(len(countCols), len(row))] {
		if isCount {
			terms.DecodeInto(out[from:j], row[from:j])
			out[j] = decodeCell(terms, row[j], true, digits)
			from = j + 1
		}
	}
	terms.DecodeInto(out[from:], row[from:])
}

// IDRows is a result's rows as dictionary IDs, what QueryIDs returns in
// place of Result.Rows. Block holds the rows in result order, on the
// heap, never in a query's region; CountCols flags the columns whose
// cells are raw COUNT values; Terms resolves every other cell but
// NullID, an unbound one.
type IDRows struct {
	Block     engine.Block
	CountCols []bool
	Terms     rdf.Snapshot
}

// Len returns the row count.
func (r IDRows) Len() int { return r.Block.Len() }

// heapBlock copies a result's blocks, in order, into one block on the
// heap: one allocation, none for an empty result.
func heapBlock(blocks []engine.Block) engine.Block {
	n, width := 0, 0
	for _, b := range blocks {
		if b.Len() > 0 {
			n, width = n+b.Len(), b.Width()
		}
	}
	ids := make([]rdf.ID, 0, n*width)
	for _, b := range blocks {
		ids = append(ids, b.IDs()...)
	}
	return engine.MakeBlock(width, n, ids)
}

// DisplayRows is the part of a result's rows that is shown, decoded for
// presentation, in display order: query order for an ORDER BY result,
// otherwise sorted by rendered terms with Result.SortedRows' comparator.
// Every cell is decoded once, as decodeRows decodes it, and the sort
// compares decoded terms: resolving both cells through the dictionary
// on every comparison took the sort three times the CPU. Its storage is
// reused from one Decode to the next, so a warm DisplayRows decodes,
// sorts and hands out rows without allocating; the terms of a Row are
// valid until the next Decode. The zero value is ready to use.
type DisplayRows struct {
	width  int
	cells  []rdf.Term // row i's terms are cells[i*width:(i+1)*width]
	order  []int      // the row numbers shown, in display order
	digits []byte     // the text of the COUNT cells
}

// Decode decodes rows — an ORDER BY result's when ordered — replacing
// what the DisplayRows held, and shows the first limit rows in display
// order (all of them when limit ≤ 0). An ordered result decodes only the
// rows it shows; any other is decoded whole, since the display sort
// needs every row.
func (d *DisplayRows) Decode(rows IDRows, ordered bool, limit int) {
	n, w := rows.Len(), rows.Block.Width()
	shown := n
	if limit > 0 && limit < n {
		shown = limit
	}
	if ordered {
		n = shown
	}
	d.width = w
	if cap(d.cells) < n*w {
		d.cells = make([]rdf.Term, n*w) // exactly: no cells beyond the rows decoded
	}
	d.cells = d.cells[:n*w]
	d.order = slices.Grow(d.order[:0], n)[:n]
	d.digits = d.digits[:0]
	for i := range n {
		decodeRow(rows.Terms, d.cells[i*w:(i+1)*w], rows.Block.Row(i), rows.CountCols, &d.digits)
		d.order[i] = i
	}
	if ordered {
		return
	}
	cells := d.cells
	slices.SortFunc(d.order, func(a, b int) int {
		x, y := cells[a*w:(a+1)*w], cells[b*w:(b+1)*w]
		for k := range x {
			if c := x[k].Compare(y[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	d.order = d.order[:shown]
}

// Len returns the number of rows shown.
func (d *DisplayRows) Len() int { return len(d.order) }

// Row returns the i-th row in display order, capacity-clipped.
func (d *DisplayRows) Row(i int) []rdf.Term {
	lo := d.order[i] * d.width
	return d.cells[lo : lo+d.width : lo+d.width]
}

// RetainedBytes is how much memory the DisplayRows keeps for the next
// Decode.
func (d *DisplayRows) RetainedBytes() int {
	return cap(d.cells)*int(unsafe.Sizeof(rdf.Term{})) + cap(d.order)*int(unsafe.Sizeof(0)) + cap(d.digits)
}
