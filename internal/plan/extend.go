package plan

// Extended-surface plan composition. The core planner translates and
// cost-plans each UNION branch's basic graph pattern (and each
// OPTIONAL group's) independently through Build — reusing filter
// pushdown, join ordering and physical join selection unchanged — and
// Extend grafts the results into one plan: per-branch LeftJoins for
// OPTIONAL groups, a branch-normalizing projection plus an n-ary Union
// when the query has multiple branches, then Aggregate, the final
// projection, Distinct, and a TopK that fuses ORDER BY with
// LIMIT/OFFSET. TopK always sits above the final projection, so its
// row order is defined over the projected column order — identical
// across planner modes — which is what makes limited results
// deterministic regardless of how each branch was join-ordered.

// CountAgg is one COUNT output column of an extended query: Var is
// the counted variable ("" = COUNT(*)), As the output column.
type CountAgg struct {
	Var string
	As  string
}

// BranchSpec is one UNION branch: the cost-planned base pattern and
// one cost-planned plan per OPTIONAL group, in query order.
type BranchSpec struct {
	Base      *Plan
	Optionals []*Plan
}

// ExtendSpec describes the extended shape grafted over the per-branch
// plans. Leaves and FilterLabels are the query-global lists (branch
// plans carry leaf and filter indexes already offset into them).
type ExtendSpec struct {
	Branches []BranchSpec
	// BranchVars is the sorted variable set every branch binds
	// (including optional variables) — the common schema branches are
	// projected to before the Union.
	BranchVars []string
	Projection []string
	Distinct   bool
	GroupBy    []string
	Counts     []CountAgg
	Order      []SortKey
	// Limit bounds the result (< 0 = none); Offset skips leading rows.
	Limit  int
	Offset int

	Leaves       []Leaf
	FilterLabels []string
}

// Extend composes the extended plan. The result inherits the first
// branch's planner metadata (mode, bushy, priced critical path) and
// carries freshly assigned node IDs.
func Extend(spec ExtendSpec) *Plan {
	first := spec.Branches[0].Base
	out := &Plan{
		Mode:         first.Mode,
		Bushy:        first.Bushy,
		EstCritPath:  first.EstCritPath,
		Leaves:       spec.Leaves,
		FilterLabels: spec.FilterLabels,
	}

	branchRoots := make([]*Node, len(spec.Branches))
	for bi, br := range spec.Branches {
		cur := br.Base.Root
		for _, opt := range br.Optionals {
			shared := sharedStrings(cur.Vars, opt.Root.Vars)
			vars := append([]string(nil), cur.Vars...)
			for _, v := range opt.Root.Vars {
				if !containsString(vars, v) {
					vars = append(vars, v)
				}
			}
			// A left outer join emits at least one row per left row;
			// estimate the left side's cardinality (matches can only
			// multiply it, which the independence assumption underprices
			// the same way inner joins do).
			cur = &Node{
				Op:       OpLeftJoin,
				Label:    "optional",
				Vars:     vars,
				Est:      cur.Est,
				Actual:   -1,
				Children: []*Node{cur, opt.Root},
				JoinVars: shared,
			}
		}
		if len(spec.Branches) > 1 {
			cur = &Node{
				Op:       OpProject,
				Vars:     append([]string(nil), spec.BranchVars...),
				Cols:     append([]string(nil), spec.BranchVars...),
				Est:      cur.Est,
				Actual:   -1,
				Children: []*Node{cur},
			}
		}
		branchRoots[bi] = cur
	}

	cur := branchRoots[0]
	if len(branchRoots) > 1 {
		var est float64
		for _, r := range branchRoots {
			est += r.Est
		}
		cur = &Node{
			Op:       OpUnion,
			Vars:     append([]string(nil), spec.BranchVars...),
			Est:      est,
			Actual:   -1,
			Children: branchRoots,
		}
	}

	if len(spec.Counts) > 0 {
		vars := append([]string(nil), spec.GroupBy...)
		countVars := make([]string, len(spec.Counts))
		for i, c := range spec.Counts {
			vars = append(vars, c.As)
			countVars[i] = c.Var
		}
		countCols := make([]bool, len(vars))
		for i := len(spec.GroupBy); i < len(vars); i++ {
			countCols[i] = true
		}
		cur = &Node{
			Op:        OpAggregate,
			Vars:      vars,
			Est:       cur.Est,
			Actual:    -1,
			Children:  []*Node{cur},
			GroupCols: append([]string(nil), spec.GroupBy...),
			CountVars: countVars,
			CountCols: countCols,
		}
	}

	if !equalStringSlices(spec.Projection, cur.Vars) {
		cur = &Node{
			Op:        OpProject,
			Vars:      append([]string(nil), spec.Projection...),
			Cols:      append([]string(nil), spec.Projection...),
			Est:       cur.Est,
			Actual:    -1,
			Children:  []*Node{cur},
			CountCols: projectedCountCols(cur, spec.Projection),
		}
	}

	if spec.Distinct {
		cur = &Node{
			Op:        OpDistinct,
			Vars:      cur.Vars,
			Est:       cur.Est,
			Actual:    -1,
			Children:  []*Node{cur},
			CountCols: cur.CountCols,
		}
	}

	if spec.Limit >= 0 || spec.Offset > 0 || len(spec.Order) > 0 {
		est := cur.Est
		if spec.Limit >= 0 && float64(spec.Limit) < est {
			est = float64(spec.Limit)
		}
		cur = &Node{
			Op:        OpTopK,
			Vars:      cur.Vars,
			Est:       est,
			Actual:    -1,
			Children:  []*Node{cur},
			Sort:      append([]SortKey(nil), spec.Order...),
			Limit:     spec.Limit,
			Offset:    spec.Offset,
			CountCols: cur.CountCols,
		}
	}

	out.Root = cur
	out.assignIDs()
	return out
}

// projectedCountCols maps a child's count-column mask through a
// projection, returning nil when no projected column is a count.
func projectedCountCols(child *Node, cols []string) []bool {
	if child.CountCols == nil {
		return nil
	}
	out := make([]bool, len(cols))
	any := false
	for i, c := range cols {
		for j, v := range child.Vars {
			if v == c && j < len(child.CountCols) && child.CountCols[j] {
				out[i] = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return out
}

// sharedStrings returns the values present in both lists, in a's
// order.
func sharedStrings(a, b []string) []string {
	var out []string
	for _, v := range a {
		if containsString(b, v) {
			out = append(out, v)
		}
	}
	return out
}

func containsString(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

func equalStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
