package core

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// patSpec is one pattern of a PT/IPT node prepared for scanning: which
// column it reads and what its value position contributes (a new output
// column, an equality constraint, or a bound-term membership test).
type patSpec struct {
	// pid is the pattern's predicate ID.
	pid rdf.ID
	// boundVal is the required value when the value position is a bound
	// term (NullID otherwise).
	boundVal rdf.ID
	// newCol is the output row index this pattern's variable fills, or
	// -1 when the pattern only constrains.
	newCol int
	// eqCol is the earlier output column this pattern's variable must
	// equal, or -1.
	eqCol int
	// eqKey constrains the value to equal the row key (?s p ?s).
	eqKey bool
}

// ptNodeScan is a PT/IPT node's scan recipe, the part of its NodeScan
// every route reads: the output schema, the per-pattern specs, and the
// predicate columns the pruned scan reads. empty marks a node some
// required predicate or bound term makes unanswerable.
type ptNodeScan struct {
	schema engine.Schema
	specs  []patSpec
	preds  []rdf.ID
	empty  bool
}

// ptNodeScan resolves a PT/IPT node's patterns against the dictionary
// and the table's columns into a scan recipe. The schema is the node's
// own (ptSchema), so an empty recipe carries it too.
func (s *Store) ptNodeScan(pt *PropertyTable, n *Node) ptNodeScan {
	schema := ptSchema(n)
	empty := ptNodeScan{schema: schema, empty: true}
	specs := make([]patSpec, 0, len(n.Patterns))
	preds := make([]rdf.ID, 0, len(n.Patterns))
	// filled counts the schema columns some earlier pattern fills; the
	// schema lists value variables in first-use order, so a variable's
	// first use is the column at that index.
	filled := 1
	for _, tp := range n.Patterns {
		pid, ok := s.dict.Lookup(tp.P.Term)
		if !ok || !pt.HasColumn(pid) {
			return empty
		}
		value := valueTerm(tp, pt.mode)
		spec := patSpec{pid: pid, newCol: -1, eqCol: -1}
		switch {
		case !value.IsVar():
			vid, ok := s.dict.Lookup(value.Term)
			if !ok {
				return empty
			}
			spec.boundVal = vid
		case value.Var == n.Key:
			spec.eqKey = true
		default:
			if i := schema.Index(value.Var); i < filled {
				spec.eqCol = i
			} else {
				spec.newCol = i
				filled++
			}
		}
		specs = append(specs, spec)
		preds = append(preds, pid)
	}
	return ptNodeScan{schema: schema, specs: specs, preds: preds}
}

// valueTerm returns the pattern position holding the cell value: the
// object for the subject-keyed PT, the subject for the inverse PT.
func valueTerm(tp sparql.TriplePattern, mode ptKeyMode) sparql.PatternTerm {
	if mode == keyOnObject {
		return tp.S
	}
	return tp.O
}

// ptCursor is one pattern's position in its column during a partition
// scan.
type ptCursor struct {
	spec patSpec
	col  *ptColumn
	// pos indexes col.keys: every key before it is below the current
	// driver key.
	pos int
	// vals is the current key's value list (aliasing the column) and
	// next the odometer's position in it; both are used only for
	// patterns that contribute to the output row.
	vals []rdf.ID
	next int
}

// ptScan is the scaffolding of one PT partition scan — the patterns'
// cursors, the ones whose values reach the output row, and the scratch
// row — set up once per partition by init and shared by every pass over
// it.
type ptScan struct {
	curs   []ptCursor
	driver int
	// out lists the patterns whose values reach the row, in pattern
	// order; the others only constrain.
	out []*ptCursor
	row engine.Row
}

// ptScans returns scratch for the n partition scans of one node, which
// may run concurrently: a window of three shared buffers each, the row's
// carved from r, sized for spec so that init grows none of them. A scan
// stage's scratch is then the same few allocations whatever its
// partition count. The windows lie a cache line apart, so that scans
// running at once never write to one line.
func ptScans(spec ptNodeScan, n int, r *engine.Region) []ptScan {
	k, w := len(spec.specs), len(spec.schema)
	// The gaps: a cursor is wider than a line, a pointer an eighth of
	// one, an ID a sixteenth.
	ck, ok, rw := k+1, k+8, w+16
	curs := make([]ptCursor, n*ck)
	out := make([]*ptCursor, n*ok)
	row := r.IDs(n * rw)
	scans := make([]ptScan, n)
	for i := range scans {
		scans[i] = ptScan{
			curs: curs[i*ck : i*ck : i*ck+k],
			out:  out[i*ok : i*ok : i*ok+k],
			row:  row[i*rw : i*rw : i*rw+w],
		}
	}
	return scans
}

// init prepares a scan of a node's patterns over one PT partition, in
// the storage sc holds from the partition before (the zero ptScan
// allocates it). The column with the fewest keys drives (the first such
// on a tie). ok is false when the partition lacks one of the columns:
// it holds no answer and costs nothing.
func (sc *ptScan) init(part *ptPartition, specs []patSpec, width int) (ok bool) {
	sc.curs = slices.Grow(sc.curs[:0], len(specs))[:len(specs)]
	sc.driver = 0
	for i, sp := range specs {
		col := part.cols[sp.pid]
		if col == nil {
			return false // a required predicate has no cells here
		}
		sc.curs[i] = ptCursor{spec: sp, col: col}
		if len(col.keys) < len(sc.curs[sc.driver].col.keys) {
			sc.driver = i
		}
	}
	sc.out = slices.Grow(sc.out[:0], len(specs))
	for i := range sc.curs {
		if sp := sc.curs[i].spec; sp.newCol >= 0 || sp.eqCol >= 0 {
			sc.out = append(sc.out, &sc.curs[i])
		}
	}
	// run writes every column of the row before it yields it.
	sc.row = slices.Grow(sc.row[:0], width)[:width]
	return true
}

// processed is the number of driver keys, the size of the smallest
// column a Parquet reader would have to walk; it is what the cost model
// charges the scan for beside its output rows. It is defined on the
// column, not on the keys a pass happens to reach before another column
// runs out, so that the priced work of a scan depends on the data
// alone.
func (sc *ptScan) processed() int64 { return int64(len(sc.curs[sc.driver].col.keys)) }

// run makes one pass over the partition as a sorted intersection of
// the patterns' columns: the driver's keys are visited in ascending
// order and every other pattern's cursor is advanced to the same key by
// galloping search, so a key missing from any column is skipped without
// touching its values. For a key present in all of them, bound-value
// and ?s p ?s patterns are membership tests on the value list, and the
// remaining lists are combined by an odometer (first pattern slowest)
// into the one reused row — the multi-valued flatten — with repeated
// variables checked as the row fills. Rows passing rowPred (pushed-down
// FILTERs, may be nil) are counted and, when yield is non-nil, yielded;
// the yielded row is scratch the callback MUST copy. A nil yield makes
// a counting pass, which is how the streaming scan learns its batch
// boundaries before its emitting pass. Nothing is allocated, per key or
// per pass.
func (sc *ptScan) run(rowPred func(engine.Row) bool, yield func(engine.Row)) (rows int64) {
	curs, out, row, driver := sc.curs, sc.out, sc.row, sc.driver
	emit := func() {
		if rowPred == nil || rowPred(row) {
			rows++
			if yield != nil {
				yield(row)
			}
		}
	}
	for i := range curs {
		curs[i].pos = 0
	}

nextKey:
	for di, key := range curs[driver].col.keys {
		for i := range curs {
			c := &curs[i]
			if i == driver {
				c.pos = di
			} else {
				c.pos = gallop(c.col.keys, c.pos, key)
				if c.pos == len(c.col.keys) {
					break nextKey // this column has no key ≥ key left
				}
				if c.col.keys[c.pos] != key {
					continue nextKey
				}
			}
			c.vals = c.col.values(c.pos)
			switch {
			case c.spec.boundVal != rdf.NullID:
				if !slices.Contains(c.vals, c.spec.boundVal) {
					continue nextKey
				}
			case c.spec.eqKey:
				if !slices.Contains(c.vals, key) {
					continue nextKey
				}
			}
		}
		row[0] = key
		if len(out) == 0 {
			emit()
			continue
		}
		// Odometer over the contributing lists: lvl is the wheel being
		// turned, wheels below it hold their current value in row.
		lvl := 0
		out[0].next = 0
		for lvl >= 0 {
			c := out[lvl]
			if c.next == len(c.vals) {
				lvl--
				continue
			}
			v := c.vals[c.next]
			c.next++
			if c.spec.newCol >= 0 {
				row[c.spec.newCol] = v
			} else if v != row[c.spec.eqCol] {
				continue
			}
			if lvl+1 < len(out) {
				lvl++
				out[lvl].next = 0
				continue
			}
			emit()
		}
	}
	return rows
}

// gallop returns the smallest i ≥ from with keys[i] ≥ key, or len(keys)
// if there is none. keys is ascending. It doubles its stride from from,
// then bisects the last stride, so a cursor that moves d places costs
// O(log d) — cheap both when two columns are equally dense (d ≈ 1) and
// when one is far denser than the driver.
func gallop(keys []rdf.ID, from int, key rdf.ID) int {
	if from >= len(keys) || keys[from] >= key {
		return from
	}
	lo, hi := from, from+1 // keys[lo] < key
	for step := 1; hi < len(keys) && keys[hi] < key; {
		step *= 2
		lo, hi = hi, hi+step
	}
	if hi > len(keys) {
		hi = len(keys)
	}
	// keys[lo] < key, and hi == len(keys) or keys[hi] ≥ key.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// ptDriverKeys is the number of keys a partition scan's driving column
// holds — what ptScan.processed reports: the key count of the smallest
// of the patterns' columns, zero when one is missing.
func ptDriverKeys(part *ptPartition, specs []patSpec) int {
	n := -1
	for _, sp := range specs {
		col := part.cols[sp.pid]
		if col == nil {
			return 0
		}
		if n < 0 || len(col.keys) < n {
			n = len(col.keys)
		}
	}
	return max(n, 0)
}

// rows scans one PT partition in one pass, into an arena carved from r
// (the heap when nil) that grows there by doubling as rows arrive. A
// counting pass to size the arena first would repeat the whole
// intersection, which costs more than the copies doubling makes.
func (sc *ptScan) rows(part *ptPartition, spec ptNodeScan, rowPred func(engine.Row) bool, r *engine.Region) (rows engine.Block, processed int64) {
	width := len(spec.schema)
	if !sc.init(part, spec.specs, width) {
		return engine.Block{}, 0
	}
	arena := r.Arena(width, 0)
	if sc.run(rowPred, func(row engine.Row) { arena.Grow(1); arena.AppendCopy(row) }) == 0 {
		return engine.Block{}, sc.processed()
	}
	return arena.Block(), sc.processed()
}
