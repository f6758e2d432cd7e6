package core

import (
	"math"
	"slices"
	"sync"

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

// constant reports whether the pattern tests each key's values against
// a constant — its bound value, or the key itself — rather than adding
// them to the row.
func (sp patSpec) constant() bool { return sp.boundVal != rdf.NullID || sp.eqKey }

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
	// pat is the pattern's index in the node, which orders out.
	pat int
	// pos indexes col.keys: every key before it is below the current
	// driver key.
	pos int
	// vals is the current key's value list (aliasing the column) and
	// next the odometer's position in it; both are set only for patterns
	// that contribute to the output row, once the key is in every column.
	vals []rdf.ID
	next int
}

// ptScan is the scaffolding of one PT partition scan — the patterns'
// cursors, the ones whose values reach the output row, and the scratch
// row — set up once per partition by init for its one pass.
type ptScan struct {
	// curs holds one cursor per pattern: the driver's first, then those
	// of the patterns that carry a constant, then the rest, each group in
	// pattern order.
	curs []ptCursor
	// out lists the patterns whose values reach the row, in pattern
	// order; the others only constrain.
	out []*ptCursor
	row engine.Row
	// keys is the smallest column's key count.
	keys int64
}

// ptScratch is the scaffolding of one node's n partition scans, which
// may run concurrently: a window of three shared buffers each, the row's
// carved from the query's region, sized for the node's patterns so that
// init grows none of them. The windows lie a cache line apart, so that
// scans running at once never write to one line. Cursors point into
// the table, so they cannot live in a region; the scans and cursor
// buffers come from ptScratchPool instead, and a warm scan stage
// allocates nothing, whatever its partition count.
type ptScratch struct {
	scans []ptScan
	curs  []ptCursor
	out   []*ptCursor
}

var ptScratchPool = sync.Pool{New: func() any { return new(ptScratch) }}

// ptScans returns scratch for the n partition scans of spec, to be
// handed back with release once every scan is done.
func ptScans(spec ptNodeScan, n int, r *engine.Region) *ptScratch {
	k, w := len(spec.specs), len(spec.schema)
	// The gaps: a cursor is wider than a line, a pointer an eighth of
	// one, an ID a sixteenth.
	ck, ok, rw := k+1, k+8, w+16
	sc := ptScratchPool.Get().(*ptScratch)
	sc.scans = slices.Grow(sc.scans[:0], n)[:n]
	sc.curs = slices.Grow(sc.curs[:0], n*ck)[:n*ck]
	sc.out = slices.Grow(sc.out[:0], n*ok)[:n*ok]
	row := r.IDs(n * rw)
	for i := range sc.scans {
		sc.scans[i] = ptScan{
			curs: sc.curs[i*ck : i*ck : i*ck+k],
			out:  sc.out[i*ok : i*ok : i*ok+k],
			row:  row[i*rw : i*rw : i*rw+w],
		}
	}
	return sc
}

// release returns the scratch to the pool, dropping what it points to:
// the tables' columns, and the row in the query's region.
func (sc *ptScratch) release() {
	clear(sc.scans)
	clear(sc.curs)
	clear(sc.out)
	ptScratchPool.Put(sc)
}

// init prepares a scan of a node's patterns over one PT partition, in
// the storage sc holds from the partition before (the zero ptScan
// allocates it). The column with the fewest keys drives (the first such
// on a tie), unless a column that carries a constant is close enough in
// size to drive instead (constantDrives): scanning it tests the
// constant on each of its keys, in order, where any other driver would
// gallop to each of its own keys in it first. The cursors are then
// ordered so that a key meets the constants before it meets the
// columns that only fill the row. ok is false when the partition lacks
// one of the columns: it holds no answer and costs nothing.
func (sc *ptScan) init(part *ptPartition, specs []patSpec, width int) (ok bool) {
	curs := slices.Grow(sc.curs[:0], len(specs))[:len(specs)]
	sc.curs = curs
	smallest, lead := 0, -1 // lead: the constant column with the fewest keys
	for i, sp := range specs {
		col := part.cols[sp.pid]
		if col == nil {
			return false // a required predicate has no cells here
		}
		curs[i] = ptCursor{spec: sp, col: col, pat: i}
		if len(col.keys) < len(curs[smallest].col.keys) {
			smallest = i
		}
		if sp.constant() && (lead < 0 || len(col.keys) < len(curs[lead].col.keys)) {
			lead = i
		}
	}
	sc.keys = int64(len(curs[smallest].col.keys))
	driver := smallest
	if lead >= 0 && constantDrives(curs[lead].col, len(curs[smallest].col.keys)) {
		driver = lead
	}
	// The driver to the front, then the constants behind it, each move a
	// rotation, so every group keeps its pattern order.
	d := curs[driver]
	copy(curs[1:driver+1], curs[:driver])
	curs[0] = d
	next := 1
	for i := 1; i < len(curs); i++ {
		if c := curs[i]; c.spec.constant() {
			copy(curs[next+1:i+1], curs[next:i])
			curs[next] = c
			next++
		}
	}
	sc.out = slices.Grow(sc.out[:0], len(specs))
	for pat, sp := range specs {
		if sp.newCol < 0 && sp.eqCol < 0 {
			continue
		}
		for i := range curs {
			if curs[i].pat == pat {
				sc.out = append(sc.out, &curs[i])
			}
		}
	}
	// run writes every column of the row before it yields it.
	sc.row = slices.Grow(sc.row[:0], width)[:width]
	return true
}

// constantDrives reports whether c, a column that carries a constant,
// drives a scan whose smallest column has least keys. Driven from the
// smallest column, a scan gallops into c once per key of its own, each
// time some n/least keys on (n is c's key count), which costs about
// 1 + 2·log2(n/least) key comparisons; driven from c, it reads each of
// c's values once, in order, testing the constant. c drives when that
// read is no longer: for a column of one value per key, when n/least is
// at most about 6.3. Measured over WatDiv 10,000's 18 partitions, with
// every partition driven from c or every one from the smallest column:
// S7's sorg:language (one value per key, 4.9–6.9 times the smallest
// column) scanned in 6.2 µs against 8.3 µs; S3's rdf:type (1.33 values
// per key, 6.0–9.0 times) in 137 µs against 76 µs, which its value
// count keeps from driving; random single-valued columns whose constant
// 1 % of the keys hold won at 6 times the smallest column's keys and
// lost at 8. A constant most keys hold would have the smallest column
// drive at any ratio, but nothing in the columns tells.
func constantDrives(c *ptColumn, least int) bool {
	n := float64(len(c.keys))
	return least > 0 && float64(len(c.vals)) <= float64(least)*(1+2*math.Log2(n/float64(least)))
}

// processed is the number of keys in the smallest column, the one a
// Parquet reader would have to walk; it is what the cost model charges
// the scan for beside its output rows, whichever column drives. It is
// defined on the column, not on the keys a pass happens to reach before
// another column runs out, so that the priced work of a scan depends on
// the data alone.
func (sc *ptScan) processed() int64 { return sc.keys }

// run makes one pass over the partition as a sorted intersection of
// the patterns' columns: the driver's keys are visited in ascending
// order and every other pattern's cursor is advanced to the same key by
// galloping search, in cursor order, so a key missing from any column
// is skipped without searching the columns after it. A bound-value or
// ?s p ?s pattern is a membership test on the key's value list as soon
// as its cursor reaches the key — the driver's before any other column
// is searched. Only for a key present in all of them and passing every
// test are the remaining patterns' lists looked up, and combined by an
// odometer (first pattern slowest) into the one reused row — the
// multi-valued flatten — with repeated variables checked as the row
// fills. Rows passing rowPred (pushed-down FILTERs, may be nil) are
// yielded; the yielded row is scratch the callback MUST copy. Every
// caller makes one pass per partition — a counting pass ahead of it
// would repeat the whole intersection — so each candidate row is built
// and tested once. Nothing is allocated, per key or per pass.
func (sc *ptScan) run(rowPred func(engine.Row) bool, yield func(engine.Row)) {
	curs, out, row := sc.curs, sc.out, sc.row
	emit := func() {
		if rowPred == nil || rowPred(row) {
			yield(row)
		}
	}
	for i := range curs {
		curs[i].pos = 0
	}

	// The driver's own cursor is visited only to test its constant.
	first := 1
	if curs[0].spec.constant() {
		first = 0
	}
nextKey:
	for di, key := range curs[0].col.keys {
		curs[0].pos = di
		for i := first; i < len(curs); i++ {
			c := &curs[i]
			if i > 0 {
				c.pos = gallop(c.col.keys, c.pos, key)
				if c.pos == len(c.col.keys) {
					break nextKey // this column has no key ≥ key left
				}
				if c.col.keys[c.pos] != key {
					continue nextKey
				}
			}
			switch {
			case c.spec.boundVal != rdf.NullID:
				if !slices.Contains(c.col.values(c.pos), c.spec.boundVal) {
					continue nextKey
				}
			case c.spec.eqKey:
				if !slices.Contains(c.col.values(c.pos), key) {
					continue nextKey
				}
			}
		}
		for _, c := range out {
			c.vals = c.col.values(c.pos)
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
	sc.run(rowPred, func(row engine.Row) { arena.Grow(1); arena.AppendCopy(row) })
	if arena.Len() == 0 {
		return engine.Block{}, sc.processed()
	}
	return arena.Block(), sc.processed()
}
