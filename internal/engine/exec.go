package engine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// DefaultBroadcastThreshold mirrors Spark's
// spark.sql.autoBroadcastJoinThreshold default of 10 MiB.
const DefaultBroadcastThreshold = 10 << 20

// Exec is the execution context for one query: the cluster it runs on,
// the virtual clock it charges, and the physical-planning knobs.
type Exec struct {
	// Cluster is the simulated cluster.
	Cluster *cluster.Cluster
	// Clock accumulates the query's virtual time. May be nil (costs are
	// then discarded), which tests use for pure-semantics checks.
	Clock *cluster.Clock
	// StartCost is charged once, on the query's first stage: query
	// planning in a warm Spark SQL session (PRoST, S2RDF) or a full
	// spark-submit (SPARQLGX).
	StartCost time.Duration
	// BoundaryLaunch is charged on every stage that crosses a shuffle
	// or broadcast-exchange boundary; pipelined work (scan, filter,
	// project) launches nothing.
	BoundaryLaunch time.Duration
	// BroadcastThreshold is the maximum build-side size for broadcast
	// joins; 0 means DefaultBroadcastThreshold, negative disables
	// broadcasting entirely (the ablation knob).
	BroadcastThreshold int64
	// Dist, when non-nil, delegates exchange kernels (shuffle join,
	// broadcast join, cartesian, distinct) to remote shard processes.
	// Layout decisions, shuffle routing and stage pricing stay local,
	// so SimTime and results are identical to single-process runs.
	Dist Exchanger
	// Node is the ID of the plan operator this context executes. Every
	// exchange spec carries it, so a distributed session attributes its
	// measurements to the operator rather than to a label.
	Node int
	// Region is where the operators put what dies with the query — their
	// outputs, permutations, hash tables and scratch — released when the
	// query returns. Nil puts it on the heap, for the collector to free
	// (the baselines run that way).
	Region *Region

	started bool
	// noSalt turns shuffle salting off; only this package's tests set
	// it, to measure what salting buys.
	noSalt bool
}

// NewExec returns an execution context with warm-session Spark SQL
// pricing — the mode PRoST and S2RDF run in.
func NewExec(c *cluster.Cluster, clock *cluster.Clock) *Exec {
	cost := c.Config().Cost
	return &Exec{
		Cluster:        c,
		Clock:          clock,
		StartCost:      cost.SQLPlanning,
		BoundaryLaunch: cost.SQLStageLaunch,
	}
}

// NewRDDExec returns an execution context priced as a freshly submitted
// RDD program (SPARQLGX's mode): a spark-submit per query and a job
// launch per shuffle stage.
func NewRDDExec(c *cluster.Cluster, clock *cluster.Clock) *Exec {
	cost := c.Config().Cost
	return &Exec{
		Cluster:        c,
		Clock:          clock,
		StartCost:      cost.RDDSubmit,
		BoundaryLaunch: cost.RDDStageLaunch,
	}
}

// Launch returns the launch overhead for the next stage: StartCost on
// the query's first stage, plus BoundaryLaunch when the stage crosses a
// shuffle/broadcast boundary. Storage layers that run their own scan
// stages call this with boundary=false.
func (e *Exec) Launch(boundary bool) time.Duration {
	var d time.Duration
	if !e.started {
		e.started = true
		d += e.StartCost
	}
	if boundary {
		d += e.BoundaryLaunch
	}
	return d
}

// launchBroadcast prices a broadcast hash join's stage: the probe side
// pipelines into the open stage (Spark fuses BroadcastHashJoin into
// whole-stage codegen), so only the small build-side collection job is
// charged, at a third of a full stage launch.
func (e *Exec) launchBroadcast() time.Duration {
	return e.Launch(false) + e.BoundaryLaunch/3
}

func (e *Exec) broadcastThreshold() int64 {
	if e.BroadcastThreshold == 0 {
		return DefaultBroadcastThreshold
	}
	return e.BroadcastThreshold
}

// Scan charges a table scan of the relation: diskBytes streamed evenly
// across partitions plus per-row processing. It returns table unchanged
// (relations are immutable), making it the bridge between stored tables
// and query plans. Pass diskBytes = 0 for a scan of an in-memory cached
// table.
func (e *Exec) Scan(table *Relation, name string, diskBytes int64) (*Relation, error) {
	if table.Partitions() == 0 {
		return table, nil
	}
	if err := e.scanStage(name, table.parts, diskBytes, nil); err != nil {
		return nil, err
	}
	return table, nil
}

// ScanParts is the scan operator of a storage layer that names its own
// output — a table scan under a pattern's variable names, filtered or
// column-pruned, evaluated in this process or gathered from shards. With
// a nil scan the rows in parts exist already (a stored table's own
// blocks, shared, never written) and are what the stage examines;
// otherwise scan(p) runs inside the stage, concurrently across
// partitions, and returns partition p's rows — which ScanParts stores in
// parts[p] — and how many stored rows or keys it examined, so
// pushed-down predicates cost no extra stage and no materialized
// intermediate. The output adopts schema and parts — the caller's to
// give away, not cloned — and is hash-partitioned on partKey ("" =
// arbitrary): scanning moves no rows.
func (e *Exec) ScanParts(name string, schema Schema, partKey string, parts []Block, diskBytes int64, scan func(p int) (rows Block, examined int64)) (*Relation, error) {
	if err := e.scanStage(name, parts, diskBytes, scan); err != nil {
		return nil, err
	}
	rel := &Relation{schema: schema, parts: parts}
	if partKey != "" {
		rel.partCols = []string{partKey}
	}
	return rel, nil
}

// scanStage is the one scan charge: a stage "scan <name>" with a task
// per partition, each charged its even share of diskBytes streamed off
// disk plus the rows it examined — those scan(p) reports after filling
// parts[p], or with a nil scan the rows parts[p] already holds.
func (e *Exec) scanStage(name string, parts []Block, diskBytes int64, scan func(p int) (Block, int64)) error {
	perPart := diskBytes / int64(len(parts))
	return e.Cluster.RunStage(e.Clock, e.Launch(false), "scan "+name, len(parts), func(p int) (cluster.TaskStats, error) {
		examined := int64(parts[p].n)
		if scan != nil {
			parts[p], examined = scan(p)
		}
		return cluster.TaskStats{DiskBytes: perPart, Rows: examined}, nil
	})
}

// Filter keeps the rows satisfying pred, partition-wise (no shuffle): a
// partition whose every row passes is shared, any other copies the rows
// it keeps into a block of its own.
func (e *Exec) Filter(rel *Relation, name string, pred func(Row) bool) (*Relation, error) {
	out := make([]Block, rel.Partitions())
	err := e.Cluster.RunStage(e.Clock, e.Launch(false), "filter "+name, rel.Partitions(), func(p int) (cluster.TaskStats, error) {
		in := rel.parts[p]
		arena := RowArena{region: e.Region}
		out[p] = in.Select(pred, &arena)
		return cluster.TaskStats{Rows: int64(in.n)}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: rel.schema.Clone(), parts: out, partCols: cloneCols(rel.partCols)}, nil
}

// Project keeps only the named columns, in the given order.
func (e *Exec) Project(rel *Relation, cols []string) (*Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := rel.schema.Index(c)
		if j < 0 {
			return nil, fmt.Errorf("engine: project column %q not in schema %v", c, rel.schema)
		}
		idx[i] = j
	}
	// The partitioning survives only if every partition column is
	// still projected (placement hashes all of them).
	partCols := cloneCols(rel.partCols)
	for _, pc := range partCols {
		if !Schema(cols).Contains(pc) {
			partCols = nil
			break
		}
	}
	out := make([]Block, rel.Partitions())
	err := e.Cluster.RunStage(e.Clock, e.Launch(false), "project", rel.Partitions(), func(p int) (cluster.TaskStats, error) {
		in := rel.parts[p]
		arena := e.Region.Arena(len(idx), in.n)
		for i := 0; i < in.n; i++ {
			arena.AppendProjected(in.Row(i), idx)
		}
		out[p] = arena.Block()
		return cluster.TaskStats{Rows: int64(in.n)}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: Schema(cols).Clone(), parts: out, partCols: partCols}, nil
}

// Rename relabels the relation's columns without touching data or
// layout; the partition key follows its column. It is free (metadata
// only), like a SQL AS clause.
func (e *Exec) Rename(rel *Relation, newNames []string) (*Relation, error) {
	if len(newNames) != len(rel.schema) {
		return nil, fmt.Errorf("engine: rename needs %d names, got %d", len(rel.schema), len(newNames))
	}
	var partCols []string
	for _, pc := range rel.partCols {
		if i := rel.schema.Index(pc); i >= 0 {
			partCols = append(partCols, newNames[i])
		}
	}
	if len(partCols) != len(rel.partCols) {
		partCols = nil
	}
	return &Relation{schema: Schema(newNames).Clone(), parts: rel.parts, partCols: partCols}, nil
}

// Distinct removes duplicate rows. It requires a shuffle on all columns
// so equal rows meet in one partition, exactly as Spark plans it; a
// relation already partitioned on all its columns dedups in place. The
// output records the all-columns partitioning for downstream reuse.
func (e *Exec) Distinct(rel *Relation) (*Relation, error) {
	n := e.Cluster.DefaultPartitions()
	width := len(rel.schema)
	keyIdx := make([]int, width)
	for i := range keyIdx {
		keyIdx[i] = i
	}
	var shuffled []Block
	moved := make([]int64, n)
	if alignedOnCols(rel, rel.schema, n) {
		shuffled = rel.parts
	} else {
		shuffled, moved = shuffleRows(e.Region, rel, keyIdx, n)
	}
	run := func(p int) Block { return Distinct(e.Region, shuffled[p], width) }
	if e.Dist != nil {
		var priced int64
		for _, m := range moved {
			priced += m
		}
		res, err := e.Dist.Distinct(DistinctSpec{Node: e.Node, Width: width, PricedBytes: priced}, shuffled)
		if err != nil {
			return nil, err
		}
		run = func(p int) Block { return res[p] }
	}
	out := make([]Block, n)
	err := e.Cluster.RunStage(e.Clock, e.Launch(true), "distinct", n, func(p int) (cluster.TaskStats, error) {
		out[p] = run(p)
		return cluster.TaskStats{
			Rows:     int64(shuffled[p].n),
			NetBytes: moved[p],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Relation{schema: rel.schema.Clone(), parts: out, partCols: cloneCols(rel.schema)}, nil
}

// Collect hands all rows to the driver, charging their transfer: the
// relation's own blocks, in partition order, uncopied.
func (e *Exec) Collect(rel *Relation) ([]Block, error) {
	err := e.Cluster.RunStage(e.Clock, e.Launch(true), "collect", rel.Partitions(), func(p int) (cluster.TaskStats, error) {
		rows := int64(rel.parts[p].n)
		return cluster.TaskStats{
			Rows:     rows,
			NetBytes: rows * int64(len(rel.schema)) * bytesPerValue,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rel.parts, nil
}

// Limit hands rows to the driver in partition order, pushing
// offset/limit into the collection itself: partitions are consumed in
// order and gathering stops as soon as offset+limit rows are taken, so
// only the consumed prefix crosses the wire (and is charged) — a
// LIMIT 10 over a million-row relation transfers 10 rows, not all of
// them. The surviving rows are identical to collecting everything and
// slicing; they come back as slices of the relation's blocks, uncopied.
// A negative limit means "no limit" and degenerates to Collect, as
// does a limit that would take offset+limit past math.MaxInt.
func (e *Exec) Limit(rel *Relation, limit, offset int) ([]Block, error) {
	offset = max(offset, 0)
	if limit > math.MaxInt-offset {
		limit = -1
	}
	n := rel.Partitions()
	taken := make([]int64, n)
	need := offset + limit
	if limit < 0 {
		need = rel.NumRows()
	}
	var window []Block
	got := 0
	for p := 0; p < n && got < need; p++ {
		part := rel.parts[p]
		take := min(need-got, part.n)
		taken[p] = int64(take)
		// The rows [offset, need) of the whole gather are the window.
		if lo := max(offset-got, 0); lo < take {
			window = append(window, part.Slice(lo, take))
		}
		got += take
	}
	if limit < 0 {
		if _, err := e.Collect(rel); err != nil {
			return nil, err
		}
		return window, nil
	}
	width := int64(len(rel.schema))
	err := e.Cluster.RunStage(e.Clock, e.Launch(true), "collect", n, func(p int) (cluster.TaskStats, error) {
		return cluster.TaskStats{
			Rows:     taken[p],
			NetBytes: taken[p] * width * bytesPerValue,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return window, nil
}

// FilterOp maps a FILTER comparison operator to a test of CompareTerms'
// three-way result. It is the one place an operator is interpreted:
// PRoST's compiled filters and all three baselines go through it.
func FilterOp(op sparql.CompareOp) (func(int) bool, error) {
	switch op {
	case sparql.OpEQ:
		return func(c int) bool { return c == 0 }, nil
	case sparql.OpNE:
		return func(c int) bool { return c != 0 }, nil
	case sparql.OpLT:
		return func(c int) bool { return c < 0 }, nil
	case sparql.OpLE:
		return func(c int) bool { return c <= 0 }, nil
	case sparql.OpGT:
		return func(c int) bool { return c > 0 }, nil
	case sparql.OpGE:
		return func(c int) bool { return c >= 0 }, nil
	default:
		return nil, fmt.Errorf("engine: unsupported filter operator %v", op)
	}
}

// CompareTerms three-way-compares two terms the way FILTER comparisons
// (and ORDER BY) do: integer-typed literals numerically, whatever their
// length, everything else by term ordering.
func CompareTerms(a, b rdf.Term) int {
	if na, oka := integerValue(a); oka {
		if nb, okb := integerValue(b); okb {
			return na.compare(nb)
		}
	}
	return a.Compare(b)
}

// CompareIDs applies a FILTER comparison (a FilterOp result) to the
// term the dictionary ID a stands for and the constant b. terms is a
// dictionary snapshot the caller takes once, not once per cell.
func CompareIDs(terms rdf.Snapshot, a rdf.ID, op func(int) bool, b rdf.Term) bool {
	return op(CompareTerms(terms.Term(a), b))
}

// CompareTermIDs is CompareTerms over two dictionary IDs, resolved
// through a snapshot the caller takes once. Callers must have resolved
// NullID (unbound) cells before calling — the dictionary panics on
// NullID by design.
func CompareTermIDs(terms rdf.Snapshot, a, b rdf.ID) int {
	return CompareTerms(terms.Term(a), terms.Term(b))
}

// integer is an xsd:integer in canonical form: its sign and its decimal
// digits without leading zeros — empty for zero, which has no sign.
type integer struct {
	neg    bool
	digits string
}

// integerValue parses an integer-typed literal: an optional sign, then
// at least one decimal digit, as many as it has.
func integerValue(t rdf.Term) (integer, bool) {
	if !t.IsLiteral() || t.Datatype != rdf.XSDInteger {
		return integer{}, false
	}
	s := t.Value
	neg := false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if s == "" {
		return integer{}, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return integer{}, false
		}
	}
	s = strings.TrimLeft(s, "0")
	return integer{neg: neg && s != "", digits: s}, true
}

// compare three-way-compares two integers: by sign, then — a longer
// canonical digit string being the larger magnitude — by length, then
// digit by digit.
func (x integer) compare(y integer) int {
	if x.neg != y.neg {
		if x.neg {
			return -1
		}
		return 1
	}
	c := len(x.digits) - len(y.digits)
	if c == 0 {
		c = strings.Compare(x.digits, y.digits)
	}
	switch {
	case c == 0:
		return 0
	case (c < 0) != x.neg:
		return -1
	}
	return 1
}
