// Package core implements PRoST (Partitioned RDF on Spark Tables), the
// paper's primary contribution: an RDF store that keeps the data twice —
// as per-predicate Vertical Partitioning tables and as a subject-wide
// Property Table — translates SPARQL Basic Graph Patterns into Join
// Trees whose nodes read from whichever representation fits (patterns
// sharing a subject collapse into one Property Table node), orders the
// tree with loader-time statistics, and executes it bottom-up on the
// simulated Spark SQL engine.
package core

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Strategy selects how the translator assigns patterns to storage
// structures.
type Strategy uint8

// Query strategies.
const (
	// StrategyMixed is the paper's contribution: subject groups with two
	// or more patterns become Property Table nodes, everything else uses
	// Vertical Partitioning.
	StrategyMixed Strategy = iota
	// StrategyVPOnly answers every pattern from VP tables (the Figure 2
	// baseline).
	StrategyVPOnly
	// StrategyMixedIPT extends Mixed with the future-work inverse
	// Property Table: object groups with two or more patterns become
	// inverse-PT nodes (paper §5).
	StrategyMixedIPT
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyMixed:
		return "mixed"
	case StrategyVPOnly:
		return "vp-only"
	case StrategyMixedIPT:
		return "mixed+ipt"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// StrategyNames lists the values ParseStrategy accepts — the single
// source CLI flags and error messages quote.
func StrategyNames() []string {
	return []string{"mixed", "vp-only", "mixed+ipt"}
}

// ParseStrategy maps a CLI flag or request parameter to a Strategy.
// Unknown values are rejected with an error listing every valid one.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "mixed", "":
		return StrategyMixed, nil
	case "vp-only":
		return StrategyVPOnly, nil
	case "mixed+ipt":
		return StrategyMixedIPT, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q (valid strategies: %s)",
			s, strings.Join(StrategyNames(), ", "))
	}
}

// Options configures a Store.
type Options struct {
	// Cluster is the simulated cluster to load and query on. Required.
	Cluster *cluster.Cluster
	// FS is the simulated HDFS instance tables are written to. If nil, a
	// fresh one sized to the cluster is created.
	FS *hdfs.FS
	// PathPrefix is the HDFS directory the store writes under
	// (default "/prost").
	PathPrefix string
	// BuildInversePT also builds the object-keyed Property Table needed
	// by StrategyMixedIPT. It costs extra loading time and storage,
	// which is why the paper leaves it as future work.
	BuildInversePT bool
	// DisableJoinStats skips the join-graph statistics entirely —
	// characteristic sets and pair sketches — leaving the pre-sketch
	// independence-only estimator. Kept as the ablation baseline (A6)
	// and for tests that exercise correction between executions, which
	// answers estimation mistakes the sketches would otherwise prevent.
	DisableJoinStats bool
	// ExtVPBudget enables the workload-driven ExtVP subsystem and caps
	// the total bytes of materialized semi-join reductions. Zero (the
	// default) disables the subsystem entirely: no mining, no
	// reduction builds, no cross-query estimate seeding — the store
	// behaves exactly as before.
	ExtVPBudget int64
	// ExtVPBuildAfter is the number of feedback observations a
	// predicate pair needs before the query that observes it builds
	// its reductions (0 = workload.DefaultBuildAfter).
	ExtVPBuildAfter int
}

// Store is a loaded PRoST database.
type Store struct {
	opts    Options
	cluster *cluster.Cluster
	fs      *hdfs.FS
	dict    *rdf.Dictionary
	parts   int

	// stats are the loader statistics, collected once by Load and never
	// replaced.
	stats *stats.Collection

	// vp maps predicate ID → its Vertical Partitioning table.
	vp map[rdf.ID]*VPTable
	// predOrder lists predicate IDs sorted by IRI for determinism.
	predOrder []rdf.ID
	// vpBytes is the on-HDFS size of all VP tables together: the disk
	// charge of a raw-triples fallback scan, which reads the whole
	// dataset.
	vpBytes int64
	// pt is the subject-keyed Property Table.
	pt *PropertyTable
	// ipt is the object-keyed inverse Property Table (optional).
	ipt *PropertyTable
	// triples retains the encoded dataset for variable-predicate
	// patterns (the triple-table fallback).
	triples []rdf.EncodedTriple
	// inputBytes and rowsRead are what the load read: the priced input
	// volume and the triples read, duplicates included.
	inputBytes int64
	rowsRead   int

	// planCache memoizes physical plans across queries.
	planCache *planCache

	// workload is the cross-query workload model: mined predicate
	// pairs, materialized ExtVP reductions and observed scan
	// cardinalities. Nil unless Options.ExtVPBudget is positive.
	workload *workload.Model

	// corrections counts cache entries re-planned by Store.correct.
	corrections atomic.Uint64
	// resilience aggregates fault-recovery counters across queries; all
	// zero unless fault injection ran.
	resilience recoveryTotal
	// estSources tallies, across every plan built, how its estimating
	// nodes were priced (characteristic sets, pair sketches, or the
	// independence fallback).
	estSources estSourceCounters

	load LoadReport
}

// AdaptiveMetrics snapshots the store's correction counter.
type AdaptiveMetrics struct {
	// Corrections counts cache entries re-planned from an execution's
	// observed cardinalities (one per Result.Replans event).
	Corrections uint64
}

// AdaptiveMetrics returns the corrections accumulated across queries.
func (s *Store) AdaptiveMetrics() AdaptiveMetrics {
	return AdaptiveMetrics{Corrections: s.corrections.Load()}
}

// estSourceCounters tallies estimate provenance across built plans.
type estSourceCounters struct {
	cset, sketch, indep, extvp, obs atomic.Uint64
}

// record counts the estimating nodes (scans and joins) of one freshly
// built plan by the source that priced them.
func (e *estSourceCounters) record(p *plan.Plan) {
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		switch n.EstSource {
		case plan.EstCSet:
			e.cset.Add(1)
		case plan.EstSketch:
			e.sketch.Add(1)
		case plan.EstIndep:
			e.indep.Add(1)
		case plan.EstExtVP:
			e.extvp.Add(1)
		case plan.EstObserved:
			e.obs.Add(1)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
}

// EstSourceMetrics snapshots the estimate-provenance counters: how many
// scan/join estimates across all built plans came from characteristic
// sets, pair sketches, or the independence fallback. /stats and the
// ablation harness read them to attribute estimator coverage.
type EstSourceMetrics struct {
	// CSet counts nodes priced from characteristic sets.
	CSet uint64
	// Sketch counts nodes priced from pair join sketches.
	Sketch uint64
	// Indep counts nodes priced by the independence assumption (the
	// fallback when no sketch or cset applies).
	Indep uint64
	// ExtVP counts scans rewritten to materialized semi-join
	// reductions (their estimate is the reduction's exact row count).
	ExtVP uint64
	// Observed counts scans seeded from a previous execution's recorded
	// cardinality of the same (predicate, constant) subpattern.
	Observed uint64
}

// EstSourceMetrics returns the per-source estimate counters.
func (s *Store) EstSourceMetrics() EstSourceMetrics {
	return EstSourceMetrics{
		CSet:     s.estSources.cset.Load(),
		Sketch:   s.estSources.sketch.Load(),
		Indep:    s.estSources.indep.Load(),
		ExtVP:    s.estSources.extvp.Load(),
		Observed: s.estSources.obs.Load(),
	}
}

// LoadReport summarizes a loading run: Table 1's two columns plus
// breakdown detail.
type LoadReport struct {
	// Triples is the dataset size after deduplication.
	Triples int64
	// InputBytes is the N-Triples input volume.
	InputBytes int64
	// SizeBytes is the store's logical on-HDFS size (Table 1 "Size").
	SizeBytes int64
	// LoadTime is the simulated loading duration (Table 1 "Time").
	LoadTime time.Duration
	// WallTime is the real time the simulation took.
	WallTime time.Duration
	// VPTables is the number of Vertical Partitioning tables created.
	VPTables int
	// PTColumns is the number of Property Table columns (predicates).
	PTColumns int
	// Retained is what the store holds in memory once loaded, by part.
	Retained RetainedBytes
}

// RetainedBytes is what a store retains in memory, by part, in bytes
// read off its structures' capacities; a map counts each entry at its
// key and value, without the map's own overhead. InversePT is zero
// when the store has none.
type RetainedBytes struct {
	Dictionary                        rdf.DictionarySize
	Triples, VP, PT, InversePT, Stats int64
}

// Total is the sum of the parts.
func (r RetainedBytes) Total() int64 {
	return r.Dictionary.Total() + r.Triples + r.VP + r.PT + r.InversePT + r.Stats
}

// retained measures what s holds once loaded.
func (s *Store) retained() RetainedBytes {
	r := RetainedBytes{
		Dictionary: s.dict.Retained(),
		Triples:    int64(cap(s.triples)) * int64(unsafe.Sizeof(rdf.EncodedTriple{})),
		PT:         s.pt.retainedBytes(),
		Stats:      s.stats.RetainedBytes(),
	}
	if s.ipt != nil {
		r.InversePT = s.ipt.retainedBytes()
	}
	const id = int64(unsafe.Sizeof(rdf.ID(0)))
	for _, t := range s.vp {
		r.VP += id + int64(unsafe.Sizeof(t)+unsafe.Sizeof(*t)+unsafe.Sizeof(*t.Rel))
		for _, part := range t.Rel.Parts() {
			r.VP += int64(unsafe.Sizeof(part)) + int64(cap(part.IDs()))*id
		}
	}
	return r
}

// Dictionary exposes the store's term dictionary (used by result
// decoding and the benchmark harness).
func (s *Store) Dictionary() *rdf.Dictionary { return s.dict }

// Stats exposes the loader-time statistics.
func (s *Store) Stats() *stats.Collection { return s.stats }

// LoadReport returns the loading summary.
func (s *Store) LoadReport() LoadReport { return s.load }

// Cluster returns the cluster the store lives on.
func (s *Store) Cluster() *cluster.Cluster { return s.cluster }

// FS returns the simulated HDFS instance holding the store's files.
func (s *Store) FS() *hdfs.FS { return s.fs }

// Partitions returns the store's table partition count.
func (s *Store) Partitions() int { return s.parts }

// VPTable returns the vertical partitioning table for a predicate ID,
// or nil when the predicate does not occur in the data.
func (s *Store) VPTable(pred rdf.ID) *VPTable { return s.vp[pred] }

// PropertyTable returns the subject-keyed property table.
func (s *Store) PropertyTable() *PropertyTable { return s.pt }

// InversePropertyTable returns the object-keyed property table, or nil
// if the store was loaded without BuildInversePT.
func (s *Store) InversePropertyTable() *PropertyTable { return s.ipt }

// Load builds a PRoST store from an in-memory graph. It is LoadNTriples
// with the parsing already done: the two share every step below the
// source of the triples.
func Load(g *rdf.Graph, opts Options) (*Store, error) {
	return load(opts, &graphSource{triples: g.Triples()})
}

// LoadNTriples loads an N-Triples document from r in one streaming
// pass: each window of lines is parsed into a batch whose terms go from
// the batch's buffer straight into the dictionary, and the document is
// never held as a whole, as strings or as terms.
//
// The pass is reader → intern → dedup → statistics → VP → PT, each
// phase charged to a virtual clock whose total becomes
// LoadReport.LoadTime: the input scan is priced on the bytes and rows
// read (duplicates included), dictionary encoding per row read,
// statistics per distinct triple (twice with join statistics), and the
// table builds on what they shuffle and write. On the real clock two
// pairs of phases overlap: the next window is parsed while the current
// one is interned, and the statistics are collected while the tables
// are built.
func LoadNTriples(r io.Reader, opts Options) (*Store, error) {
	return load(opts, &textSource{r: rdf.NewNTriplesReader(r), size: readerSize(r)})
}

// readerSize returns how many bytes are left to read from r when r can
// tell — a *bytes.Reader its unread length, a regular *os.File its size
// past its offset — and -1 when it cannot.
func readerSize(r io.Reader) int64 {
	switch r := r.(type) {
	case *bytes.Reader:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return fi.Size() - off
	}
	return -1
}

// source is an input ingest reads window by window, through two slots:
// while the window in one slot is interned, the next is read into the
// other.
type source interface {
	// read reads the input's next window into slot, and returns io.EOF
	// once the input is spent.
	read(slot int) error
	// encode interns the triples of the window in slot, in input order,
	// appends them to out and returns it with their priced bytes.
	encode(slot int, d *rdf.Dictionary, out []rdf.EncodedTriple) ([]rdf.EncodedTriple, int64, error)
	// expected is how many triples the input holds, as far as the first
	// window (in slot 0) tells: 0 when it cannot tell.
	expected() int
}

// graphSource is a graph's triples, one window of them all.
type graphSource struct {
	triples []rdf.Triple
	done    bool
}

func (g *graphSource) read(int) error {
	if g.done {
		return io.EOF
	}
	g.done = true
	return nil
}

func (g *graphSource) expected() int { return len(g.triples) }

func (g *graphSource) encode(_ int, d *rdf.Dictionary, out []rdf.EncodedTriple) ([]rdf.EncodedTriple, int64, error) {
	var priced int64
	for i, t := range g.triples {
		et, err := d.EncodeTriple(t)
		if err != nil {
			return out, priced, fmt.Errorf("core: interning triple %d: %w", i+1, err)
		}
		out = append(out, et)
		priced += ntriplesBytes(len(t.S.Value), len(t.P.Value), len(t.O.Value), len(t.O.Datatype), len(t.O.Lang))
	}
	return out, priced, nil
}

// textSource is an N-Triples document, one parsed window per slot, and
// its size in bytes when the reader tells it (-1 otherwise).
type textSource struct {
	r     *rdf.NTriplesReader
	batch [2]rdf.Batch
	size  int64
}

// expected extrapolates the document's triple count from its size and
// the first window's bytes per triple, plus a sixteenth: a window is
// some 500 WatDiv lines, whose mean length is within 1 % of the
// document's.
func (t *textSource) expected() int {
	b := &t.batch[0]
	if t.size <= 0 || b.Len() == 0 {
		return 0
	}
	n := t.size * int64(b.Len()) / int64(b.Size())
	return int(n + n/16)
}

func (t *textSource) read(slot int) error {
	if err := t.r.ReadBatch(&t.batch[slot]); err != nil {
		if err != io.EOF {
			err = fmt.Errorf("core: parsing input: %w", err)
		}
		return err
	}
	return nil
}

func (t *textSource) encode(slot int, d *rdf.Dictionary, out []rdf.EncodedTriple) ([]rdf.EncodedTriple, int64, error) {
	b := &t.batch[slot]
	var priced int64
	for i := range b.Len() {
		s, p, o := b.Triple(i)
		// Interned in S, P, O order, duplicates included: dictionary IDs
		// drive hash placement and the LIMIT total order. No term of a
		// line the reader accepts is over the dictionary's limit.
		si, serr := d.EncodeBytes(s)
		pi, perr := d.EncodeBytes(p)
		oi, oerr := d.EncodeBytes(o)
		if err := cmp.Or(serr, perr, oerr); err != nil {
			return out, priced, fmt.Errorf("core: interning: %w", err)
		}
		out = append(out, rdf.EncodedTriple{S: si, P: pi, O: oi})
		priced += ntriplesBytes(len(s.Value), len(p.Value), len(o.Value), len(o.Datatype), len(o.Lang))
	}
	return out, priced, nil
}

// ntriplesBytes is the input volume one triple is priced at: its terms'
// text plus the line's punctuation.
func ntriplesBytes(s, p, o, datatype, lang int) int64 {
	return int64(s + p + o + datatype + lang + 12)
}

// load is the one loader: it ingests in and builds the store.
func load(opts Options, in source) (*Store, error) {
	if opts.Cluster == nil {
		return nil, fmt.Errorf("core: Options.Cluster is required")
	}
	if opts.FS == nil {
		fs, err := hdfs.New(hdfs.Config{DataNodes: opts.Cluster.Workers() + 1})
		if err != nil {
			return nil, fmt.Errorf("core: creating HDFS: %w", err)
		}
		opts.FS = fs
	}
	if opts.PathPrefix == "" {
		opts.PathPrefix = "/prost"
	}
	parts := opts.Cluster.DefaultPartitions()

	start := time.Now()
	clock := cluster.NewClock()
	// Every loader is one submitted Spark (or bulk-ingest) application.
	clock.Charge("job submit", opts.Cluster.Config().Cost.RDDSubmit)
	s := &Store{
		opts:      opts,
		cluster:   opts.Cluster,
		fs:        opts.FS,
		dict:      rdf.NewDictionary(),
		parts:     parts,
		vp:        make(map[rdf.ID]*VPTable),
		planCache: newPlanCache(planCacheSize),
	}

	// Phases 1 and 2, one pass: read + parse the input, dictionary-encode
	// and deduplicate. Both are priced on what was read, not what was
	// kept.
	if err := s.ingest(in); err != nil {
		return nil, err
	}
	if err := s.ChargeInputScan(clock, s.cluster.Config().Cost.SQLStageLaunch); err != nil {
		return nil, err
	}
	clock.Charge("dictionary encode", time.Duration(s.rowsRead)*s.cluster.Config().Cost.RowTime)

	// Phase 3: statistics (paper §3.3 — "without any significant
	// overhead": one extra pass). Join-graph statistics (characteristic
	// sets + pair sketches) ride the same subject-grouped layout the
	// Property Table build needs and cost one more pass over the rows.
	// Both are priced on the distinct triples alone, so they are
	// charged here, before the table builds, whenever they run.
	statsTime := time.Duration(len(s.triples)) * s.cluster.Config().Cost.RowTime
	clock.Charge("statistics", statsTime)
	if !opts.DisableJoinStats {
		clock.Charge("join statistics", statsTime)
	}

	if opts.ExtVPBudget > 0 {
		s.workload = workload.New(workload.Config{
			BudgetBytes: opts.ExtVPBudget,
			BuildAfter:  opts.ExtVPBuildAfter,
			Builder:     s.buildExtVPTable,
		})
	}

	// The statistics are collected (task 1) while the tables are built
	// (task 0): no table build reads them, and both only read the
	// triples and the dictionary. On one processor the tasks run one
	// after the other.
	s.predOrder = predicatesByIRI(s.dict, s.triples)
	var st *stats.Collection
	err := cluster.Run(runtime.GOMAXPROCS(0), 2, new(cluster.Tasks), cluster.Func(func(_, task int) error {
		switch {
		case task == 0:
			return s.buildTables(clock)
		case opts.DisableJoinStats:
			st = stats.Collect(s.triples)
		default:
			st = stats.CollectJoinStats(s.triples, stats.Config{CSets: true})
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	s.stats = st

	s.load = LoadReport{
		Triples:    int64(len(s.triples)),
		InputBytes: s.inputBytes,
		SizeBytes:  s.fs.LogicalBytes(opts.PathPrefix + "/"),
		LoadTime:   clock.Elapsed(),
		WallTime:   time.Since(start),
		VPTables:   len(s.vp),
		PTColumns:  len(s.pt.cols),
		Retained:   s.retained(),
	}
	return s, nil
}

// buildTables builds the VP tables, the Property Table and, if asked
// for, the inverse Property Table, charging each to clock. Their sizing
// runs share one term sizer per worker slot, taken at the slot's first
// file and put back once the last table is sized.
func (s *Store) buildTables(clock *cluster.Clock) error {
	sizers := make(termSizers, runtime.GOMAXPROCS(0))
	defer sizers.put()

	// Phase 4: Vertical Partitioning tables.
	if err := s.buildVP(clock, sizers); err != nil {
		return fmt.Errorf("core: building VP tables: %w", err)
	}

	// Phase 5: Property Table (subject-partitioned; paper §3.1).
	pt, err := buildPropertyTable(s, clock, keyOnSubject, sizers)
	if err != nil {
		return fmt.Errorf("core: building property table: %w", err)
	}
	s.pt = pt

	// Phase 6 (optional): inverse Property Table keyed on objects.
	if s.opts.BuildInversePT {
		ipt, err := buildPropertyTable(s, clock, keyOnObject, sizers)
		if err != nil {
			return fmt.Errorf("core: building inverse property table: %w", err)
		}
		s.ipt = ipt
	}
	return nil
}

// ingest reads in into s.triples, dropping duplicate triples, and
// records the priced input volume and the number of triples read.
//
// Each step is one two-task run: task 0 interns and dedups the window in
// one slot, in input order — IDs are handed out in the order terms are
// first seen, so interning stays sequential — while task 1 reads and
// parses the next window into the other slot.
func (s *Store) ingest(in source) error {
	err := in.read(0)
	n := in.expected()
	g := &ingester{
		s:    s,
		in:   in,
		set:  make([]int32, max(1<<bits.Len(uint(2*n)), 1024)),
		kept: make([]rdf.EncodedTriple, 0, max(n, 1024)),
	}
	for ; err == nil; g.slot ^= 1 {
		if err = cluster.Run(runtime.GOMAXPROCS(0), 2, new(cluster.Tasks), g); err == nil {
			err = g.next
		}
	}
	if err != io.EOF {
		return err
	}
	s.triples = g.kept
	if len(g.kept) < cap(g.kept) {
		// The table holds exactly the triples kept: what an estimate
		// overshot, or the duplicates dropped, is trimmed by a copy.
		s.triples = append(make([]rdf.EncodedTriple, 0, len(g.kept)), g.kept...)
	}
	return nil
}

// ingester is ingest's step, a cluster.Job, and what it keeps across
// steps.
//
// Kept triples are appended to one slice, and duplicates found through
// an open-addressed set of indexes into it, at most half full; a triple
// is kept at its first occurrence. Both are sized once, for the triples
// the source expects, when it expects any; otherwise they double as
// they fill. The set dies with the ingest, so it is not live while the
// tables are built.
type ingester struct {
	s  *Store
	in source
	// slot holds the window task 0 interns; next is what task 1's read
	// of the other slot returned.
	slot int
	next error
	// window is the current window's triples, encoded.
	window []rdf.EncodedTriple
	kept   []rdf.EncodedTriple
	set    []int32 // index+1 of a kept triple; 0 is empty
}

// Task implements cluster.Job.
func (g *ingester) Task(_, task int) error {
	if task == 1 {
		g.next = g.in.read(g.slot ^ 1)
		return nil
	}
	var priced int64
	var err error
	g.window, priced, err = g.in.encode(g.slot, g.s.dict, g.window[:0])
	if err != nil {
		return err
	}
	g.s.inputBytes += priced
	g.s.rowsRead += len(g.window)
	for _, et := range g.window {
		g.keep(et)
	}
	return nil
}

// keep adds et to the kept triples unless it is a duplicate.
func (g *ingester) keep(et rdf.EncodedTriple) {
	mask := len(g.set) - 1
	slot := tripleHash(et) & mask
	for g.set[slot] != 0 && g.kept[g.set[slot]-1] != et {
		slot = (slot + 1) & mask
	}
	if g.set[slot] != 0 {
		return
	}
	g.kept = append(g.kept, et)
	g.set[slot] = int32(len(g.kept))
	if 2*len(g.kept) > len(g.set) {
		g.set = make([]int32, 2*len(g.set))
		mask = len(g.set) - 1
		for i, t := range g.kept {
			slot := tripleHash(t) & mask
			for g.set[slot] != 0 {
				slot = (slot + 1) & mask
			}
			g.set[slot] = int32(i + 1)
		}
	}
}

// tripleHash places an encoded triple in ingest's dedup set.
func tripleHash(t rdf.EncodedTriple) int {
	h := (uint64(t.S)<<32 | uint64(t.P)) * 0x9e3779b97f4a7c15
	h = (h ^ uint64(t.O)) * 0xff51afd7ed558ccd
	return int(h >> 32)
}

// Triples returns the deduplicated encoded dataset in input order. The
// slice is the store's own: callers must not modify it.
func (s *Store) Triples() []rdf.EncodedTriple { return s.triples }

// ChargeInputScan prices one distributed read + parse of the store's
// input file — the bytes and triples (duplicates included) its load
// read — with the given stage launch overhead. PRoST's load pays it;
// so does each baseline loading the same file.
func (s *Store) ChargeInputScan(clock *cluster.Clock, launch time.Duration) error {
	perPart := s.inputBytes / int64(s.parts)
	rowsPerPart := int64(s.rowsRead) / int64(s.parts)
	return s.cluster.RunStage(clock, launch, "read input", s.parts, func(p int) (cluster.TaskStats, error) {
		return cluster.TaskStats{DiskBytes: perPart, Rows: rowsPerPart}, nil
	})
}

// predicatesByIRI returns the distinct predicates of triples ordered by
// IRI.
func predicatesByIRI(dict *rdf.Dictionary, triples []rdf.EncodedTriple) []rdf.ID {
	seen := make([]uint64, dict.Len()/64+1) // bit i: ID i is a predicate
	var out []rdf.ID
	for _, t := range triples {
		if w, b := t.P/64, uint64(1)<<(t.P%64); seen[w]&b == 0 {
			seen[w] |= b
			out = append(out, t.P)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return dict.Term(out[i]).Value < dict.Term(out[j]).Value
	})
	return out
}
