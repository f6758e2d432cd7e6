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
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"

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
	rest := g.Triples()
	return load(opts, len(rest), func(d *rdf.Dictionary) (rdf.EncodedTriple, int64, error) {
		if len(rest) == 0 {
			return rdf.EncodedTriple{}, 0, io.EOF
		}
		t := rest[0]
		rest = rest[1:]
		return d.EncodeTriple(t), ntriplesBytes(len(t.S.Value), len(t.P.Value), len(t.O.Value), len(t.O.Datatype), len(t.O.Lang)), nil
	})
}

// LoadNTriples loads an N-Triples document from r in one streaming
// pass: each line's terms go from the reader's buffer straight into the
// dictionary, and the document is never held as text, strings or terms.
//
// The pass is reader → intern → dedup → statistics → VP → PT, each
// phase charged to a virtual clock whose total becomes
// LoadReport.LoadTime: the input scan is priced on the bytes and rows
// read (duplicates included), dictionary encoding per row read,
// statistics per distinct triple (twice with join statistics), and the
// table builds on what they shuffle and write.
func LoadNTriples(r io.Reader, opts Options) (*Store, error) {
	nr := rdf.NewNTriplesReader(r)
	return load(opts, 0, func(d *rdf.Dictionary) (rdf.EncodedTriple, int64, error) {
		s, p, o, err := nr.ReadBytes()
		if err != nil {
			if err != io.EOF {
				err = fmt.Errorf("core: parsing input: %w", err)
			}
			return rdf.EncodedTriple{}, 0, err
		}
		// Interned in S, P, O order, duplicates included: dictionary IDs
		// drive hash placement and the LIMIT total order.
		et := rdf.EncodedTriple{S: d.EncodeBytes(s), P: d.EncodeBytes(p), O: d.EncodeBytes(o)}
		return et, ntriplesBytes(len(s.Value), len(p.Value), len(o.Value), len(o.Datatype), len(o.Lang)), nil
	})
}

// ntriplesBytes is the input volume one triple is priced at: its terms'
// text plus the line's punctuation.
func ntriplesBytes(s, p, o, datatype, lang int) int64 {
	return int64(s + p + o + datatype + lang + 12)
}

// load is the one loader. next interns the input's next triple into the
// store's dictionary and returns it with its priced bytes, io.EOF at the
// end; sizeHint is the number of triples to expect, when known.
func load(opts Options, sizeHint int, next func(*rdf.Dictionary) (rdf.EncodedTriple, int64, error)) (*Store, error) {
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
	if err := s.ingest(sizeHint, next); err != nil {
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
	if opts.DisableJoinStats {
		s.stats = stats.Collect(s.triples)
		clock.Charge("statistics", time.Duration(len(s.triples))*s.cluster.Config().Cost.RowTime)
	} else {
		s.stats = stats.CollectJoinStats(s.triples, stats.Config{CSets: true})
		clock.Charge("statistics", time.Duration(len(s.triples))*s.cluster.Config().Cost.RowTime)
		clock.Charge("join statistics", time.Duration(len(s.triples))*s.cluster.Config().Cost.RowTime)
	}

	if opts.ExtVPBudget > 0 {
		s.workload = workload.New(workload.Config{
			BudgetBytes: opts.ExtVPBudget,
			BuildAfter:  opts.ExtVPBuildAfter,
			Builder:     s.buildExtVPTable,
		})
	}

	// Phase 4: Vertical Partitioning tables.
	if err := s.buildVP(clock); err != nil {
		return nil, fmt.Errorf("core: building VP tables: %w", err)
	}

	// Phase 5: Property Table (subject-partitioned; paper §3.1).
	pt, err := buildPropertyTable(s, clock, keyOnSubject)
	if err != nil {
		return nil, fmt.Errorf("core: building property table: %w", err)
	}
	s.pt = pt

	// Phase 6 (optional): inverse Property Table keyed on objects.
	if opts.BuildInversePT {
		ipt, err := buildPropertyTable(s, clock, keyOnObject)
		if err != nil {
			return nil, fmt.Errorf("core: building inverse property table: %w", err)
		}
		s.ipt = ipt
	}

	s.load = LoadReport{
		Triples:    int64(len(s.triples)),
		InputBytes: s.inputBytes,
		SizeBytes:  s.fs.LogicalBytes(opts.PathPrefix + "/"),
		LoadTime:   clock.Elapsed(),
		WallTime:   time.Since(start),
		VPTables:   len(s.vp),
		PTColumns:  len(s.pt.cols),
	}
	return s, nil
}

// ingest drains next into s.triples, dropping duplicate triples, and
// records the priced input volume and the number of triples read.
//
// Kept triples grow in fixed-size chunks, so none is ever copied while
// reading, and are copied once, in input order, into a slice of exactly
// their number. Duplicates are found through an open-addressed set of
// indexes into the kept triples, at most half full; a triple is kept at
// its first occurrence. Chunks and set die with the call, so neither is
// live while the tables are built.
func (s *Store) ingest(sizeHint int, next func(*rdf.Dictionary) (rdf.EncodedTriple, int64, error)) error {
	var chunks [][]rdf.EncodedTriple
	kept := func(i int32) rdf.EncodedTriple { return chunks[i/ingestChunk][i%ingestChunk] }
	set := make([]int32, max(1<<bits.Len(uint(2*sizeHint)), 1024)) // index+1 of a kept triple; 0 is empty
	n := int32(0)
	for {
		et, priced, err := next(s.dict)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		s.inputBytes += priced
		s.rowsRead++
		mask := len(set) - 1
		slot := tripleHash(et) & mask
		for set[slot] != 0 && kept(set[slot]-1) != et {
			slot = (slot + 1) & mask
		}
		if set[slot] != 0 {
			continue
		}
		if n%ingestChunk == 0 {
			chunks = append(chunks, make([]rdf.EncodedTriple, 0, ingestChunk))
		}
		c := &chunks[len(chunks)-1]
		*c = append(*c, et)
		n++
		set[slot] = n
		if 2*int(n) > len(set) {
			set = make([]int32, 2*len(set))
			for i := int32(0); i < n; i++ {
				slot := tripleHash(kept(i)) & (len(set) - 1)
				for set[slot] != 0 {
					slot = (slot + 1) & (len(set) - 1)
				}
				set[slot] = i + 1
			}
		}
	}
	s.triples = make([]rdf.EncodedTriple, 0, n)
	for _, c := range chunks {
		s.triples = append(s.triples, c...)
	}
	return nil
}

// ingestChunk is how many triples one chunk of ingest's kept triples
// holds (96 KiB of them).
const ingestChunk = 8192

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

// sortedPredicates returns the dataset's predicate IDs ordered by IRI.
func sortedPredicates(dict *rdf.Dictionary, st *stats.Collection) []rdf.ID {
	out := make([]rdf.ID, 0, len(st.ByPredicate))
	for p := range st.ByPredicate {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return dict.Term(out[i]).Value < dict.Term(out[j]).Value
	})
	return out
}
