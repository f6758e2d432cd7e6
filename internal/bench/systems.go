// Package bench is the experiment harness: it loads one WatDiv dataset
// into all four systems (PRoST, S2RDF, SPARQLGX, Rya), runs the basic
// query set, and regenerates the paper's evaluation artifacts — Table 1
// (loading size and time), Figure 2 (VP-only vs the mixed strategy),
// Figure 3 (per-query comparison of the four systems) and Table 2
// (average querying time per query family) — plus the ablations and the
// future-work extension experiment called out in DESIGN.md.
//
// The four systems are configurations of one engine. PRoST ingests the
// dataset once; S2RDF, SPARQLGX and Rya build their stores from that
// ingest, and what each keeps of its own is its storage layout and size
// accounting (Table 1), its join-order rule and its pricing — the
// quantities the comparison is about (internal/baselines).
package bench

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/baselines/rya"
	"repro/internal/baselines/s2rdf"
	"repro/internal/baselines/sparqlgx"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hdfs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// System names in the paper's presentation order.
const (
	SysPRoST    = "PRoST"
	SysS2RDF    = "S2RDF"
	SysRya      = "Rya"
	SysSPARQLGX = "SPARQLGX"
)

// SystemNames returns the four systems in presentation order.
func SystemNames() []string {
	return []string{SysPRoST, SysS2RDF, SysRya, SysSPARQLGX}
}

// Systems bundles the four loaded stores over one shared cluster,
// filesystem and dictionary (PRoST's).
type Systems struct {
	Cluster *cluster.Cluster
	FS      *hdfs.FS

	PRoST    *core.Store
	S2RDF    *s2rdf.Store
	SPARQLGX *sparqlgx.Store
	Rya      *rya.Store

	// graph and inversePT let PRoSTIndep load on demand: only the
	// correction ablations need it, so other experiments never pay the
	// extra load.
	graph     *rdf.Graph
	inversePT bool

	extvpOnce sync.Once
	extvp     *core.Store
	extvpErr  error

	// BroadcastThreshold is the effective broadcast-join threshold for
	// the SQL systems, shrunk by the extrapolation factor so that a
	// table's broadcastability reflects its extrapolated size.
	BroadcastThreshold int64

	loads []LoadRow
}

// LoadRow is one system's Table 1 row.
type LoadRow struct {
	System    string
	SizeBytes int64
	LoadTime  time.Duration
}

// LoadOptions tunes LoadAll.
type LoadOptions struct {
	// Cluster to load on; DefaultConfig when nil. Ignored when
	// ExtrapolateTriples is set (a scaled cluster is built instead).
	Cluster *cluster.Cluster
	// InversePT additionally builds PRoST's object-keyed table for the
	// extension experiment.
	InversePT bool
	// ExtrapolateTriples, when positive, prices all data-proportional
	// costs (scan and shuffle bytes, per-row CPU, KV seeks) as if the
	// dataset had this many triples, while fixed costs (stage launches)
	// stay fixed. WatDiv query selectivities are fractions of the
	// dataset, so intermediate-result sizes scale roughly linearly and
	// the extrapolated times reproduce the paper's 100M-triple shape
	// from a laptop-sized dataset. Queries with scale-independent
	// result sizes (bound-subject lookups) are over-charged; see
	// EXPERIMENTS.md.
	ExtrapolateTriples int64
}

// LoadAll loads the graph into the four systems. PRoST ingests it —
// the one parse, dictionary, deduplication and statistics pass — and
// each baseline then builds and prices its own storage from that store,
// so every system shares one dictionary and reads the same input bytes.
func LoadAll(g *rdf.Graph, opts LoadOptions) (*Systems, error) {
	c := opts.Cluster
	if c == nil {
		c = cluster.MustNew(cluster.DefaultConfig())
	}
	bcast := int64(0) // 0 = engine default
	if opts.ExtrapolateTriples > 0 {
		factor := float64(opts.ExtrapolateTriples) / float64(g.Len())
		if factor < 1 {
			factor = 1
		}
		cfg := c.Config()
		cfg.Cost = scaleCostModel(cfg.Cost, factor)
		c = cluster.MustNew(cfg)
		bcast = int64(float64(engine.DefaultBroadcastThreshold) / factor)
		if bcast < 1 {
			bcast = 1
		}
	}
	fs, err := hdfs.New(hdfs.Config{DataNodes: c.Workers() + 1})
	if err != nil {
		return nil, err
	}
	sys := &Systems{Cluster: c, FS: fs, BroadcastThreshold: bcast, graph: g, inversePT: opts.InversePT}

	prost, err := core.Load(g, core.Options{Cluster: c, FS: fs, BuildInversePT: opts.InversePT})
	if err != nil {
		return nil, fmt.Errorf("bench: loading PRoST: %w", err)
	}
	sys.PRoST = prost
	sys.loads = append(sys.loads, LoadRow{SysPRoST, prost.LoadReport().SizeBytes, prost.LoadReport().LoadTime})

	s2, err := s2rdf.Load(prost, s2rdf.Options{BroadcastThreshold: bcast})
	if err != nil {
		return nil, fmt.Errorf("bench: loading S2RDF: %w", err)
	}
	sys.S2RDF = s2
	sys.loads = append(sys.loads, LoadRow{SysS2RDF, s2.LoadReport().SizeBytes, s2.LoadReport().LoadTime})

	gx, err := sparqlgx.Load(prost)
	if err != nil {
		return nil, fmt.Errorf("bench: loading SPARQLGX: %w", err)
	}
	sys.SPARQLGX = gx
	sys.loads = append(sys.loads, LoadRow{SysSPARQLGX, gx.LoadReport().SizeBytes, gx.LoadReport().LoadTime})

	ry, err := rya.Load(prost)
	if err != nil {
		return nil, fmt.Errorf("bench: loading Rya: %w", err)
	}
	sys.Rya = ry
	sys.loads = append(sys.loads, LoadRow{SysRya, ry.LoadReport().SizeBytes, ry.LoadReport().LoadTime})

	return sys, nil
}

// scaleCostModel multiplies the data-proportional cost rates by factor:
// throughputs shrink (same bytes are priced as factor× bytes) and
// per-unit costs grow; stage-launch overheads are unchanged.
func scaleCostModel(m cluster.CostModel, factor float64) cluster.CostModel {
	m.DiskBytesPerSec /= factor
	m.NetworkBytesPerSec /= factor
	m.KVScanBytesPerSec /= factor
	m.RowTime = time.Duration(float64(m.RowTime) * factor)
	m.SeekTime = time.Duration(float64(m.SeekTime) * factor)
	return m
}

// PRoSTIndep loads the same data once more without join-graph
// statistics (characteristic sets + pair sketches) — the pre-sketch
// independence-only estimator — on a file system and plan cache of its
// own, at every call: the correction ablations (A5, A6) start from a
// cold cache whatever ran before them.
func (s *Systems) PRoSTIndep() (*core.Store, error) {
	return core.Load(s.graph, core.Options{Cluster: s.Cluster, BuildInversePT: s.inversePT, DisableJoinStats: true})
}

// PRoSTExtVP returns the same data loaded with the workload model
// enabled under a generous byte budget (every hot pair is buildable)
// and an observation threshold of one, so the first query to execute a
// join builds that pair's reductions. The ExtVP ablation (A7)
// runs on it; other experiments never pay the extra load. Built
// lazily on first use, on the shared cluster and filesystem but under
// its own HDFS path prefix.
func (s *Systems) PRoSTExtVP() (*core.Store, error) {
	s.extvpOnce.Do(func() {
		s.extvp, s.extvpErr = core.Load(s.graph, core.Options{Cluster: s.Cluster, FS: s.FS,
			BuildInversePT: s.inversePT, PathPrefix: "/prost-extvp",
			ExtVPBudget: 1 << 30, ExtVPBuildAfter: 1})
	})
	return s.extvp, s.extvpErr
}

// Loads returns the Table 1 rows in load order.
func (s *Systems) Loads() []LoadRow {
	out := make([]LoadRow, len(s.loads))
	copy(out, s.loads)
	return out
}

// Outcome is one query execution's measurement.
type Outcome struct {
	System   string
	Query    string
	Rows     int
	SimTime  time.Duration
	WallTime time.Duration
}

// RunOn executes a parsed query on the named system.
func (s *Systems) RunOn(system string, q *sparql.Query) (Outcome, error) {
	out, _, err := s.run(system, q)
	return out, err
}

// run executes a parsed query on the named system and returns its
// measurement and its rows.
func (s *Systems) run(system string, q *sparql.Query) (Outcome, [][]rdf.Term, error) {
	var res *baselines.Result
	var err error
	switch system {
	case SysPRoST:
		// Paper figures measure the static plan (NoPlanCache): a cached
		// entry may be corrected by an earlier execution, which would make
		// later experiments' numbers depend on which experiment ran first.
		// Correction is measured by ablation A5, on a store of its own.
		r, err := s.PRoST.Query(q, core.QueryOptions{Strategy: core.StrategyMixed, BroadcastThreshold: s.BroadcastThreshold, NoPlanCache: true})
		if err != nil {
			return Outcome{}, nil, err
		}
		return Outcome{System: system, Query: q.Name, Rows: len(r.Rows), SimTime: r.SimTime, WallTime: r.WallTime}, r.Rows, nil
	case SysS2RDF:
		res, err = s.S2RDF.Query(q)
	case SysSPARQLGX:
		res, err = s.SPARQLGX.Query(q)
	case SysRya:
		res, err = s.Rya.Query(q)
	default:
		return Outcome{}, nil, fmt.Errorf("bench: unknown system %q", system)
	}
	if err != nil {
		return Outcome{}, nil, err
	}
	return Outcome{System: system, Query: q.Name, Rows: len(res.Rows), SimTime: res.SimTime, WallTime: res.WallTime}, res.Rows, nil
}

// VerifyAgreement runs every query on all four systems and returns an
// error when a baseline's rows, rendered and sorted, differ from
// PRoST's — the harness's cross-implementation correctness check.
func (s *Systems) VerifyAgreement(queries []watdiv.Query) error {
	for _, q := range queries {
		var want []string
		for _, name := range SystemNames() {
			_, rows, err := s.run(name, q.Parsed)
			if err != nil {
				return fmt.Errorf("bench: %s on %s: %w", q.Name, name, err)
			}
			got := renderRows(rows)
			if name == SysPRoST {
				want = got
				continue
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("bench: %s: %s returned %d rows, PRoST %d, and they differ", q.Name, name, len(got), len(want))
			}
		}
	}
	return nil
}

// renderRows renders each row in N-Triples term syntax and sorts them.
func renderRows(rows [][]rdf.Term) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b []byte
		for _, t := range r {
			b = append(t.AppendNTriples(b), ' ')
		}
		out[i] = string(b)
	}
	slices.Sort(out)
	return out
}
