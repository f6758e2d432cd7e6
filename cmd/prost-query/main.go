// Command prost-query loads an N-Triples dataset into PRoST and runs a
// SPARQL query against it, printing the result rows and, with -explain,
// the physical plan (per-node estimated vs actual cardinalities plus a
// one-line estimation-error summary), the Join Tree the translator
// produced, and the per-stage execution trace with simulated cluster
// times.
//
// Usage:
//
//	prost-query -in dataset.nt -q 'SELECT ?s WHERE { ?s <http://…> ?o . }'
//	prost-query -in dataset.nt -f query.sparql -strategy vp-only -explain
//	prost-query -in dataset.nt -f query.sparql -planner heuristic -explain
//	prost-query -in dataset.nt -f query.sparql -streaming
//
// With -streaming the query executes through the morsel-driven
// pipelines over columnar chunks and the summary additionally reports
// first-row latency and the peak intermediate-memory footprint.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/cmd/internal/cliflag"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// options is the parsed command line.
type options struct {
	in, queryText, queryFile string
	explain                  bool
	maxRows                  int
	extvpBudget              int64
	cluster                  cluster.Config
	query                    core.QueryOptions
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input N-Triples file (required)")
	flag.StringVar(&o.queryText, "q", "", "SPARQL query text")
	flag.StringVar(&o.queryFile, "f", "", "file containing the SPARQL query")
	flag.BoolVar(&o.explain, "explain", false, "print the physical plan (with estimated vs actual cardinalities), the correction the execution made, the Join Tree and the stage trace")
	flag.IntVar(&o.maxRows, "max-rows", 20, "result rows to print (0 = all)")
	flag.Int64Var(&o.extvpBudget, "extvp-budget", 0, "byte budget for workload-driven ExtVP semi-join tables; the query runs once to mine and build them, then the measured run may rewrite onto them (0 = subsystem off)")
	clusterCfg := cliflag.Cluster(flag.CommandLine)
	query := cliflag.Query(flag.CommandLine)
	flag.Parse()

	o.cluster = clusterCfg()
	var err error
	if o.query, err = query(); err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prost-query:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.in == "" {
		return fmt.Errorf("-in is required")
	}
	queryText := o.queryText
	if queryText == "" && o.queryFile == "" {
		return fmt.Errorf("one of -q or -f is required")
	}
	if queryText == "" {
		b, err := os.ReadFile(o.queryFile)
		if err != nil {
			return err
		}
		queryText = string(b)
	}
	opts := o.query
	q, err := sparql.Parse(queryText)
	if err != nil {
		return err
	}

	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := cluster.New(o.cluster)
	if err != nil {
		return err
	}
	store, err := core.LoadNTriples(f, core.Options{
		Cluster:         c,
		BuildInversePT:  opts.Strategy == core.StrategyMixedIPT,
		ExtVPBudget:     o.extvpBudget,
		ExtVPBuildAfter: 1,
	})
	if err != nil {
		return err
	}

	if o.extvpBudget > 0 {
		// Priming run: it mines the query's join pairs and builds their
		// reductions before it returns.
		if _, err := store.Query(q, opts); err != nil {
			return err
		}
	}
	res, ids, err := store.QueryIDs(context.Background(), q, opts)
	if err != nil {
		return err
	}

	fmt.Printf("%s\n", strings.Join(res.Vars, "\t"))
	writeRows(os.Stdout, ids, res.Ordered, o.maxRows)
	fmt.Printf("\n%d rows; simulated cluster time %v (wall %v, strategy %s)\n",
		ids.Len(), res.SimTime, res.WallTime, opts.Strategy)
	if res.Streamed {
		fmt.Printf("streamed over morsel pipelines: first row at %v; peak intermediate footprint %d B\n",
			res.FirstRow, res.PeakMemBytes)
	} else if res.StreamingDowngraded {
		fmt.Println("streaming requested but downgraded to materialized execution (no morsel path for this configuration)")
	}
	if o.explain {
		fmt.Println()
		fmt.Print(res.Plan.String())
		fmt.Println(res.Plan.ErrorSummary())
		if adaptive := res.ReplanSummary(); adaptive != "" {
			fmt.Print(adaptive)
		}
		if rs := res.Resilience.String(); rs != "" {
			fmt.Print(rs)
		}
		// Estimator provenance: why a node's est-source says what it
		// says. Coverage below 100% means some predicate pairs were
		// trimmed by the top-K bound and price as est-source=indep.
		if js, ok := store.Stats().JoinStatsSummary(); ok {
			fmt.Printf("join statistics: %d characteristic sets, %d/%d pair sketches kept (top-%d, %.1f%% of join volume, ~%d bytes)\n",
				js.CSets, js.SketchPairs, js.CandidatePairs, js.TopK, 100*js.VolumeCoverage, js.MemoryBytes)
			if js.VolumeCoverage < 1 {
				fmt.Println("  (est-source=indep on a sketchable pair means it fell outside the kept top-K)")
			}
		} else {
			fmt.Println("join statistics: disabled (independence estimator everywhere)")
		}
		if wl := store.Workload(); wl != nil {
			met := store.WorkloadMetrics()
			fmt.Printf("\nworkload model: %d pairs tracked; %d reductions live of %d built (%d B of %d B budget, %d evicted, %d scan hits)\n",
				met.PairsTracked, met.TablesLive, met.TablesBuilt, met.TableBytes, met.BudgetBytes, met.TablesEvicted, met.HitCount)
			dict := store.Dictionary()
			name := func(id uint64) string {
				v := dict.Term(rdf.ID(id)).Value
				if i := strings.LastIndexAny(v, "/#"); i >= 0 && i+1 < len(v) {
					return v[i+1:]
				}
				return v
			}
			pairs := wl.Pairs()
			const maxPairs = 8
			for i, p := range pairs {
				if i >= maxPairs {
					fmt.Printf("  … (%d more pairs)\n", len(pairs)-maxPairs)
					break
				}
				state := "pending"
				if p.Built {
					state = "built"
				}
				fmt.Printf("  candidate %s joined with %s at %s: %d hits, %d rows executed join volume (%s)\n",
					name(p.P1), name(p.P2), p.Pos, p.Hits, p.Volume, state)
			}
			if rw := res.Plan.RewriteSummary(); rw != "" {
				fmt.Print(rw)
			}
		}
		fmt.Println("\nJoin Tree:")
		fmt.Print(res.Tree.String())
		fmt.Println("\nStage trace:")
		fmt.Print(res.Clock.Trace())
	}
	return nil
}

// writeRows prints the first maxRows result rows (all when maxRows is
// 0) in the display order /sparql writes — ORDER BY results as the query
// ordered them (re-sorting would undo DESC keys), the rest sorted — as
// tab-separated N-Triples terms, then how many rows it left out. Only
// the rows printed of an ordered result are decoded.
func writeRows(w io.Writer, ids core.IDRows, ordered bool, maxRows int) {
	var rows core.DisplayRows
	rows.Decode(ids, ordered, maxRows)
	var line []byte
	for i := range rows.Len() {
		line = line[:0]
		for j, t := range rows.Row(i) {
			if j > 0 {
				line = append(line, '\t')
			}
			if t != (rdf.Term{}) { // an unbound OPTIONAL cell stays empty, not "<>"
				line = t.AppendNTriples(line)
			}
		}
		line = append(line, '\n')
		w.Write(line)
	}
	if left := ids.Len() - rows.Len(); left > 0 {
		fmt.Fprintf(w, "… (%d more rows)\n", left)
	}
}
