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
//	prost-query -in dataset.nt -f query.sparql -streaming -chunk-size 1024
//
// With -streaming the query executes through the morsel-driven
// pipelines over columnar chunks and the summary additionally reports
// first-row latency and the peak intermediate-memory footprint.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cmd/internal/cliflag"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func main() {
	in := flag.String("in", "", "input N-Triples file (required)")
	queryText := flag.String("q", "", "SPARQL query text")
	queryFile := flag.String("f", "", "file containing the SPARQL query")
	strategy := flag.String("strategy", "mixed", "query strategy: "+strings.Join(core.StrategyNames(), ", "))
	planner := flag.String("planner", "cost", "planner mode: "+strings.Join(plan.ModeNames(), ", "))
	workers := flag.Int("workers", 9, "simulated worker machines")
	streaming := flag.Bool("streaming", false, "execute through the morsel-driven streaming pipelines instead of materialized stages")
	chunkSize := flag.Int("chunk-size", 0, "streaming rows-per-chunk granularity (0 = default)")
	explain := flag.Bool("explain", false, "print the physical plan (with estimated vs actual cardinalities), re-plan events, the Join Tree and the stage trace")
	maxRows := flag.Int("max-rows", 20, "result rows to print (0 = all)")
	replan := flag.Float64("replan-threshold", 0, "adaptive re-planning trigger: estimation-error factor that pauses and re-plans the remainder (0 = default 8, negative = disabled)")
	sketches := flag.Int("stats-sketches", 0, "top-K two-predicate join sketches collected at load time (0 = default 512, negative = disable join-graph statistics entirely)")
	extvpBudget := flag.Int64("extvp-budget", 0, "byte budget for workload-driven ExtVP semi-join tables; the query runs once to mine and build them, then the measured run may rewrite onto them (0 = subsystem off)")
	faults := cliflag.FaultPlan(flag.CommandLine)
	flag.Parse()

	if err := run(*in, *queryText, *queryFile, *strategy, *planner, *workers, *streaming, *chunkSize, *explain, *maxRows, *replan, *sketches, *extvpBudget, faults()); err != nil {
		fmt.Fprintln(os.Stderr, "prost-query:", err)
		os.Exit(1)
	}
}

func run(in, queryText, queryFile, strategy, planner string, workers int, streaming bool, chunkSize int, explain bool, maxRows int, replan float64, sketches int, extvpBudget int64, faults *cluster.FaultPlan) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	if queryText == "" && queryFile == "" {
		return fmt.Errorf("one of -q or -f is required")
	}
	if queryText == "" {
		b, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		queryText = string(b)
	}
	strat, err := core.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	mode, err := plan.ParseMode(planner)
	if err != nil {
		return err
	}

	q, err := sparql.Parse(queryText)
	if err != nil {
		return err
	}

	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	cfg := cluster.DefaultConfig()
	cfg.Workers = workers
	cfg.DefaultPartitions = 2 * workers
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	store, err := core.LoadNTriples(f, core.Options{
		Cluster:          c,
		BuildInversePT:   strat == core.StrategyMixedIPT,
		SketchTopK:       max(sketches, 0),
		DisableJoinStats: sketches < 0,
		ExtVPBudget:      extvpBudget,
		ExtVPBuildAfter:  1,
	})
	if err != nil {
		return err
	}

	opts := core.QueryOptions{Strategy: strat, Planner: mode, ReplanThreshold: replan,
		Faults: faults, Streaming: streaming, ChunkSize: chunkSize}
	if extvpBudget > 0 {
		// Priming run: mine the query's join pairs, then wait for the
		// background builds so the measured run can rewrite onto the
		// materialized reductions.
		if _, err := store.Query(q, opts); err != nil {
			return err
		}
		store.Workload().Wait()
	}
	res, err := store.Query(q, opts)
	if err != nil {
		return err
	}

	fmt.Printf("%s\n", strings.Join(res.Vars, "\t"))
	rows := res.Rows // ORDER BY order; re-sorting would undo DESC keys
	if !res.Ordered {
		rows = res.SortedRows()
	}
	var line []byte
	for i, row := range rows {
		if maxRows > 0 && i >= maxRows {
			fmt.Printf("… (%d more rows)\n", len(res.Rows)-maxRows)
			break
		}
		line = line[:0]
		for j, t := range row {
			if j > 0 {
				line = append(line, '\t')
			}
			if t != (rdf.Term{}) { // an unbound OPTIONAL cell stays empty, not "<>"
				line = t.AppendNTriples(line)
			}
		}
		line = append(line, '\n')
		os.Stdout.Write(line)
	}
	fmt.Printf("\n%d rows; simulated cluster time %v (wall %v, strategy %s)\n",
		len(res.Rows), res.SimTime, res.WallTime, strat)
	if res.Streamed {
		fmt.Printf("streamed over morsel pipelines: first row at %v; peak intermediate footprint %d B\n",
			res.FirstRow, res.PeakMemBytes)
	} else if res.StreamingDowngraded {
		fmt.Println("streaming requested but downgraded to materialized execution (no morsel path for this configuration)")
	}
	if explain {
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
				fmt.Println("  (est-source=indep on a sketchable pair means it fell outside the kept top-K; raise -stats-sketches to cover it)")
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
