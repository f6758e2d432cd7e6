// Command prost-bench regenerates the paper's evaluation artifacts on a
// freshly generated WatDiv dataset: Table 1 (loading size and time),
// Figure 2 (VP-only vs mixed strategy), Figure 3 (per-query comparison
// of PRoST, S2RDF, Rya and SPARQLGX) and Table 2 (group averages), plus
// the ablations and the inverse-Property-Table extension experiment
// from DESIGN.md.
//
// Usage:
//
//	prost-bench -scale 1000 -extrapolate 100000000 -exp all
//
// The -extrapolate flag prices all data-proportional costs as if the
// dataset had that many triples (default: the paper's 100M), so the
// printed simulated times are comparable in shape to the paper's
// numbers while the real computation stays laptop-sized.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/watdiv"
)

func main() {
	scale := flag.Int("scale", 1000, "WatDiv scale (number of users)")
	seed := flag.Int64("seed", 42, "generator seed")
	extrapolate := flag.Int64("extrapolate", 100_000_000, "price costs as if the dataset had this many triples (0 = off)")
	exp := flag.String("exp", "all", "experiment: table1, figure2, figure3, table2, ablations, extension or all")
	verify := flag.Bool("verify", true, "cross-check that all four systems return identical rows")
	flag.Parse()

	if err := run(*scale, *seed, *extrapolate, *exp, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "prost-bench:", err)
		os.Exit(1)
	}
}

func run(scale int, seed, extrapolate int64, exp string, verify bool) error {
	fmt.Fprintf(os.Stderr, "generating WatDiv dataset (scale %d, seed %d)…\n", scale, seed)
	g, err := watdiv.Generate(watdiv.Config{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loading %d triples into PRoST, S2RDF, SPARQLGX and Rya…\n", g.Len())
	sys, err := bench.LoadAll(g, bench.LoadOptions{
		InversePT:          exp == "extension" || exp == "all",
		ExtrapolateTriples: extrapolate,
	})
	if err != nil {
		return err
	}
	queries := watdiv.BasicQuerySet()
	if verify {
		fmt.Fprintln(os.Stderr, "verifying cross-system agreement on all 20 queries…")
		if err := sys.VerifyAgreement(queries); err != nil {
			return err
		}
	}

	want := func(name string) bool { return exp == "all" || exp == name }
	if want("table1") {
		fmt.Println(sys.Table1())
	}
	if want("figure2") {
		fig, err := sys.Figure2(queries)
		if err != nil {
			return err
		}
		fmt.Println(fig)
	}
	var fig3 bench.Figure
	if want("figure3") || want("table2") {
		fig3, err = sys.Figure3(queries)
		if err != nil {
			return err
		}
	}
	if want("figure3") {
		fmt.Println(fig3)
	}
	if want("table2") {
		fmt.Println(bench.Table2(fig3, queries))
	}
	if want("ablations") {
		a1, err := sys.AblationJoinOrder(queries)
		if err != nil {
			return err
		}
		fmt.Println(a1.Table())
		a2, err := sys.AblationBroadcast(queries)
		if err != nil {
			return err
		}
		fmt.Println(a2.Table())
		a3, err := sys.AblationPlanner(queries)
		if err != nil {
			return err
		}
		fmt.Println(a3.Table())
		a4, err := sys.AblationBushy(queries)
		if err != nil {
			return err
		}
		fmt.Println(a4.Table())
		a5, err := sys.AblationAdaptive(queries)
		if err != nil {
			return err
		}
		fmt.Println(a5.Table())
		a6, err := sys.AblationSketches(queries)
		if err != nil {
			return err
		}
		fmt.Println(a6.Table())
		a7, err := sys.AblationExtVP(queries)
		if err != nil {
			return err
		}
		fmt.Println(a7.Table())
	}
	if want("extension") {
		fig, err := sys.ExtensionInversePT(bench.ObjectStarQueries())
		if err != nil {
			return err
		}
		fmt.Println(fig.Table())
	}
	if !strings.Contains("table1 figure2 figure3 table2 ablations extension all", exp) {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
