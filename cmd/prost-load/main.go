// Command prost-load loads an N-Triples dataset into a PRoST store on
// the simulated cluster and prints the loading report: table counts,
// on-HDFS sizes and the simulated loading time (the quantities of the
// paper's Table 1), plus the collected per-predicate statistics.
//
// Usage:
//
//	prost-load -in dataset.nt [-workers 9] [-partitions 18] [-inverse-pt] [-stats]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cmd/internal/cliflag"
	"repro/internal/cluster"
	"repro/internal/core"
)

func main() {
	in := flag.String("in", "", "input N-Triples file (required)")
	clusterCfg := cliflag.Cluster(flag.CommandLine)
	partitions := flag.Int("partitions", 0, "table partitions (0 = 2x workers)")
	inversePT := flag.Bool("inverse-pt", false, "also build the object-keyed inverse Property Table")
	showStats := flag.Bool("stats", false, "print per-predicate statistics")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "prost-load: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg := clusterCfg()
	if *partitions > 0 {
		cfg.DefaultPartitions = *partitions
	}
	if err := run(*in, cfg, *inversePT, *showStats); err != nil {
		fmt.Fprintln(os.Stderr, "prost-load:", err)
		os.Exit(1)
	}
}

func run(in string, cfg cluster.Config, inversePT, showStats bool) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()

	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	store, err := core.LoadNTriples(f, core.Options{Cluster: c, BuildInversePT: inversePT})
	if err != nil {
		return err
	}
	rep := store.LoadReport()
	fmt.Printf("triples:        %d\n", rep.Triples)
	fmt.Printf("input size:     %.2f MiB\n", float64(rep.InputBytes)/(1<<20))
	fmt.Printf("store size:     %.2f MiB (VP + PT on simulated HDFS)\n", float64(rep.SizeBytes)/(1<<20))
	fmt.Printf("VP tables:      %d\n", rep.VPTables)
	fmt.Printf("PT columns:     %d over %d rows\n", rep.PTColumns, store.PropertyTable().Rows())
	if ipt := store.InversePropertyTable(); ipt != nil {
		fmt.Printf("inverse PT:     %d columns over %d rows\n", ipt.Columns(), ipt.Rows())
	}
	fmt.Printf("simulated load: %v\n", rep.LoadTime)
	fmt.Printf("wall time:      %v\n", rep.WallTime)
	printRetained(rep.Retained, rep.Triples)
	if showStats {
		fmt.Println()
		fmt.Print(store.Stats().Summary(store.Dictionary()))
	}
	return nil
}

// printRetained prints what the store holds in memory, by part, in MiB
// and in bytes per triple.
func printRetained(r core.RetainedBytes, triples int64) {
	line := func(name string, bytes int64, detail string) {
		fmt.Printf("  %-12s %7.2f MiB %6.1f B/triple%s\n", name+":", float64(bytes)/(1<<20), float64(bytes)/float64(max(triples, 1)), detail)
	}
	fmt.Println("retained in memory:")
	d := r.Dictionary
	line("dictionary", d.Total(), fmt.Sprintf(" (records %.2f, text %.2f, index %.2f, tags %.3f MiB)",
		float64(d.Records)/(1<<20), float64(d.Text)/(1<<20), float64(d.Index)/(1<<20), float64(d.Tags)/(1<<20)))
	line("triples", r.Triples, "")
	line("VP", r.VP, "")
	line("PT", r.PT, "")
	if r.InversePT > 0 {
		line("inverse PT", r.InversePT, "")
	}
	line("statistics", r.Stats, "")
	line("total", r.Total(), "")
}
