// Command prost-shard hosts one shard of a scale-out PRoST deployment.
// It loads the same N-Triples dataset as the coordinator (loading is
// deterministic, so dictionary IDs and partition placement agree
// across processes), then serves scan and exchange kernels over TCP
// for the partitions it owns (p % shards == shard).
//
// A two-shard deployment on one host:
//
//	prost-shard -in dataset.nt -listen :9101 -shard 0 -shards 2 &
//	prost-shard -in dataset.nt -listen :9102 -shard 1 -shards 2 &
//	prost-serve -in dataset.nt -addr :8080 -shard-addrs localhost:9101,localhost:9102
//
// The -workers flag (and -ipt when the coordinator serves the
// mixed+ipt strategy) must match the coordinator's: the handshake
// verifies topology, partition count, simulated worker count and the
// statistics fingerprint, and refuses mismatched coordinators rather
// than silently corrupting results.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cmd/internal/cliflag"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/shard"
)

func main() {
	var (
		in         = flag.String("in", "", "input N-Triples file (required, same file the coordinator loads)")
		listen     = flag.String("listen", ":9101", "listen address for coordinator connections")
		shardNo    = flag.Int("shard", 0, "this shard's position in the topology")
		shards     = flag.Int("shards", 1, "total shard count")
		clusterCfg = cliflag.Cluster(flag.CommandLine)
		ipt        = flag.Bool("ipt", false, "build the inverse property table (required when the coordinator's store holds it, i.e. serves strategy mixed+ipt)")
	)
	flag.Parse()
	opts := core.Options{BuildInversePT: *ipt}
	if err := run(*in, *listen, *shardNo, *shards, clusterCfg(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "prost-shard:", err)
		os.Exit(1)
	}
}

func run(in, listen string, shardNo, shards int, cfg cluster.Config, opts core.Options) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	if opts.Cluster, err = cluster.New(cfg); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loading %s…\n", in)
	store, err := core.LoadNTriples(f, opts)
	if err != nil {
		return err
	}
	rep := store.LoadReport()
	fmt.Fprintf(os.Stderr, "loaded %d triples (%d VP tables, %d PT columns) in %v wall\n",
		rep.Triples, rep.VPTables, rep.PTColumns, rep.WallTime)

	srv, err := shard.NewServer(store, shardNo, shards)
	if err != nil {
		return err
	}
	owned := 0
	for p := 0; p < store.Partitions(); p++ {
		if p%shards == shardNo {
			owned++
		}
	}
	fmt.Fprintf(os.Stderr, "shard %d of %d serving %d of %d partitions on %s (fingerprint %x)\n",
		shardNo, shards, owned, store.Partitions(), listen, store.Stats().Fingerprint())
	return srv.ListenAndServe(listen)
}
