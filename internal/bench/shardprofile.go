package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"os"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/watdiv"
)

// ShardTopology is one query's measurement on one shard count:
// simulated time under distributed execution plus the wire traffic the
// coordinator measured. ExchangeBytes is the packed row-ID payload the
// cost model's network price is calibrated against; WireBytes adds
// framing, headers and colocated relay traffic.
type ShardTopology struct {
	Shards        int     `json:"shards"`
	SimMS         float64 `json:"simMs"`
	Exchanges     int64   `json:"exchanges"`
	ExchangeBytes int64   `json:"exchangeBytes"`
	PricedBytes   int64   `json:"pricedBytes"`
	ScanBytes     int64   `json:"scanBytes"`
	WireBytes     int64   `json:"wireBytes"`
}

// ShardRecord is one query's scale-out profile: the single-process
// baseline plus each shard topology's measurement. Distributed
// execution delegates kernels but prices stages from the same
// coordinator-known values, so every topology's SimMS must equal the
// baseline's — the profile exists to track the wire traffic that
// equality costs.
type ShardRecord struct {
	Query      string          `json:"query"`
	Group      string          `json:"group"`
	Rows       int             `json:"rows"`
	SimMS      float64         `json:"simMs"`
	Topologies []ShardTopology `json:"topologies"`
}

// shardTopo is one booted in-process topology: n shard servers sharing
// the store (loading is deterministic, so a shared store is
// indistinguishable from n separate loads) plus a dialed coordinator.
type shardTopo struct {
	coord   *shard.Coordinator
	servers []*shard.Server
}

func bootTopology(store *core.Store, shards int) (*shardTopo, error) {
	topo := &shardTopo{}
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv, err := shard.NewServer(store, i, shards)
		if err != nil {
			topo.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			topo.close()
			return nil, err
		}
		go srv.Serve(ln)
		topo.servers = append(topo.servers, srv)
		addrs[i] = ln.Addr().String()
	}
	coord, err := shard.Dial(store, addrs)
	if err != nil {
		topo.close()
		return nil, err
	}
	topo.coord = coord
	return topo, nil
}

func (t *shardTopo) close() {
	if t.coord != nil {
		t.coord.Close()
	}
	for _, s := range t.servers {
		s.Close()
	}
}

// netBytes sums the calibration annotations over a plan's nodes,
// splitting join/distinct exchanges (priced by the network cost model)
// from leaf scans (priced in disk bytes — a different unit, so their
// payload is reported separately rather than folded into the exchange
// ratio).
func netBytes(p *plan.Plan) (measured, priced, scans int64) {
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if !n.HasNetBytes {
			return
		}
		if n.Op == plan.OpScan {
			scans += n.MeasuredNetBytes
			return
		}
		measured += n.MeasuredNetBytes
		priced += n.PricedNetBytes
	}
	walk(p.Root)
	return measured, priced, scans
}

// ShardProfile measures every query single-process and on each shard
// count. Broadcasting is disabled so joins exercise the shuffle
// exchange path the calibration layer prices — the same plans execute
// in every configuration, keeping the comparison paired. Rows and
// SimTime must agree exactly between single-process and every
// topology, or the profile fails.
func ShardProfile(store *core.Store, queries []watdiv.Query, shardCounts []int) ([]ShardRecord, error) {
	topos := make([]*shardTopo, len(shardCounts))
	for i, n := range shardCounts {
		topo, err := bootTopology(store, n)
		if err != nil {
			for _, t := range topos[:i] {
				t.close()
			}
			return nil, fmt.Errorf("bench: shard profile, booting %d-shard topology: %w", n, err)
		}
		topos[i] = topo
	}
	defer func() {
		for _, t := range topos {
			t.close()
		}
	}()

	base := core.QueryOptions{Strategy: core.StrategyMixed, NoPlanCache: true, BroadcastThreshold: -1}
	var out []ShardRecord
	for _, q := range queries {
		single, err := store.Query(q.Parsed, base)
		if err != nil {
			return nil, fmt.Errorf("bench: shard profile, %s single-process: %w", q.Name, err)
		}
		rec := ShardRecord{
			Query: q.Name,
			Group: q.Group,
			Rows:  len(single.Rows),
			SimMS: ms(single.SimTime),
		}
		for i, topo := range topos {
			before := topo.coord.NetworkStats()
			opts := base
			opts.Dist = topo.coord
			res, err := store.Query(q.Parsed, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: shard profile, %s on %d shards: %w", q.Name, shardCounts[i], err)
			}
			if len(res.Rows) != len(single.Rows) {
				return nil, fmt.Errorf("bench: shard profile, %s on %d shards: %d rows vs single-process %d",
					q.Name, shardCounts[i], len(res.Rows), len(single.Rows))
			}
			if res.SimTime != single.SimTime {
				return nil, fmt.Errorf("bench: shard profile, %s on %d shards: SimTime %v diverges from single-process %v",
					q.Name, shardCounts[i], res.SimTime, single.SimTime)
			}
			after := topo.coord.NetworkStats()
			measured, priced, scanBytes := netBytes(res.Plan)
			rec.Topologies = append(rec.Topologies, ShardTopology{
				Shards:        shardCounts[i],
				SimMS:         ms(res.SimTime),
				Exchanges:     after.Exchanges - before.Exchanges,
				ExchangeBytes: measured,
				PricedBytes:   priced,
				ScanBytes:     scanBytes,
				WireBytes: (after.BytesSent + after.BytesReceived) -
					(before.BytesSent + before.BytesReceived),
			})
		}
		out = append(out, rec)
	}
	return out, nil
}

// ShardTable renders the profile for human consumption.
func ShardTable(recs []ShardRecord) Table {
	t := Table{
		Title:  "Scale-out execution: per-topology wire traffic at identical SimTime",
		Header: []string{"query", "sim-ms", "shards", "exchanges", "payload", "priced", "wire"},
	}
	for _, r := range recs {
		for _, topo := range r.Topologies {
			t.Rows = append(t.Rows, []string{
				r.Query,
				fmt.Sprintf("%.2f", r.SimMS),
				fmt.Sprintf("%d", topo.Shards),
				fmt.Sprintf("%d", topo.Exchanges),
				formatBytes(topo.ExchangeBytes),
				formatBytes(topo.PricedBytes),
				formatBytes(topo.WireBytes),
			})
		}
	}
	return t
}

// shardTrajectory is the BENCH_shard.json document. SimMS and the
// byte columns derive from the virtual cost model and the
// deterministic wire encoding, so reruns produce identical bytes and
// the committed file's diff history tracks the scale-out path's cost
// across PRs.
type shardTrajectory struct {
	Scale   int           `json:"scale"`
	Workers int           `json:"workers"`
	Queries []ShardRecord `json:"queries"`
}

// WriteShardTrajectory writes the profile to path as the
// BENCH_shard.json trajectory document.
func WriteShardTrajectory(path string, scale, workers int, recs []ShardRecord) error {
	doc := shardTrajectory{Scale: scale, Workers: workers, Queries: recs}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
