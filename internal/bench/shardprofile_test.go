package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/watdiv"
)

// TestShardProfileShape pins the scale-out acceptance shape at the
// paper fixture scale: every query must answer identically (rows and
// SimTime — ShardProfile fails otherwise) on 1, 2 and 4 shards, every
// topology must move wire traffic, and on every shuffled join the
// measured payload must land within 2x of the cost model's network
// price. The measured profile is then written out and read back — over
// BENCH_shard.json at the repo root under -update, to a scratch
// directory otherwise; SimTime comes from the virtual cost model and the
// byte columns from the deterministic wire encoding, so the file only
// changes when an engine, pricing or protocol change moves a tracked
// metric.
func TestShardProfileShape(t *testing.T) {
	store := streamingStore(t)
	queries := watdiv.BasicQuerySet()
	shardCounts := []int{1, 2, 4}
	recs, err := ShardProfile(store, queries, shardCounts)
	if err != nil {
		t.Fatalf("ShardProfile: %v", err)
	}
	if len(recs) != len(queries) {
		t.Fatalf("profiled %d of %d queries", len(recs), len(queries))
	}
	for _, r := range recs {
		if len(r.Topologies) != len(shardCounts) {
			t.Fatalf("%s: %d topologies, want %d", r.Query, len(r.Topologies), len(shardCounts))
		}
		for _, topo := range r.Topologies {
			if topo.SimMS != r.SimMS {
				t.Errorf("%s on %d shards: sim %.4fms diverges from single-process %.4fms",
					r.Query, topo.Shards, topo.SimMS, r.SimMS)
			}
			if topo.Exchanges < 1 || topo.WireBytes <= 0 {
				t.Errorf("%s on %d shards: no wire traffic (%d exchanges, %d B)",
					r.Query, topo.Shards, topo.Exchanges, topo.WireBytes)
			}
			if topo.ExchangeBytes > 0 && topo.PricedBytes > 0 {
				ratio := float64(topo.ExchangeBytes) / float64(topo.PricedBytes)
				if ratio < 0.25 || ratio > 2 {
					t.Errorf("%s on %d shards: payload %d B vs priced %d B (ratio %.2f) outside [0.25, 2]",
						r.Query, topo.Shards, topo.ExchangeBytes, topo.PricedBytes, ratio)
				}
			}
			t.Logf("%-4s shards=%d sim=%8.2fms exchanges=%3d payload=%8dB priced=%8dB wire=%8dB",
				r.Query, topo.Shards, topo.SimMS, topo.Exchanges, topo.ExchangeBytes, topo.PricedBytes, topo.WireBytes)
		}
	}

	out := ShardTable(recs).String()
	for _, q := range queries {
		if !strings.Contains(out, q.Name) {
			t.Errorf("shard table missing %s:\n%s", q.Name, out)
		}
	}

	// The framing may only get leaner: per query, the 2-shard topology's
	// wire traffic must not exceed what the committed trajectory records.
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_shard.json"))
	if err != nil {
		t.Fatalf("read committed trajectory: %v", err)
	}
	var prev struct{ Queries []ShardRecord }
	if err := json.Unmarshal(committed, &prev); err != nil {
		t.Fatalf("committed trajectory not valid JSON: %v", err)
	}
	prevWire := map[string]int64{}
	for _, r := range prev.Queries {
		for _, topo := range r.Topologies {
			if topo.Shards == 2 {
				prevWire[r.Query] = topo.WireBytes
			}
		}
	}
	for _, r := range recs {
		for _, topo := range r.Topologies {
			if was, ok := prevWire[r.Query]; ok && topo.Shards == 2 && topo.WireBytes > was {
				t.Errorf("%s on 2 shards: wireBytes %d exceeds the committed %d", r.Query, topo.WireBytes, was)
			}
		}
	}

	path := trajectoryPath(t, "BENCH_shard.json")
	if err := WriteShardTrajectory(path, fixtureScale, store.Cluster().Workers(), recs); err != nil {
		t.Fatalf("WriteShardTrajectory: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trajectory: %v", err)
	}
	var doc struct {
		Scale   int
		Workers int
		Queries []ShardRecord
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trajectory not valid JSON: %v", err)
	}
	if doc.Scale != fixtureScale || doc.Workers != store.Cluster().Workers() || len(doc.Queries) != len(recs) {
		t.Errorf("trajectory round-trip mismatch: scale=%d workers=%d queries=%d", doc.Scale, doc.Workers, len(doc.Queries))
	}
}
