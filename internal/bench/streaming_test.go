package bench

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/watdiv"
)

// The streaming profile fixture: the same WatDiv dataset as the shared
// cross-system fixture, loaded at the engine's native cost model and
// default cluster shape. The streaming-vs-materialized comparison is
// engine-internal, and the broadcast-replica memory it measures only
// exists where joins actually broadcast — the extrapolated fixture's
// scaled-down threshold forces every sizeable join to shuffle instead
// (see StreamingProfile's doc comment).
var (
	streamFixOnce sync.Once
	streamFix     *core.Store
	streamFixErr  error
)

func streamingStore(t *testing.T) *core.Store {
	t.Helper()
	streamFixOnce.Do(func() {
		g := watdiv.MustGenerate(watdiv.Config{Scale: fixtureScale, Seed: 42})
		streamFix, streamFixErr = core.Load(g, core.Options{Cluster: cluster.MustNew(cluster.DefaultConfig())})
	})
	if streamFixErr != nil {
		t.Fatalf("loading streaming fixture: %v", streamFixErr)
	}
	return streamFix
}

// TestStreamingProfileShape pins the streaming executor's acceptance
// shape at the paper fixture scale: no query's streaming SimTime may
// regress more than 5% against materialized execution, first-row
// latency must land strictly before full completion wherever rows are
// produced, and the C-family peak intermediate footprint must drop at
// least 4x — the broadcast-replica memory the Spark model pins on
// every executor versus the morsel engine's single shared build hash.
// The measured profile is then written out and read back — over
// BENCH_streaming.json at the repo root under -update, to a scratch
// directory otherwise; all numbers come from the virtual cost model, so
// the file only changes when a pricing or engine change moves a tracked
// metric.
func TestStreamingProfileShape(t *testing.T) {
	store := streamingStore(t)
	queries := watdiv.BasicQuerySet()
	recs, err := StreamingProfile(store, queries)
	if err != nil {
		t.Fatalf("StreamingProfile: %v", err)
	}
	for _, r := range recs {
		if r.StreamSimMS > r.SimMS*1.05 {
			t.Errorf("%s: streaming sim %.2fms regresses >5%% vs materialized %.2fms", r.Query, r.StreamSimMS, r.SimMS)
		}
		if r.Rows > 0 {
			if r.FirstRowMS <= 0 || r.FirstRowMS >= r.StreamSimMS {
				t.Errorf("%s: first row at %.2fms not strictly inside (0, %.2fms)", r.Query, r.FirstRowMS, r.StreamSimMS)
			}
			if r.PeakBytes <= 0 || r.StreamPeakBytes <= 0 {
				t.Errorf("%s: peak bytes not tracked (mat=%d stream=%d)", r.Query, r.PeakBytes, r.StreamPeakBytes)
			}
		}
		if r.Group == "C" && r.PeakDropRatio < 4 {
			t.Errorf("%s: peak memory drop %.2fx, want >= 4x (mat %d B / stream %d B)",
				r.Query, r.PeakDropRatio, r.PeakBytes, r.StreamPeakBytes)
		}
		t.Logf("%-4s sim=%8.2fms stream=%8.2fms first=%8.2fms peak=%7dB streamPeak=%7dB drop=%5.1fx",
			r.Query, r.SimMS, r.StreamSimMS, r.FirstRowMS, r.PeakBytes, r.StreamPeakBytes, r.PeakDropRatio)
	}

	out := StreamingTable(recs).String()
	for _, q := range queries {
		if !strings.Contains(out, q.Name) {
			t.Errorf("streaming table missing %s:\n%s", q.Name, out)
		}
	}

	path := trajectoryPath(t, "BENCH_streaming.json")
	if err := WriteStreamingTrajectory(path, fixtureScale, store.Cluster().Workers(), recs); err != nil {
		t.Fatalf("WriteStreamingTrajectory: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trajectory: %v", err)
	}
	var doc struct {
		Scale   int
		Workers int
		Queries []StreamingRecord
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trajectory not valid JSON: %v", err)
	}
	if doc.Scale != fixtureScale || doc.Workers != store.Cluster().Workers() || len(doc.Queries) != len(recs) {
		t.Errorf("trajectory round-trip mismatch: scale=%d workers=%d queries=%d", doc.Scale, doc.Workers, len(doc.Queries))
	}
}
