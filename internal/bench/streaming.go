package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/watdiv"
)

// StreamingRecord is one query's A/B measurement of the morsel-driven
// streaming executor against the materialized scheduler: simulated
// time both ways, the streaming path's first-row latency, and both
// peak intermediate-memory high-water marks.
type StreamingRecord struct {
	Query           string  `json:"query"`
	Group           string  `json:"group"`
	Rows            int     `json:"rows"`
	SimMS           float64 `json:"simMs"`
	StreamSimMS     float64 `json:"streamSimMs"`
	FirstRowMS      float64 `json:"firstRowMs"`
	PeakBytes       int64   `json:"peakBytes"`
	StreamPeakBytes int64   `json:"streamPeakBytes"`
	// PeakDropRatio is PeakBytes / StreamPeakBytes — how many times
	// smaller the streaming high-water mark is.
	PeakDropRatio float64 `json:"peakDropRatio"`
}

// StreamingProfile measures every query twice on a PRoST store —
// materialized and streaming, Mixed strategy, the plan cache bypassed
// so both modes execute the same static plan — and reports the paired
// record. Row counts must agree or the profile fails.
//
// The profile is an engine-internal A/B, so it runs at the engine's
// native cost model and broadcast threshold rather than on the
// extrapolated cross-system fixture: extrapolation shrinks the
// broadcast threshold by the scale factor until every sizeable join
// degenerates to a shuffle join, a regime with no per-executor
// broadcast replicas — the very memory the streaming executor's
// shared build hash is designed to avoid holding W times over.
func StreamingProfile(store *core.Store, queries []watdiv.Query) ([]StreamingRecord, error) {
	var out []StreamingRecord
	for _, q := range queries {
		base := core.QueryOptions{Strategy: core.StrategyMixed, NoPlanCache: true}
		mat, err := store.Query(q.Parsed, base)
		if err != nil {
			return nil, fmt.Errorf("bench: streaming profile, %s materialized: %w", q.Name, err)
		}
		opts := base
		opts.Streaming = true
		str, err := store.Query(q.Parsed, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: streaming profile, %s streaming: %w", q.Name, err)
		}
		if !str.Streamed {
			return nil, fmt.Errorf("bench: streaming profile, %s: fell back to materialized execution", q.Name)
		}
		if len(mat.Rows) != len(str.Rows) {
			return nil, fmt.Errorf("bench: streaming profile, %s: materialized %d rows vs streaming %d rows", q.Name, len(mat.Rows), len(str.Rows))
		}
		rec := StreamingRecord{
			Query:           q.Name,
			Group:           q.Group,
			Rows:            len(mat.Rows),
			SimMS:           ms(mat.SimTime),
			StreamSimMS:     ms(str.SimTime),
			FirstRowMS:      ms(str.FirstRow),
			PeakBytes:       mat.PeakMemBytes,
			StreamPeakBytes: str.PeakMemBytes,
		}
		if str.PeakMemBytes > 0 {
			rec.PeakDropRatio = float64(mat.PeakMemBytes) / float64(str.PeakMemBytes)
		}
		out = append(out, rec)
	}
	return out, nil
}

// StreamingTable renders the profile for human consumption.
func StreamingTable(recs []StreamingRecord) Table {
	t := Table{
		Title:  "Streaming executor vs materialized: time, first row, peak memory",
		Header: []string{"query", "sim-ms", "stream-ms", "first-row-ms", "peak", "stream-peak", "drop"},
	}
	for _, r := range recs {
		t.Rows = append(t.Rows, []string{
			r.Query,
			fmt.Sprintf("%.2f", r.SimMS),
			fmt.Sprintf("%.2f", r.StreamSimMS),
			fmt.Sprintf("%.2f", r.FirstRowMS),
			formatBytes(r.PeakBytes),
			formatBytes(r.StreamPeakBytes),
			fmt.Sprintf("%.1fx", r.PeakDropRatio),
		})
	}
	return t
}

// streamingTrajectory is the BENCH_streaming.json document: the
// fixture's shape plus the per-query records. Every field is derived
// from the virtual cost model, so reruns on any machine produce
// identical bytes — the committed file only changes when an engine or
// pricing change moves a tracked metric, making its diff history the
// metric trajectory across PRs.
type streamingTrajectory struct {
	Scale   int               `json:"scale"`
	Workers int               `json:"workers"`
	Queries []StreamingRecord `json:"queries"`
}

// WriteStreamingTrajectory writes the profile to path as the
// BENCH_streaming.json trajectory document.
func WriteStreamingTrajectory(path string, scale, workers int, recs []StreamingRecord) error {
	doc := streamingTrajectory{Scale: scale, Workers: workers, Queries: recs}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
