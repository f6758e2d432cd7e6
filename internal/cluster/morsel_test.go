package cluster

import (
	"testing"
	"time"
)

// simCfg builds a config whose cost model prices rows only, making
// morsel durations easy to reason about: 1000 rows = 120µs.
func simCfg(workers int) MorselSimConfig {
	return MorselSimConfig{
		Workers: workers,
		Cost:    DefaultCostModel(),
		Start:   10 * time.Millisecond,
	}
}

func TestSimulateMorselsContention(t *testing.T) {
	cfg := simCfg(2)
	// 4 equal morsels on 2 workers: two waves, so completion is
	// start + 2×morselDur, not start + morselDur (max-of-branches would
	// claim the latter).
	work := TaskStats{Rows: 4000}
	per := cfg.Cost.TaskTime(TaskStats{Rows: 1000})
	res, err := SimulateMorsels([]MorselPipeline{{Name: "scan", Morsels: 4, Work: work}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Start + 2*per
	if res.Done != want {
		t.Fatalf("Done = %v, want %v (two waves of %v after %v start)", res.Done, want, per, cfg.Start)
	}
}

func TestSimulateMorselsDepsAndLaunch(t *testing.T) {
	cfg := simCfg(4)
	launch := 150 * time.Millisecond
	pipes := []MorselPipeline{
		{Name: "build", Morsels: 2, Work: TaskStats{Rows: 2000}},
		{Name: "probe", Deps: []int{0}, Launch: launch, Morsels: 2, Work: TaskStats{Rows: 2000}},
	}
	res, err := SimulateMorsels(pipes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := cfg.Cost.TaskTime(TaskStats{Rows: 1000})
	buildDone := cfg.Start + per
	want := buildDone + launch + per
	if res.PipelineDone[0] != buildDone || res.Done != want {
		t.Fatalf("build done %v (want %v), query done %v (want %v)",
			res.PipelineDone[0], buildDone, res.Done, want)
	}
}

func TestSimulateMorselsFirstEmitBeforeDone(t *testing.T) {
	cfg := simCfg(4)
	res, err := SimulateMorsels([]MorselPipeline{{
		Name: "root", Morsels: 8, Work: TaskStats{Rows: 8000},
		EmitBytes: 8 << 20, EmitRows: true,
	}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstEmit <= 0 || res.FirstEmit >= res.Done {
		t.Fatalf("FirstEmit %v must fall strictly inside (0, Done=%v)", res.FirstEmit, res.Done)
	}
}

func TestSimulateMorselsNoEmitNoFirstRow(t *testing.T) {
	cfg := simCfg(2)
	res, err := SimulateMorsels([]MorselPipeline{{Name: "build", Morsels: 2, Work: TaskStats{Rows: 100}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstEmit != 0 {
		t.Fatalf("non-emitting plan reported FirstEmit %v", res.FirstEmit)
	}
}

func TestSimulateMorselsFaultsDeterministic(t *testing.T) {
	cfg := simCfg(4)
	cfg.Faults = &FaultPlan{Seed: 7, FailRate: 0.3, StragglerRate: 0.2, StragglerFactor: 6, CorruptRate: 0.1}
	cfg.FaultSalt = 0xABCD
	pipes := []MorselPipeline{
		{Name: "build", Morsels: 6, Work: TaskStats{Rows: 6000}},
		{Name: "probe", Deps: []int{0}, Launch: 150 * time.Millisecond, Morsels: 6,
			Work: TaskStats{Rows: 6000}, EmitBytes: 1 << 20, EmitRows: true},
	}
	a, err := SimulateMorsels(pipes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateMorsels(pipes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Done != b.Done || a.FirstEmit != b.FirstEmit || a.Recovery != b.Recovery {
		t.Fatalf("same inputs diverged: %+v vs %+v", a, b)
	}
	if a.Recovery.Attempts <= 12 {
		t.Errorf("30%% fail rate over 12 morsels produced no extra attempts: %+v", a.Recovery)
	}
	if a.Recovery.Retries == 0 {
		t.Errorf("expected retries under FailRate 0.3, got %+v", a.Recovery)
	}
	// At most MaxFailuresPerTask attempts of a morsel fail, so the
	// simulation recovers.
	clean, err := SimulateMorsels(pipes, simCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Done <= clean.Done {
		t.Errorf("faulted run (%v) should cost more than clean run (%v)", a.Done, clean.Done)
	}
}

func TestSimulateMorselsBadTopology(t *testing.T) {
	if _, err := SimulateMorsels([]MorselPipeline{{Name: "x", Deps: []int{0}, Morsels: 1}}, simCfg(1)); err == nil {
		t.Fatal("self-dependency accepted")
	}
}
