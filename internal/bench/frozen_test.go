package bench

import (
	"testing"
	"time"

	"repro/internal/watdiv"
)

// frozenCell is one system's answer to one query on the shared fixture:
// its simulated time in nanoseconds and its row count.
type frozenCell struct {
	ns   int64
	rows int
}

// frozenQueries is the virtual clock on the shared fixture (WatDiv 400,
// seed 42, priced as 100M triples), per basic query and per system in
// SystemNames order (PRoST, S2RDF, Rya, SPARQLGX). It was recorded while
// each baseline still parsed, encoded and evaluated on its own, so it
// pins that rebuilding them on PRoST's ingest and the shared evaluator
// changed no join order, no pricing and no answer size.
var frozenQueries = map[string][4]frozenCell{
	"C1": {{1668359007, 0}, {3307034005, 0}, {1686786328624, 0}, {16902765295, 0}},
	"C2": {{1232339236, 240}, {2826024129, 240}, {82172419969770, 240}, {130734836124, 240}},
	"C3": {{929842807, 9}, {1694915496, 9}, {616995810320, 9}, {13635964800, 9}},
	"F1": {{599380803, 12}, {1479896627, 12}, {25844210264, 12}, {11589942634, 12}},
	"F2": {{518850444, 3}, {1054094056, 3}, {13032398799, 3}, {11141151309, 3}},
	"F3": {{529316511, 28}, {901116894, 28}, {161686153123, 28}, {10457555036, 28}},
	"F4": {{534616730, 92}, {887998638, 92}, {136740406070, 92}, {10312048373, 92}},
	"F5": {{551839246, 10}, {1196004768, 10}, {25492406466, 10}, {11361509193, 10}},
	"L1": {{467355326, 2}, {568032910, 2}, {1884191954, 2}, {8660063670, 2}},
	"L2": {{932864270, 41}, {1507991270, 41}, {15365918705, 41}, {9937099883, 41}},
	"L3": {{425278266, 0}, {430224046, 0}, {4855984179, 0}, {8581321508, 0}},
	"L4": {{573564591, 9}, {644132455, 9}, {11609154449, 9}, {9521261269, 9}},
	"L5": {{541088679, 7}, {512647337, 7}, {24568322455, 7}, {9376023954, 7}},
	"S1": {{353741585, 10}, {900873938, 10}, {22171855316, 10}, {10267214875, 10}},
	"S2": {{368826629, 1}, {893320087, 1}, {100606164378, 1}, {10732092279, 1}},
	"S3": {{368318238, 7}, {839184847, 7}, {15752812219, 7}, {10502555802, 7}},
	"S4": {{339555177, 0}, {702753372, 0}, {93408885485, 0}, {10270996747, 0}},
	"S5": {{342356159, 0}, {777395273, 0}, {6095710194, 0}, {10375366620, 0}},
	"S6": {{412670237, 34}, {1130887343, 34}, {48626395267, 34}, {9790306384, 34}},
	"S7": {{301763220, 1}, {463902493, 1}, {7362386515, 1}, {9191837020, 1}},
}

// frozenLoads is Table 1 on the shared fixture. Sizes and PRoST's load
// time are as recorded with frozenQueries. The baselines' load times
// are one stage higher than then: their "read input" stage now prices
// the input file on the same bytes PRoST does, datatype and language
// tags included (S2RDF 1182882005071, SPARQLGX 38093647918 and Rya
// 190791439836 ns before).
var frozenLoads = map[string]LoadRow{
	SysPRoST:    {SysPRoST, 461764, 83089283462},
	SysS2RDF:    {SysS2RDF, 1919797, 1183716816869},
	SysSPARQLGX: {SysSPARQLGX, 56039, 38928459716},
	SysRya:      {SysRya, 488995, 191626251634},
}

// frozenExtVPTables is the number of reductions S2RDF materializes on
// the shared fixture.
const frozenExtVPTables = 410

// TestVirtualClockFrozen holds every system's simulated query time, row
// count and Table 1 row on the shared fixture to the recorded values.
func TestVirtualClockFrozen(t *testing.T) {
	s := systems(t)
	for _, q := range watdiv.BasicQuerySet() {
		want, ok := frozenQueries[q.Name]
		if !ok {
			t.Errorf("%s: no frozen cells", q.Name)
			continue
		}
		for i, name := range SystemNames() {
			out, err := s.RunOn(name, q.Parsed)
			if err != nil {
				t.Fatalf("%s on %s: %v", q.Name, name, err)
			}
			if got := (frozenCell{int64(out.SimTime), out.Rows}); got != want[i] {
				t.Errorf("%s on %s: %d ns, %d rows; frozen %d ns (%v), %d rows",
					q.Name, name, got.ns, got.rows, want[i].ns, time.Duration(want[i].ns), want[i].rows)
			}
		}
	}
	for _, row := range s.Loads() {
		if want := frozenLoads[row.System]; row != want {
			t.Errorf("Table 1 %s: %d bytes in %d ns; frozen %d bytes in %d ns",
				row.System, row.SizeBytes, row.LoadTime, want.SizeBytes, want.LoadTime)
		}
	}
	if got := s.S2RDF.ExtVPTableCount(); got != frozenExtVPTables {
		t.Errorf("S2RDF materialized %d ExtVP tables; frozen %d", got, frozenExtVPTables)
	}
}
