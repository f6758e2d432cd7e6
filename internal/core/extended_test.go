package core

// Reference-checked property tests for the extended SPARQL surface
// (OPTIONAL, UNION, ORDER BY, GROUP BY/COUNT, LIMIT/OFFSET). A naive
// in-test evaluator computes each query's answer directly over the
// generated triples — nested-loop joins at dictionary-ID level — and
// every (planner mode × storage strategy × executor) combination must
// return it byte-identically. For ordered or limited queries the
// comparison is positional: the deterministic top-K total order is
// part of the contract, not just the row set.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// refBinding maps variable names to dictionary IDs; absent = unbound.
type refBinding map[string]rdf.ID

// refEval evaluates q naively over the graph's triples and returns the
// rendered result: one line per row, terms tab-joined, in the
// deterministic top-K order when the query sorts or limits.
func refEval(t *testing.T, s *Store, g *rdf.Graph, q *sparql.Query) string {
	t.Helper()
	// A triple store is a set: dedup the generated triples before
	// evaluation so multiset join arithmetic matches the loaded tables.
	seen := make(map[rdf.EncodedTriple]bool, g.Len())
	triples := make([]rdf.EncodedTriple, 0, g.Len())
	for _, tr := range g.Triples() {
		et, ok := refEncodeTriple(s, tr)
		if !ok {
			t.Fatalf("triple %v %v %v not in dictionary", tr.S, tr.P, tr.O)
		}
		if !seen[et] {
			seen[et] = true
			triples = append(triples, et)
		}
	}

	// WHERE clause: per branch, BGP then left-join each OPTIONAL group.
	var rows []refBinding
	for _, br := range q.BranchGroups() {
		if len(br.Filters) > 0 {
			t.Fatalf("reference evaluator does not support FILTER")
		}
		branch := refEvalBGP(triples, s, br.Patterns)
		for _, og := range br.Optionals {
			if len(og.Filters) > 0 {
				t.Fatalf("reference evaluator does not support FILTER")
			}
			branch = refLeftJoin(branch, refEvalBGP(triples, s, og.Patterns))
		}
		rows = append(rows, branch...)
	}

	proj := q.Projection()
	countAlias := q.CountAliases()
	var out []engine.Row
	if len(q.Counts) > 0 {
		out = refAggregate(rows, q, proj)
	} else {
		for _, b := range rows {
			r := make(engine.Row, len(proj))
			for i, v := range proj {
				r[i] = b[v] // absent -> NullID (unbound OPTIONAL)
			}
			out = append(out, r)
		}
	}
	if q.Distinct {
		out = refDistinct(out)
	}
	if q.Limit >= 0 || q.Offset > 0 || len(q.Order) > 0 {
		sort.SliceStable(out, refLess(s, q, proj, out))
		if q.Offset > 0 {
			if q.Offset >= len(out) {
				out = nil
			} else {
				out = out[q.Offset:]
			}
		}
		if q.Limit >= 0 && q.Limit < len(out) {
			out = out[:q.Limit]
		}
	}

	var sb strings.Builder
	for _, r := range out {
		for i, id := range r {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(decodeCell(s.dict.Snapshot(), id, countAlias[proj[i]], nil).String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func refEncodeTriple(s *Store, tr rdf.Triple) (rdf.EncodedTriple, bool) {
	si, ok1 := s.dict.Lookup(tr.S)
	pi, ok2 := s.dict.Lookup(tr.P)
	oi, ok3 := s.dict.Lookup(tr.O)
	return rdf.EncodedTriple{S: si, P: pi, O: oi}, ok1 && ok2 && ok3
}

// refEvalBGP joins the patterns by nested loops, left to right.
func refEvalBGP(triples []rdf.EncodedTriple, s *Store, pats []sparql.TriplePattern) []refBinding {
	rows := []refBinding{{}}
	for _, tp := range pats {
		var next []refBinding
		for _, b := range rows {
			for _, tr := range triples {
				if nb, ok := refExtend(s, b, tp, tr); ok {
					next = append(next, nb)
				}
			}
		}
		rows = next
	}
	return rows
}

// refExtend matches one triple against one pattern under a binding,
// returning the extended binding on success.
func refExtend(s *Store, b refBinding, tp sparql.TriplePattern, tr rdf.EncodedTriple) (refBinding, bool) {
	pos := [3]struct {
		pt sparql.PatternTerm
		id rdf.ID
	}{{tp.S, tr.S}, {tp.P, tr.P}, {tp.O, tr.O}}
	nb := b
	copied := false
	for _, p := range pos {
		if !p.pt.IsVar() {
			want, ok := s.dict.Lookup(p.pt.Term)
			if !ok || want != p.id {
				return nil, false
			}
			continue
		}
		if have, ok := nb[p.pt.Var]; ok {
			if have != p.id {
				return nil, false
			}
			continue
		}
		if !copied {
			m := make(refBinding, len(nb)+1)
			for k, v := range nb {
				m[k] = v
			}
			nb, copied = m, true
		}
		nb[p.pt.Var] = p.id
	}
	return nb, true
}

// refLeftJoin implements OPTIONAL: each base row joins with every
// compatible optional row, or survives alone when none matches.
func refLeftJoin(base, opt []refBinding) []refBinding {
	var out []refBinding
	for _, b := range base {
		matched := false
		for _, o := range opt {
			if nb, ok := refMerge(b, o); ok {
				out = append(out, nb)
				matched = true
			}
		}
		if !matched {
			out = append(out, b)
		}
	}
	return out
}

// refMerge unions two bindings when their shared variables agree.
func refMerge(a, b refBinding) (refBinding, bool) {
	for k, v := range b {
		if av, ok := a[k]; ok && av != v {
			return nil, false
		}
	}
	m := make(refBinding, len(a)+len(b))
	for k, v := range a {
		m[k] = v
	}
	for k, v := range b {
		m[k] = v
	}
	return m, true
}

// refAggregate groups rows by the GROUP BY variables and emits one row
// per group in projection order, counts as raw rdf.ID values.
func refAggregate(rows []refBinding, q *sparql.Query, proj []string) []engine.Row {
	type group struct {
		vals   refBinding
		counts []int64
	}
	groups := map[string]*group{}
	var order []string
	for _, b := range rows {
		key := make(engine.Row, len(q.GroupBy))
		for i, v := range q.GroupBy {
			key[i] = b[v]
		}
		k := refRowKey(key)
		gr, ok := groups[k]
		if !ok {
			gr = &group{vals: b, counts: make([]int64, len(q.Counts))}
			groups[k] = gr
			order = append(order, k)
		}
		for ci, c := range q.Counts {
			if c.Var == "" || b[c.Var] != rdf.NullID {
				gr.counts[ci]++
			}
		}
	}
	countIdx := map[string]int{}
	for i, c := range q.Counts {
		countIdx[c.Alias] = i
	}
	out := make([]engine.Row, 0, len(groups))
	for _, k := range order {
		gr := groups[k]
		r := make(engine.Row, len(proj))
		for i, v := range proj {
			if ci, ok := countIdx[v]; ok {
				r[i] = rdf.ID(gr.counts[ci])
			} else {
				r[i] = gr.vals[v]
			}
		}
		out = append(out, r)
	}
	return out
}

// refDistinct removes duplicate rows, keeping first occurrences.
func refDistinct(rows []engine.Row) []engine.Row {
	seen := map[string]bool{}
	var out []engine.Row
	for _, r := range rows {
		k := refRowKey(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// refRowKey packs a row into a collision-free map key (4 bytes LE per
// cell, the same packing the executors' dedupers use).
func refRowKey(r engine.Row) string {
	b := make([]byte, 0, 4*len(r))
	for _, id := range r {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// refLess mirrors the executors' top-K comparator: ORDER BY keys first
// (count columns numerically, unbound before bound, terms by
// CompareTermIDs), then the full-row dictionary-ID tie-break. It
// returns a sort.SliceStable less over rows.
func refLess(s *Store, q *sparql.Query, proj []string, rows []engine.Row) func(i, j int) bool {
	countAlias := q.CountAliases()
	type key struct {
		col   int
		desc  bool
		count bool
	}
	var keys []key
	for _, k := range q.Order {
		for i, v := range proj {
			if v == k.Var {
				keys = append(keys, key{col: i, desc: k.Desc, count: countAlias[v]})
				break
			}
		}
	}
	terms := s.dict.Snapshot()
	return func(i, j int) bool {
		a, b := rows[i], rows[j]
		for _, k := range keys {
			c := compareCell(terms, a[k.col], b[k.col], k.count)
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	}
}

// renderRows renders result rows positionally (no re-sorting).
func renderInOrder(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for i, term := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(term.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// sortLines sorts a rendered result's lines for set comparison.
func sortLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestExtendedByteIdenticalOnWatDiv is the extended-surface acceptance
// property: every E-family query, across all four planner modes, all
// three storage strategies and both executors, returns exactly the
// naive reference answer — positionally for ordered/limited queries,
// as a set otherwise.
func TestExtendedByteIdenticalOnWatDiv(t *testing.T) {
	s := watdivStreamStore(t)
	for _, q := range watdiv.ExtendedQuerySet() {
		exact := q.Parsed.Limit >= 0 || q.Parsed.Offset > 0 || len(q.Parsed.Order) > 0
		want := refEval(t, s, streamGraph, q.Parsed)
		if want == "" {
			t.Fatalf("%s: reference evaluation returned no rows; query is vacuous at this scale", q.Name)
		}
		if !exact {
			want = sortLines(want)
		}
		for _, strat := range streamStrategies {
			for _, mode := range streamPlanners {
				for _, streaming := range []bool{false, true} {
					opts := QueryOptions{Strategy: strat, Planner: mode, Streaming: streaming}
					res, err := s.Query(q.Parsed, opts)
					if err != nil {
						t.Fatalf("%s/%s/%v/streaming=%v: %v", q.Name, strat, mode, streaming, err)
					}
					if streaming && !res.Streamed {
						t.Fatalf("%s/%s/%v: streaming fell back to the materialized path", q.Name, strat, mode)
					}
					if len(q.Parsed.Order) > 0 && !res.Ordered {
						t.Errorf("%s/%s/%v/streaming=%v: ORDER BY result not flagged Ordered", q.Name, strat, mode, streaming)
					}
					got := renderInOrder(res)
					if !exact {
						got = sortLines(got)
					}
					if got != want {
						t.Errorf("%s/%s/%v/streaming=%v: rows differ from reference\ngot:\n%s\nwant:\n%s",
							q.Name, strat, mode, streaming, got, want)
					}
				}
			}
		}
	}
}

// TestLimitDeterministicAcrossConfigs pins satellite behaviour: a
// LIMIT without ORDER BY is not "any K rows" — the dictionary-ID total
// order makes the selected rows and their order byte-identical across
// every planner mode, storage strategy and both executors, the
// streaming one at the default chunk size and at 1 and 7 rows a batch.
// Beside a plain window, the table holds the edges of a bounded
// selection: LIMIT 0, an OFFSET past the last row, and a window whose
// end cuts through a run of identical projected rows (E6's star with
// ?p dropped), where the streaming top-K drops rows that only tie its
// worst kept row.
func TestLimitDeterministicAcrossConfigs(t *testing.T) {
	s := watdivStreamStore(t)
	const (
		chain = `SELECT ?u ?f WHERE {
			?u <http://db.uwaterloo.ca/~galuc/wsdbm/follows> ?f .
			?f <http://db.uwaterloo.ca/~galuc/wsdbm/likes> ?p .
		}`
		star = `SELECT ?u ?f WHERE {
			?u <http://db.uwaterloo.ca/~galuc/wsdbm/follows> ?f .
			?u <http://db.uwaterloo.ca/~galuc/wsdbm/likes> ?p .
		}`
	)
	all, err := s.Query(sparql.MustParse(chain), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	offset, limit := identicalRunCut(t, s, star)
	const grouped = `SELECT ?f (COUNT(?u) AS ?n) WHERE {
			?u <http://db.uwaterloo.ca/~galuc/wsdbm/follows> ?f .
		} GROUP BY ?f ORDER BY DESC(?n) ?f`
	groups, err := s.Query(sparql.MustParse(grouped), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// LIMIT takes any non-negative int, so offset+limit, and twice it,
	// may overflow; every row after the offset is then in the window.
	const huge = " LIMIT 5000000000000000000"
	maxWindow := fmt.Sprintf(" LIMIT %d OFFSET 1", math.MaxInt)
	cases := []struct {
		name, text string
		rows       int
	}{
		{"window", chain + " LIMIT 7 OFFSET 3", 7},
		{"LIMIT 0", chain + " LIMIT 0", 0},
		{"OFFSET past the last row", chain + fmt.Sprintf(" LIMIT 5 OFFSET %d", len(all.Rows)+1), 0},
		{"cut through identical rows", star + fmt.Sprintf(" LIMIT %d OFFSET %d", limit, offset), limit},
		{"LIMIT past any row count", chain + huge, len(all.Rows)},
		{"ORDER BY, LIMIT past any row count", chain + " ORDER BY ?f" + huge, len(all.Rows)},
		{"OFFSET+LIMIT past MaxInt", chain + maxWindow, len(all.Rows) - 1},
		{"aggregate tail, OFFSET+LIMIT past MaxInt", grouped + maxWindow, len(groups.Rows) - 1},
	}
	for _, tc := range cases {
		q := sparql.MustParse(tc.text)
		var want string
		first := true
		for _, strat := range streamStrategies {
			for _, mode := range streamPlanners {
				for _, cfg := range []struct {
					streaming bool
					chunk     int
				}{{false, 0}, {true, 0}, {true, 1}, {true, 7}} {
					res, err := s.Query(q, QueryOptions{Strategy: strat, Planner: mode, Streaming: cfg.streaming, chunkSize: cfg.chunk})
					if err != nil {
						t.Fatalf("%s: %s/%v/%+v: %v", tc.name, strat, mode, cfg, err)
					}
					if len(res.Rows) != tc.rows {
						t.Fatalf("%s: %s/%v/%+v: got %d rows, want %d", tc.name, strat, mode, cfg, len(res.Rows), tc.rows)
					}
					got := renderInOrder(res)
					if first {
						want, first = got, false
					} else if got != want {
						t.Errorf("%s: %s/%v/%+v: limited rows differ\ngot:\n%s\nwant:\n%s",
							tc.name, strat, mode, cfg, got, want)
					}
				}
			}
		}
	}
}

// identicalRunCut returns a LIMIT/OFFSET window over the unordered query
// text whose last row is identical to the row after it, in the
// dictionary-ID order a LIMIT without ORDER BY selects by. The window
// lies far enough into the result that the streaming top-K trims its
// buffer, with rows left over, before the last batch arrives.
func identicalRunCut(t *testing.T, s *Store, text string) (offset, limit int) {
	t.Helper()
	res, err := s.Query(sparql.MustParse(text), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]engine.Row, len(res.Rows))
	for i, terms := range res.Rows {
		for _, term := range terms {
			id, ok := s.dict.Lookup(term)
			if !ok {
				t.Fatalf("result term %v is not in the dictionary", term)
			}
			rows[i] = append(rows[i], id)
		}
	}
	slices.SortFunc(rows, func(a, b engine.Row) int { return slices.Compare(a, b) })
	for i := 10; i+1 < len(rows); i++ {
		if slices.Equal(rows[i], rows[i+1]) && len(rows) > 2*(i+1)+64 {
			return i - 4, 5
		}
	}
	t.Fatalf("no run of identical rows in the first part of %d rows of %s", len(rows), text)
	return 0, 0
}

// TestStreamingTopKBoundsPeakMemory is the memory acceptance check for
// the fused top-K: ORDER BY + LIMIT keeps a bounded buffer at the
// barrier, so its simulated peak intermediate footprint must be
// strictly below the unlimited ORDER BY form of the same query, which
// has to retain every row.
func TestStreamingTopKBoundsPeakMemory(t *testing.T) {
	s := watdivStreamStore(t)
	base := `SELECT ?u ?f WHERE {
		?u <http://db.uwaterloo.ca/~galuc/wsdbm/follows> ?f .
		?f <http://db.uwaterloo.ca/~galuc/wsdbm/likes> ?p .
	} ORDER BY ?u ?f`
	limited := sparql.MustParse(base + " LIMIT 10")
	unlimited := sparql.MustParse(base)
	opts := QueryOptions{Strategy: StrategyMixed, Streaming: true}
	lres, err := s.Query(limited, opts)
	if err != nil {
		t.Fatalf("limited: %v", err)
	}
	ures, err := s.Query(unlimited, opts)
	if err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	if !lres.Streamed || !ures.Streamed {
		t.Fatalf("queries fell back to materialized (limited=%v unlimited=%v)", lres.Streamed, ures.Streamed)
	}
	if len(ures.Rows) <= len(lres.Rows) {
		t.Fatalf("unlimited form returned %d rows, need more than the limit (%d) for a meaningful comparison",
			len(ures.Rows), len(lres.Rows))
	}
	if lres.PeakMemBytes <= 0 || ures.PeakMemBytes <= 0 {
		t.Fatalf("peak bytes not tracked (limited=%d unlimited=%d)", lres.PeakMemBytes, ures.PeakMemBytes)
	}
	if lres.PeakMemBytes >= ures.PeakMemBytes {
		t.Errorf("LIMIT top-K peak %d B not strictly below unlimited ORDER BY peak %d B",
			lres.PeakMemBytes, ures.PeakMemBytes)
	}
}

// TestStreamingTopKPeakMemoryDeterministic: the top-K sink's footprint
// is priced from its bound — every active worker keeps at most
// offset+limit rows — not from the high-water mark of the shared buffer,
// which depends on the order the workers' batches happened to arrive
// in. At seven rows a batch and the default pool width, twenty runs must
// report one PeakMemBytes.
func TestStreamingTopKPeakMemoryDeterministic(t *testing.T) {
	s := watdivStreamStore(t)
	q := sparql.MustParse(`SELECT ?u ?f WHERE {
		?u <http://db.uwaterloo.ca/~galuc/wsdbm/follows> ?f .
		?f <http://db.uwaterloo.ca/~galuc/wsdbm/likes> ?p .
	} ORDER BY ?u ?f LIMIT 10`)
	opts := QueryOptions{Strategy: StrategyMixed, Streaming: true, chunkSize: 7}
	var want int64
	for run := 0; run < 20; run++ {
		res, err := s.Query(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = res.PeakMemBytes
			continue
		}
		if res.PeakMemBytes != want {
			t.Fatalf("run %d: PeakMemBytes %d, run 0 had %d", run, res.PeakMemBytes, want)
		}
	}
}

// BenchmarkStreamingTopK tracks the fused top-K path: E3 (ORDER BY
// DESC rating, LIMIT 10) under the streaming executor.
func BenchmarkStreamingTopK(b *testing.B) {
	s := watdivStreamStore(b)
	q := mustQueryByName(b, "E3")
	opts := QueryOptions{Strategy: StrategyMixed, Streaming: true}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Query(q.Parsed, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SimTime.Microseconds())/1e3, "sim-ms")
	b.ReportMetric(float64(res.PeakMemBytes), "peak-B")
}
