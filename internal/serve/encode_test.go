package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/testenv"
	"repro/internal/watdiv"
)

// nastyStrings are lexical forms and names every escape rule of both
// formats has to handle.
var nastyStrings = []string{
	"",
	"plain",
	`say "hi"`,
	`back\slash`,
	"tab\there\nnewline\rreturn",
	"ctl\x00\x01\x08\x0c\x1f\x7f",
	"<script>a && b</script>",
	"sep" + string(rune(0x2028)) + "and" + string(rune(0x2029)) + "end",
	"bad\xff\xfeutf8\xc3",
	"truncated\xe2\x80",
	"h\xc3\xa9llo w\xc3\xb6rld \xf0\x9f\x98\x80",
	string(rune(0xfffd)),
	`"`,
	`\`,
}

// nastyTerms covers every term kind and literal flavour over
// nastyStrings, plus a literal carrying both a datatype and a language
// and a term of an invalid kind.
func nastyTerms() []rdf.Term {
	var out []rdf.Term
	for _, s := range nastyStrings {
		out = append(out,
			rdf.NewIRI("http://example.org/"+s),
			rdf.NewBlank("b"+s),
			rdf.NewLiteral(s),
			rdf.NewLangLiteral(s, "en-GB"),
			rdf.NewTypedLiteral(s, rdf.XSDString+s),
		)
	}
	return append(out,
		rdf.Term{Kind: rdf.KindLiteral, Value: "both", Datatype: rdf.XSDString, Lang: "fr"},
		rdf.Term{Kind: rdf.KindIRI, Value: "iri ignores these", Datatype: "d", Lang: "l"},
		rdf.Term{Kind: 9, Value: "invalid kind", Lang: "x"},
	)
}

// idResult lays ids out as the ID rows QueryIDs returns: rows of width
// cells, where the columns countCols flags hold raw counts, NullID is
// unbound and any other ID is one dict issued. It sets res.Rows to the
// same rows decoded the reference way — a count as its xsd:integer
// literal, NullID as the zero Term, any other cell through the
// dictionary — so res.SortedRows is the reference display order.
func idResult(dict *rdf.Dictionary, width int, ids []rdf.ID, countCols []bool, res *core.Result) core.IDRows {
	n := 0
	if width > 0 {
		n = len(ids) / width
	}
	return idResultRows(dict, width, n, ids, countCols, res)
}

// idResultRows is idResult with the row count given, so rows of no
// cells can be counted.
func idResultRows(dict *rdf.Dictionary, width, n int, ids []rdf.ID, countCols []bool, res *core.Result) core.IDRows {
	res.Rows = make([][]rdf.Term, n)
	for i := range res.Rows {
		row := make([]rdf.Term, width)
		for j, id := range ids[i*width : (i+1)*width] {
			switch {
			case j < len(countCols) && countCols[j]:
				row[j] = rdf.NewTypedLiteral(strconv.FormatUint(uint64(id), 10), rdf.XSDInteger)
			case id != rdf.NullID:
				row[j] = dict.Term(id)
			}
		}
		res.Rows[i] = row
	}
	return core.IDRows{Block: engine.MakeBlock(width, n, ids), CountCols: countCols, Terms: dict.Snapshot()}
}

// nastyDict is a dictionary holding nastyTerms, and their IDs.
func nastyDict() (*rdf.Dictionary, []rdf.ID) {
	dict := rdf.NewDictionary()
	var ids []rdf.ID
	for _, t := range nastyTerms() {
		id, _ := dict.Encode(t)
		ids = append(ids, id)
	}
	return dict, ids
}

// render runs writeResult over res and rows and returns the body.
func render(t *testing.T, srv *Server, res *core.Result, rows core.IDRows, tsv bool) string {
	t.Helper()
	w := httptest.NewRecorder()
	srv.writeResult(w, res, rows, tsv)
	return w.Body.String()
}

// TestEncodersMatchReferenceOnNastyTerms compares whole response bodies,
// in both formats, against the old json.Marshal / strings.Join
// renderings over terms and variable names chosen to hit every escape,
// with a COUNT column among the terms.
func TestEncodersMatchReferenceOnNastyTerms(t *testing.T) {
	srv := testServer(t)
	dict, terms := nastyDict()
	// Rows of four term cells walking the term list, with unbound cells
	// at every position, and a COUNT column in the middle; three rows
	// that only their counts tell apart, which sort as their literals do
	// ("10" before "9"); one all-unbound row with a count of 0.
	const width = 5
	countCols := []bool{false, false, true, false, false}
	var ids []rdf.ID
	for i := 0; i+3 < len(terms); i += 3 {
		row := []rdf.ID{terms[i], terms[i+1], rdf.ID(i % 13), terms[i+2], terms[i+3]}
		if k := i / 3; k%2 == 0 {
			row[[4]int{0, 1, 3, 4}[k/2%4]] = rdf.NullID
		}
		ids = append(ids, row...)
	}
	for _, count := range []rdf.ID{9, 100, 10} {
		ids = append(ids, terms[5], terms[6], count, terms[7], terms[8])
	}
	ids = append(ids, rdf.NullID, rdf.NullID, 0, rdf.NullID, rdf.NullID)

	cases := []struct {
		name string
		vars []string
		ids  []rdf.ID
	}{
		{"nasty terms", []string{"s", "p", "n", "o", "g"}, ids},
		{"keys out of order", []string{"z", "a", "m", "B", "c"}, ids},
		{"names needing escapes", []string{`q"uote`, "lt<gt>&", "tab\t", "sep" + string(rune(0x2028)) + "\xff", ""}, ids},
		{"duplicate names", []string{"x", "y", "x", "x", "y"}, ids},
		{"more columns than names", []string{"only"}, ids},
		{"zero rows", []string{"a", "b", "n", "c", "d"}, nil},
	}
	check := func(name string, vars []string, ordered bool, res *core.Result, rows core.IDRows) {
		t.Helper()
		want := res.Rows
		if !ordered {
			want = res.SortedRows()
		}
		st := sparqlStats{Rows: len(res.Rows), SimMS: 1.234567, WallMS: 7.654321, Ordered: ordered}
		if got, ref := render(t, srv, res, rows, false), referenceJSON(vars, want, st); got != ref {
			t.Errorf("%s (ordered=%v): JSON body differs from the reference\n got: %q\nwant: %q", name, ordered, got, ref)
		}
		if got, ref := render(t, srv, res, rows, true), referenceTSV(vars, want); got != ref {
			t.Errorf("%s (ordered=%v): TSV body differs from the reference\n got: %q\nwant: %q", name, ordered, got, ref)
		}
	}
	for _, tc := range cases {
		for _, ordered := range []bool{true, false} {
			res := &core.Result{Vars: tc.vars, Ordered: ordered, SimTime: 1234567, WallTime: 7654321}
			check(tc.name, tc.vars, ordered, res, idResult(dict, width, tc.ids, countCols, res))
		}
	}
	// None or two rows of no cells, under no variable list and an empty
	// one.
	for _, vars := range [][]string{nil, {}} {
		for _, n := range []int{0, 2} {
			res := &core.Result{Vars: vars, SimTime: 1234567, WallTime: 7654321}
			check(fmt.Sprintf("%d zero-width rows", n), vars, false, res, idResultRows(dict, 0, n, nil, nil, res))
		}
	}
}

// TestLargeResultWrittenInPieces: a result far larger than the write
// chunk still matches the reference, reaches the ResponseWriter in
// bounded pieces, and leaves the pooled buffer about one chunk big and
// the pooled cells and order within maxPooledCells.
func TestLargeResultWrittenInPieces(t *testing.T) {
	srv := testServer(t)
	dict := rdf.NewDictionary()
	const n = 20000
	ids := make([]rdf.ID, 0, 3*n)
	for i := 0; i < n; i++ {
		o, _ := dict.Encode(rdf.NewLiteral("v<" + strings.Repeat("x", i%50)))
		if i%7 == 0 {
			o = rdf.NullID
		}
		s, _ := dict.Encode(rdf.NewIRI(fmt.Sprintf("http://example.org/s%06d", i)))
		ids = append(ids, s, o, rdf.ID(i%23))
	}
	res := &core.Result{Vars: []string{"s", "o", "n"}, Ordered: true}
	rows := idResult(dict, 3, ids, []bool{false, false, true}, res)
	w := &pieceWriter{header: http.Header{}}
	srv.writeResult(w, res, rows, false)
	if got, ref := w.body.String(), referenceJSON(res.Vars, res.Rows, sparqlStats{Rows: n, Ordered: true}); got != ref {
		t.Errorf("large JSON body differs from the reference (%d vs %d bytes)", len(got), len(ref))
	}
	if w.writes < 10 || w.largest > 2*writeChunkBytes {
		t.Errorf("%d writes, largest %d bytes; want many pieces of about %d", w.writes, w.largest, writeChunkBytes)
	}
	enc := encoderPool.Get().(*respEncoder)
	defer enc.release()
	if cap(enc.buf) > 4*writeChunkBytes {
		t.Errorf("pooled buffer holds %d bytes after a large response", cap(enc.buf))
	}
	if b := enc.rows.RetainedBytes(); b > maxPooledRowBytes {
		t.Errorf("pooled encoder keeps %d bytes of decoded rows after a large response, bound %d", b, maxPooledRowBytes)
	}
}

// pieceWriter records how a response body reached it.
type pieceWriter struct {
	header          http.Header
	body            strings.Builder
	writes, largest int
}

func (w *pieceWriter) Header() http.Header { return w.header }
func (w *pieceWriter) WriteHeader(int)     {}
func (w *pieceWriter) Write(b []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(b))
	return w.body.Write(b)
}

// FuzzAppendJSONString holds the string encoder to encoding/json's
// output, whatever the bytes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("appendJSONString(%q) = %s, json.Marshal gives %s", s, got[1:], want)
		}
	})
}

// jsonSink keeps the benchmarked encodes from being optimised away.
var jsonSink int

// BenchmarkAppendJSONString encodes the text of every term of a WatDiv
// graph (scale 150, seed 7: IRIs, plain, typed and a few escaped
// literals) as JSON strings, as /sparql bodies carry them; one op is
// all of them.
func BenchmarkAppendJSONString(b *testing.B) {
	var texts []string
	var n int64
	for _, t := range watdiv.MustGenerate(watdiv.Config{Scale: 150, Seed: 7}).Triples() {
		for _, term := range []rdf.Term{t.S, t.P, t.O} {
			for _, s := range []string{term.Value, term.Datatype, term.Lang} {
				if s != "" {
					texts = append(texts, s)
					n += int64(len(s))
				}
			}
		}
	}
	b.SetBytes(n)
	buf := make([]byte, 0, 4096)
	for b.Loop() {
		for _, s := range texts {
			buf = appendJSONString(buf[:0], s)
		}
		jsonSink += len(buf)
	}
}

// watdivServer loads a small WatDiv graph behind a Server. The plan
// cache is off, so no execution corrects a plan and a query's simulated
// time does not depend on which executions came before it.
func watdivServer(t testing.TB) *Server {
	t.Helper()
	g := watdiv.MustGenerate(watdiv.Config{Scale: 150, Seed: 7})
	store, err := core.Load(g, core.Options{Cluster: cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 6})})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	srv, err := New(Config{Store: store, Options: core.QueryOptions{NoPlanCache: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// extraDiffQueries extend the WatDiv queries in the differential test:
// an OPTIONAL query whose unbound cells fall at several positions, a
// GROUP BY … COUNT query without ORDER BY whose count column leads, so
// the display sort orders rows by their counts' literals ("10" before
// "9"), and an ORDER BY query without LIMIT over far more rows than
// MaxRows shows, of which only the rows shown are decoded.
var extraDiffQueries = []struct{ name, text string }{
	{"optional-unbound", `PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
PREFIX sorg: <http://schema.org/>
PREFIX foaf: <http://xmlns.com/foaf/>
SELECT ?a ?u ?e ?city WHERE {
	?u wsdbm:likes ?p .
	OPTIONAL { ?u foaf:age ?a . }
	OPTIONAL { ?u sorg:email ?e . }
	OPTIONAL { ?u wsdbm:livesIn ?city . }
}`},
	{"count-unordered", `PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
SELECT (COUNT(?u) AS ?n) ?f WHERE { ?u wsdbm:follows ?f . } GROUP BY ?f`},
	{"ordered-unlimited", `PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
SELECT ?u ?p WHERE { ?u wsdbm:likes ?p . } ORDER BY DESC(?p) ?u`},
}

// TestWatDivBodiesMatchReference is the differential test of the ID-row
// path: every /sparql body — JSON and TSV, materialized and
// ?streaming=1, from a local store, from one that truncates at MaxRows
// and from a 2-shard coordinator — must equal the reference rendering of
// Store.QueryContext's rows for the same query (SortedRows, or Rows when
// ordered), apart from stats.wallMs, which is taken from the response.
// The queries are the 26 WatDiv ones and extraDiffQueries. Released
// query regions are poisoned, so a body written from rows still in the
// region fails to decode.
func TestWatDivBodiesMatchReference(t *testing.T) {
	defer engine.PoisonReleased(engine.PoisonReleased(true))
	local := watdivServer(t)
	store := local.cfg.Store
	truncating, err := New(Config{Store: store, Options: local.cfg.Options, MaxRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := shardCoordinator(t, store, 2)
	sharded, err := New(Config{Store: store, Options: core.QueryOptions{NoPlanCache: true, Dist: coord}})
	if err != nil {
		t.Fatal(err)
	}
	type query struct{ name, text string }
	var queries []query
	for _, q := range append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...) {
		queries = append(queries, query{q.Name, q.Text})
	}
	for _, q := range extraDiffQueries {
		queries = append(queries, query{q.name, q.text})
	}
	if len(queries) != 29 {
		t.Fatalf("%d queries, want 29", len(queries))
	}
	var unboundCols [4]bool
	countOrderDiffers := false
	for _, srv := range []struct {
		name string
		*Server
	}{{"local", local}, {"max-rows", truncating}, {"2 shards", sharded}} {
		for _, q := range queries {
			parsed, err := sparql.Parse(q.text)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			for _, streaming := range []bool{false, true} {
				label := fmt.Sprintf("%s %s streaming=%v", srv.name, q.name, streaming)
				opts := srv.cfg.Options
				opts.Streaming = streaming
				res, err := store.QueryContext(context.Background(), parsed, opts)
				if err != nil {
					t.Fatalf("%s: QueryContext: %v", label, err)
				}
				rows := res.Rows
				if !res.Ordered {
					rows = res.SortedRows()
				}
				st := sparqlStats{
					Rows:                len(res.Rows),
					SimMS:               float64(res.SimTime) / 1e6,
					Streamed:            res.Streamed,
					PeakMemBytes:        res.PeakMemBytes,
					Ordered:             res.Ordered,
					StreamingDowngraded: res.StreamingDowngraded,
				}
				if res.Streamed {
					st.FirstRowMS = float64(res.FirstRow) / 1e6
				}
				if max := srv.cfg.MaxRows; max > 0 && len(rows) > max {
					rows, st.Truncated = rows[:max], true
				}
				switch q.name {
				case "optional-unbound":
					for _, row := range rows {
						for j, c := range row {
							unboundCols[j] = unboundCols[j] || unbound(c)
						}
					}
				case "ordered-unlimited":
					if !res.Ordered || len(res.Rows) <= 7 {
						t.Fatalf("%s: %d rows, ordered=%v; want an ordered result of more than 7", label, len(res.Rows), res.Ordered)
					}
				case "count-unordered":
					for i := 1; i < len(rows); i++ {
						a, _ := strconv.Atoi(rows[i-1][0].Value)
						b, _ := strconv.Atoi(rows[i][0].Value)
						countOrderDiffers = countOrderDiffers || a > b
					}
				}

				path := "/sparql?query=" + url.QueryEscape(q.text)
				if streaming {
					path += "&streaming=1"
				}
				w := get(t, srv.Server, path)
				if w.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", label, w.Code, w.Body)
				}
				var doc struct{ Stats sparqlStats }
				if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
					t.Fatalf("%s: bad JSON: %v", label, err)
				}
				st.WallMS = doc.Stats.WallMS
				if got, ref := w.Body.String(), referenceJSON(res.Vars, rows, st); got != ref {
					t.Errorf("%s: JSON body differs from the reference\n got: %.600q\nwant: %.600q", label, got, ref)
				}
				if got, ref := get(t, srv.Server, path+"&format=tsv").Body.String(), referenceTSV(res.Vars, rows); got != ref {
					t.Errorf("%s: TSV body differs from the reference\n got: %.600q\nwant: %.600q", label, got, ref)
				}
			}
		}
	}
	if n := len(slices.DeleteFunc(unboundCols[:], func(b bool) bool { return !b })); n < 2 {
		t.Errorf("the OPTIONAL query left cells unbound in %d columns, want at least 2", n)
	}
	if !countOrderDiffers {
		t.Error("the COUNT query's display order never puts a larger count first: the literal order is not exercised")
	}
}

// TestEncodeAllocatesNothingWarm: with the encoder's buffers grown by
// one pass, decoding 1,000 ID rows of 4 variables and a COUNT column
// into its cells, sorting them for display and encoding them in either
// format allocates nothing — no per-row map, no per-cell string.
func TestEncodeAllocatesNothingWarm(t *testing.T) {
	testenv.SkipUnderRace(t)
	dict, terms := nastyDict()
	vars := []string{"s", "p", "o", "n", "g"}
	ids := make([]rdf.ID, 0, 5*1000)
	for i := 0; i < 1000; i++ {
		ids = append(ids, terms[i%len(terms)], terms[(i+1)%len(terms)], rdf.NullID, rdf.ID(i), terms[(i+3)%len(terms)])
	}
	rows := core.IDRows{Block: engine.MakeBlock(5, 1000, ids), CountCols: []bool{false, false, false, true}, Terms: dict.Snapshot()}
	enc := new(respEncoder)
	encode := func() {
		enc.rows.Decode(rows, false, 0)
		enc.setVars(vars)
		enc.buf = appendJSONHead(enc.buf[:0], vars)
		for i := range enc.rows.Len() {
			enc.buf = enc.appendJSONRow(enc.buf, i == 0, enc.rows.Row(i))
		}
		enc.buf = appendTSVHead(enc.buf, vars)
		for i := range enc.rows.Len() {
			enc.buf = appendTSVRow(enc.buf, enc.rows.Row(i))
		}
	}
	encode()
	if n := testenv.AllocsPerRun(t, 10, encode); n != 0 {
		t.Errorf("decoding, sorting and encoding 1000 rows x 5 columns into warmed buffers allocates %v times, want 0", n)
	}
}

// linearStore holds the graph WatDiv's L1 walks — one user liking n
// products, each with a caption — so the same query returns n rows.
func linearStore(t testing.TB, n int) *core.Store {
	t.Helper()
	g := rdf.NewGraph(0)
	likes, caption := rdf.NewIRI(watdiv.NSwsdbm+"likes"), rdf.NewIRI("http://schema.org/caption")
	for i := 0; i < n; i++ {
		g.AddSPO(watdiv.UserIRI(3), likes, watdiv.ProductIRI(i))
		g.AddSPO(watdiv.ProductIRI(i), caption, rdf.NewLiteral(fmt.Sprintf("caption <%d>", i)))
	}
	store, err := core.Load(g, core.Options{Cluster: cluster.MustNew(cluster.Config{Workers: 3, DefaultPartitions: 4})})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return store
}

// discardWriter is a ResponseWriter that keeps nothing, so a request's
// allocations are the handler's own.
type discardWriter struct{ header http.Header }

func (w discardWriter) Header() http.Header         { return w.header }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestRequestAllocsIndependentOfRowCount: what a whole /sparql request
// allocates on top of Store.QueryIDs, the query it runs — URL
// parameters, parse, decode, sort, encoding, stats — is the same for
// 1,000 result rows as for 10.
func TestRequestAllocsIndependentOfRowCount(t *testing.T) {
	testenv.SkipUnderRace(t)
	q, err := watdiv.QueryByName("L1")
	if err != nil {
		t.Fatal(err)
	}
	target := "/sparql?query=" + url.QueryEscape(q.Text)
	overhead := func(n int) float64 {
		store := linearStore(t, n)
		srv, err := New(Config{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		w := discardWriter{header: http.Header{}}
		request := func() {
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		}
		query := func() {
			_, rows, err := store.QueryIDs(context.Background(), q.Parsed, core.QueryOptions{})
			if err != nil || rows.Len() != n {
				t.Fatalf("L1 over %d products: %d rows, err %v", n, rows.Len(), err)
			}
		}
		request() // plan cache, pooled encoder
		whole, exec := testenv.AllocsPerRun(t, 20, request), testenv.AllocsPerRun(t, 20, query)
		t.Logf("%d rows: request %.0f allocs, Store.QueryIDs %.0f", n, whole, exec)
		return whole - exec
	}
	// AllocsPerRun floors each of the four averages, so the differences
	// can sit one or two apart by rounding alone; anything paid per row
	// would show as hundreds.
	if small, large := overhead(10), overhead(1000); large > small+2 {
		t.Errorf("serving 1000 rows allocates %.0f times beyond the query itself, serving 10 rows %.0f", large, small)
	}
}
