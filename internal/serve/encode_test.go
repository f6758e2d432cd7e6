package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
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

// render runs writeResult over res and returns the body.
func render(t *testing.T, srv *Server, res *core.Result, tsv bool) string {
	t.Helper()
	w := httptest.NewRecorder()
	srv.writeResult(w, res, tsv)
	return w.Body.String()
}

// TestEncodersMatchReferenceOnNastyTerms compares whole response bodies,
// in both formats, against the old json.Marshal / strings.Join
// renderings over terms and variable names chosen to hit every escape.
func TestEncodersMatchReferenceOnNastyTerms(t *testing.T) {
	srv := testServer(t)
	terms := nastyTerms()
	var unboundCell rdf.Term
	// Rows of four cells walking the term list, with unbound cells at
	// every position, one all-unbound row and one short row.
	var rows [][]rdf.Term
	for i := 0; i+3 < len(terms); i += 3 {
		row := []rdf.Term{terms[i], terms[i+1], terms[i+2], terms[i+3]}
		row[i%4] = [2]rdf.Term{unboundCell, row[i%4]}[i%2]
		rows = append(rows, row)
	}
	rows = append(rows, []rdf.Term{{}, {}, {}, {}}, []rdf.Term{terms[2]})

	cases := []struct {
		name string
		vars []string
		rows [][]rdf.Term
	}{
		{"nasty terms", []string{"s", "p", "o", "g"}, rows},
		{"keys out of order", []string{"z", "a", "m", "B"}, rows},
		{"names needing escapes", []string{`q"uote`, "lt<gt>&", "tab\t", "sep" + string(rune(0x2028)) + "\xff"}, rows},
		{"duplicate names", []string{"x", "y", "x", "x"}, rows},
		{"more columns than names", []string{"only"}, rows},
		{"zero variables", nil, [][]rdf.Term{{}, {}}},
		{"empty variable list", []string{}, nil},
		{"zero rows", []string{"a", "b"}, nil},
	}
	for _, tc := range cases {
		for _, ordered := range []bool{true, false} {
			res := &core.Result{Vars: tc.vars, Rows: tc.rows, Ordered: ordered, SimTime: 1234567, WallTime: 7654321}
			want := res.Rows
			if !ordered {
				want = res.SortedRows()
			}
			st := sparqlStats{Rows: len(tc.rows), SimMS: 1.234567, WallMS: 7.654321, Ordered: ordered}
			if got, ref := render(t, srv, res, false), referenceJSON(tc.vars, want, st); got != ref {
				t.Errorf("%s (ordered=%v): JSON body differs from the reference\n got: %q\nwant: %q", tc.name, ordered, got, ref)
			}
			if got, ref := render(t, srv, res, true), referenceTSV(tc.vars, want); got != ref {
				t.Errorf("%s (ordered=%v): TSV body differs from the reference\n got: %q\nwant: %q", tc.name, ordered, got, ref)
			}
		}
	}
}

// TestLargeResultWrittenInPieces: a result far larger than the write
// chunk still matches the reference, reaches the ResponseWriter in
// bounded pieces, and leaves the pooled buffer about one chunk big.
func TestLargeResultWrittenInPieces(t *testing.T) {
	srv := testServer(t)
	rows := make([][]rdf.Term, 20000)
	for i := range rows {
		rows[i] = []rdf.Term{rdf.NewIRI(fmt.Sprintf("http://example.org/s%06d", i)), rdf.NewLiteral("v<" + strings.Repeat("x", i%50))}
	}
	res := &core.Result{Vars: []string{"s", "o"}, Rows: rows, Ordered: true}
	w := &pieceWriter{header: http.Header{}}
	srv.writeResult(w, res, false)
	if got, ref := w.body.String(), referenceJSON(res.Vars, rows, sparqlStats{Rows: len(rows), Ordered: true}); got != ref {
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

// TestWatDivBodiesMatchReference sends all 26 WatDiv queries through
// the handler, materialized and streamed, in both formats: each body
// must equal the reference rendering of Store.Query's rows — apart
// from stats.wallMs, which is taken from the response.
func TestWatDivBodiesMatchReference(t *testing.T) {
	srv := watdivServer(t)
	queries := append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...)
	if len(queries) != 26 {
		t.Fatalf("%d WatDiv queries, want 26", len(queries))
	}
	for _, q := range queries {
		for _, streaming := range []bool{false, true} {
			opts := srv.cfg.Options
			opts.Streaming = streaming
			res, err := srv.cfg.Store.Query(q.Parsed, opts)
			if err != nil {
				t.Fatalf("%s: Query: %v", q.Name, err)
			}
			rows := res.Rows
			if !res.Ordered {
				rows = res.SortedRows()
			}
			path := "/sparql?query=" + url.QueryEscape(q.Text)
			if streaming {
				path += "&streaming=1"
			}
			label := fmt.Sprintf("%s streaming=%v", q.Name, streaming)

			w := get(t, srv, path)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", label, w.Code, w.Body)
			}
			var doc struct{ Stats sparqlStats }
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				t.Fatalf("%s: bad JSON: %v", label, err)
			}
			st := sparqlStats{
				Rows:                len(res.Rows),
				SimMS:               float64(res.SimTime) / 1e6,
				WallMS:              doc.Stats.WallMS,
				Streamed:            res.Streamed,
				PeakMemBytes:        res.PeakMemBytes,
				Ordered:             res.Ordered,
				StreamingDowngraded: res.StreamingDowngraded,
			}
			if res.Streamed {
				st.FirstRowMS = float64(res.FirstRow) / 1e6
			}
			if got, ref := w.Body.String(), referenceJSON(res.Vars, rows, st); got != ref {
				t.Errorf("%s: JSON body differs from the reference\n got: %.600q\nwant: %.600q", label, got, ref)
			}
			if got, ref := get(t, srv, path+"&format=tsv").Body.String(), referenceTSV(res.Vars, rows); got != ref {
				t.Errorf("%s: TSV body differs from the reference\n got: %.600q\nwant: %.600q", label, got, ref)
			}
		}
	}
}

// TestEncodeAllocatesNothingWarm: with the encoder's buffers grown by
// one pass, encoding 1,000 rows of 4 variables in either format
// allocates nothing — no per-row map, no per-cell string.
func TestEncodeAllocatesNothingWarm(t *testing.T) {
	terms := nastyTerms()
	vars := []string{"s", "p", "o", "g"}
	rows := make([][]rdf.Term, 1000)
	for i := range rows {
		rows[i] = []rdf.Term{terms[i%len(terms)], terms[(i+1)%len(terms)], {}, terms[(i+3)%len(terms)]}
	}
	enc := new(respEncoder)
	encode := func() {
		enc.setVars(vars)
		enc.buf = appendJSONHead(enc.buf[:0], vars)
		for i, row := range rows {
			enc.buf = enc.appendJSONRow(enc.buf, i == 0, row)
		}
		enc.buf = appendTSVHead(enc.buf, vars)
		for _, row := range rows {
			enc.buf = appendTSVRow(enc.buf, row)
		}
	}
	encode()
	if n := testing.AllocsPerRun(10, encode); n != 0 {
		t.Errorf("encoding 1000 rows x 4 variables into a warmed buffer allocates %v times, want 0", n)
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
// allocates on top of Store.QueryContext — URL parameters, parse,
// sort, encoding, stats — is the same for 1,000 result rows as for 10.
func TestRequestAllocsIndependentOfRowCount(t *testing.T) {
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
			res, err := store.QueryContext(context.Background(), q.Parsed, core.QueryOptions{})
			if err != nil || len(res.Rows) != n {
				t.Fatalf("L1 over %d products: %d rows, err %v", n, len(res.Rows), err)
			}
		}
		request() // plan cache, pooled encoder
		whole, exec := testing.AllocsPerRun(20, request), testing.AllocsPerRun(20, query)
		t.Logf("%d rows: request %.0f allocs, Store.QueryContext %.0f", n, whole, exec)
		return whole - exec
	}
	// AllocsPerRun floors each of the four averages, so the differences
	// can sit one or two apart by rounding alone; anything paid per row
	// would show as hundreds.
	if small, large := overhead(10), overhead(1000); large > small+2 {
		t.Errorf("serving 1000 rows allocates %.0f times beyond the query itself, serving 10 rows %.0f", large, small)
	}
}
