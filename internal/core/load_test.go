package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rdf"
	"repro/internal/testenv"
	"repro/internal/watdiv"
)

// loadBoth loads one dataset through both entry points: the graph
// through Load, its N-Triples text (or the given text) through
// LoadNTriples.
func loadBoth(t *testing.T, g *rdf.Graph, doc []byte, opts Options) (fromGraph, fromText *Store) {
	t.Helper()
	opts.Cluster = cluster.MustNew(cluster.DefaultConfig())
	fromGraph, err := Load(g, opts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	opts.Cluster = cluster.MustNew(cluster.DefaultConfig())
	fromText, err = LoadNTriples(bytes.NewReader(doc), opts)
	if err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	return fromGraph, fromText
}

// sameStore fails the test unless the two loads decided everything
// alike: the report (the virtual clock and the stored bytes included),
// the statistics, every dictionary ID, the retained triples, every VP
// partition's rows, both Property Tables and every file the loads
// wrote.
func sameStore(t *testing.T, a, b *Store) {
	t.Helper()
	ra, rb := a.LoadReport(), b.LoadReport()
	ra.WallTime, rb.WallTime = 0, 0
	if ra != rb {
		t.Errorf("load reports differ:\n Load         %+v\n LoadNTriples %+v", ra, rb)
	}
	if fa, fb := a.stats.Fingerprint(), b.stats.Fingerprint(); fa != fb {
		t.Errorf("statistics fingerprints differ: %x vs %x", fa, fb)
	}
	if (a.stats.Joins == nil) != (b.stats.Joins == nil) || a.stats.Joins != nil && !reflect.DeepEqual(a.stats.Joins.CSets, b.stats.Joins.CSets) {
		t.Errorf("characteristic sets differ")
	}
	if da, db := dictDigest(a), dictDigest(b); da != db {
		t.Errorf("dictionary digests differ: %#x vs %#x", da, db)
	}
	if a.dict.Len() != b.dict.Len() {
		t.Fatalf("dictionaries hold %d and %d terms", a.dict.Len(), b.dict.Len())
	}
	for id := rdf.ID(1); int(id) <= a.dict.Len(); id++ {
		if ta, tb := a.dict.Term(id), b.dict.Term(id); ta != tb {
			t.Fatalf("ID %d is %v in one dictionary and %v in the other", id, ta, tb)
		}
	}
	if !reflect.DeepEqual(a.triples, b.triples) {
		t.Errorf("retained triples differ")
	}
	if !reflect.DeepEqual(a.predOrder, b.predOrder) {
		t.Fatalf("predicate orders differ: %v vs %v", a.predOrder, b.predOrder)
	}
	for _, pred := range a.predOrder {
		va, vb := a.vp[pred], b.vp[pred]
		if va.FileBytes != vb.FileBytes {
			t.Errorf("VP table %d is %d bytes in one store and %d in the other", pred, va.FileBytes, vb.FileBytes)
		}
		for p := 0; p < va.Rel.Partitions(); p++ {
			if !reflect.DeepEqual(va.Rel.Part(p), vb.Rel.Part(p)) {
				t.Errorf("VP table %d partition %d holds different rows", pred, p)
			}
		}
	}
	samePropertyTable(t, "property table", a.pt, b.pt)
	samePropertyTable(t, "inverse property table", a.ipt, b.ipt)
	sameFiles(t, a, b)
}

// samePropertyTable fails the test unless the two tables hold the same
// columns, partition by partition, and price them alike.
func samePropertyTable(t *testing.T, what string, a, b *PropertyTable) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Errorf("one store has a %s and the other none", what)
		}
		return
	}
	if a.numKeys != b.numKeys || a.fileBytes != b.fileBytes || a.keyBytes != b.keyBytes {
		t.Errorf("%s: %d keys, %d file bytes, %d key bytes in one store; %d, %d, %d in the other",
			what, a.numKeys, a.fileBytes, a.keyBytes, b.numKeys, b.fileBytes, b.keyBytes)
	}
	if !reflect.DeepEqual(a.colBytes, b.colBytes) {
		t.Errorf("%s: column sizes differ", what)
	}
	if !reflect.DeepEqual(a.cols, b.cols) {
		t.Errorf("%s: column sets differ", what)
	}
	if len(a.parts) != len(b.parts) {
		t.Fatalf("%s: %d partitions in one store, %d in the other", what, len(a.parts), len(b.parts))
	}
	for p := range a.parts {
		if !reflect.DeepEqual(a.parts[p].cols, b.parts[p].cols) {
			t.Errorf("%s: partition %d holds different columns", what, p)
		}
	}
}

// sameFiles fails the test unless the two stores wrote the same files
// under their path prefix: the same paths, each of the same size.
func sameFiles(t *testing.T, a, b *Store) {
	t.Helper()
	pa, pb := a.fs.ListPrefix(a.opts.PathPrefix+"/"), b.fs.ListPrefix(b.opts.PathPrefix+"/")
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("the stores wrote %d and %d files, not the same paths", len(pa), len(pb))
	}
	for _, path := range pa {
		if sa, sb := fileSize(t, a, path), fileSize(t, b, path); sa != sb {
			t.Errorf("%s: %d bytes in one store, %d in the other", path, sa, sb)
		}
	}
}

// fileSize is the size of the one file stored at path.
func fileSize(t *testing.T, s *Store, path string) int64 {
	t.Helper()
	if got := s.fs.ListPrefix(path); len(got) != 1 {
		t.Fatalf("%d files have the prefix %s", len(got), path)
	}
	return s.fs.LogicalBytes(path)
}

// The parent commit's load of WatDiv scale 1000 / seed 1 under default
// options, frozen: the loader may get cheaper on the real clock, never
// different on the virtual one.
const (
	frozenTriples    = 21694
	frozenInputBytes = 2903343
	frozenSizeBytes  = 559743
	frozenLoadTimeNs = 7464068678
)

func TestLoadEntryPointsAgreeOnWatDiv(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 1000, Seed: 1})
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, g); err != nil {
		t.Fatal(err)
	}
	a, b := loadBoth(t, g, doc.Bytes(), Options{})
	sameStore(t, a, b)
	for _, s := range []*Store{a, b} {
		r := s.LoadReport()
		if r.Triples != frozenTriples || r.InputBytes != frozenInputBytes ||
			r.SizeBytes != frozenSizeBytes || int64(r.LoadTime) != frozenLoadTimeNs {
			t.Errorf("load report moved: triples %d input %d size %d load %d ns, frozen %d / %d / %d / %d",
				r.Triples, r.InputBytes, r.SizeBytes, int64(r.LoadTime),
				frozenTriples, frozenInputBytes, frozenSizeBytes, int64(frozenLoadTimeNs))
		}
	}
	for _, q := range append(watdiv.BasicQuerySet(), watdiv.ExtendedQuerySet()...) {
		ra, err := a.QueryContext(context.Background(), q.Parsed, QueryOptions{})
		if err != nil {
			t.Fatalf("%s on the graph-loaded store: %v", q.Name, err)
		}
		rb, err := b.QueryContext(context.Background(), q.Parsed, QueryOptions{})
		if err != nil {
			t.Fatalf("%s on the text-loaded store: %v", q.Name, err)
		}
		if ra.SimTime != rb.SimTime || !reflect.DeepEqual(ra.Rows, rb.Rows) {
			t.Errorf("%s: %d rows in %v from the graph, %d rows in %v from the text",
				q.Name, len(ra.Rows), ra.SimTime, len(rb.Rows), rb.SimTime)
		}
	}
	a, b = loadBoth(t, g, doc.Bytes(), Options{BuildInversePT: true, DisableJoinStats: true})
	sameStore(t, a, b)
}

// TestLoadSizedFromAnyReader loads one document from a *bytes.Reader
// and from a file, whose sizes size the ingest's dedup set and triple
// table up front, from a file read past its first line, and from a
// reader that tells no size, whose set and table grow as they fill:
// every store must be the graph's, down to a triple table of exactly
// the triples kept.
func TestLoadSizedFromAnyReader(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 1000, Seed: 1})
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.nt")
	text := append([]byte("# a comment line\n"), doc.Bytes()...)
	if err := os.WriteFile(path, text, 0o600); err != nil {
		t.Fatal(err)
	}
	open := func(skip int64) *os.File {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if _, err := f.Seek(skip, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		return f
	}
	want, err := Load(g, Options{Cluster: cluster.MustNew(cluster.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	skip := int64(len("# a comment line\n"))
	for _, in := range []struct {
		name string
		r    io.Reader
		size int64
	}{
		{"bytes.Reader", bytes.NewReader(doc.Bytes()), int64(doc.Len())},
		{"file", open(0), int64(len(text))},
		{"file past its first line", open(skip), int64(doc.Len())},
		{"unsized reader", struct{ io.Reader }{bytes.NewReader(doc.Bytes())}, -1},
	} {
		if got := readerSize(in.r); got != in.size {
			t.Errorf("%s: readerSize = %d, want %d", in.name, got, in.size)
		}
		s, err := LoadNTriples(in.r, Options{Cluster: cluster.MustNew(cluster.DefaultConfig())})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		sameStore(t, want, s)
		if len(s.triples) != cap(s.triples) {
			t.Errorf("%s: the triple table holds %d triples in room for %d", in.name, len(s.triples), cap(s.triples))
		}
	}
}

// TestLoadSameAtAnyParallelism loads one document with the table builds
// on one worker and on four (GOMAXPROCS bounds a stage's workers): the
// encoding runs as tasks in any order, but what is stored, written,
// priced and summed must not notice.
func TestLoadSameAtAnyParallelism(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 1000, Seed: 1})
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, g); err != nil {
		t.Fatal(err)
	}
	load := func(procs int, doc []byte, opts Options) (*Store, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		opts.Cluster = cluster.MustNew(cluster.DefaultConfig())
		return LoadNTriples(bytes.NewReader(doc), opts)
	}
	mustLoad := func(procs int, doc []byte, opts Options) *Store {
		s, err := load(procs, doc, opts)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		return s
	}
	// The WatDiv text (about 2.9 MB) spans many of the reader's windows.
	for _, opts := range []Options{{}, {BuildInversePT: true}} {
		sameStore(t, mustLoad(1, doc.Bytes(), opts), mustLoad(4, doc.Bytes(), opts))
	}

	// The first 300 KB of lines, several 64 KiB windows, with a line
	// longer than a window, its literal escaped, among them.
	head := doc.Bytes()[:bytes.LastIndexByte(doc.Bytes()[:300_000], '\n')+1]
	lexical := strings.Repeat("x\ty", 40_000)
	long := "<http://ex/s> <http://ex/p> \"" + strings.ReplaceAll(lexical, "\t", "\\t") + "\" .\n"
	cut := bytes.LastIndexByte(head[:100_000], '\n') + 1
	withLong := slices.Concat(head[:cut], []byte(long), head[cut:])
	a := mustLoad(1, withLong, Options{})
	if _, ok := a.dict.Lookup(rdf.NewLiteral(lexical)); !ok {
		t.Errorf("the long line's literal was not loaded")
	}
	sameStore(t, a, mustLoad(4, withLong, Options{}))

	// A syntax error in a late window reports its own line at any
	// parallelism.
	lines := bytes.Count(head, []byte{'\n'})
	bad := slices.Concat(head, []byte("<http://ex/s> <http://ex/p> oops .\n"), head[:1000])
	for _, procs := range []int{1, 4} {
		_, err := load(procs, bad, Options{})
		var pe *rdf.ParseError
		if !errors.As(err, &pe) || pe.Line != lines+1 {
			t.Errorf("GOMAXPROCS %d: a syntax error on line %d came back as %v", procs, lines+1, err)
		}
	}
}

// nastyDoc is everything the N-Triples reader has to cope with, and
// nastyGraph the same triples built by hand, duplicates in place.
const nastyDoc = "# a comment, then a blank line\r\n" +
	"\r\n" +
	"<http://ex/s1> <http://ex/p> \"5\" .\r\n" +
	"<http://ex/s1> <http://ex/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n" +
	"<http://ex/s1> <http://ex/p> \"5\"@en .\n" +
	"<http://ex/s1> <http://ex/p> \"5\" .\n" + // an exact duplicate
	"  \t<http://ex/s1>\t<http://ex/q>   <http://ex/s2>   .  \n" +
	"_:b0 <http://ex/p> _:b1 .\r\n" +
	"   # an indented comment\n" +
	"_:b1 <http://ex/q> \"tab\\there \\\"quoted\\\" back\\\\slash\\nnew\\rline\" .\n" +
	"<http://ex/s2> <http://ex/q> \"\\u00e9t\\u00E9 \\U0001F600\"@fr .\n" +
	"<http://ex/s2> <http://ex/q> \"été 😀\"@fr .\n" + // the same term, unescaped
	"<http://ex/s2> <http://ex/p> <http://ex/s1> .\n" +
	"<http://ex/s2> <http://ex/p> \"\" .\n" +
	"_:b0 <http://ex/p> _:b1 .\n" +
	"<http://ex/s1> <http://ex/p> \"http://ex/s1\" ." // no final newline

func nastyGraph() *rdf.Graph {
	iri, lit := rdf.NewIRI, rdf.NewLiteral
	g := rdf.NewGraph(0)
	g.AddSPO(iri("http://ex/s1"), iri("http://ex/p"), lit("5"))
	g.AddSPO(iri("http://ex/s1"), iri("http://ex/p"), rdf.NewTypedLiteral("5", rdf.XSDInteger))
	g.AddSPO(iri("http://ex/s1"), iri("http://ex/p"), rdf.NewLangLiteral("5", "en"))
	g.AddSPO(iri("http://ex/s1"), iri("http://ex/p"), lit("5"))
	g.AddSPO(iri("http://ex/s1"), iri("http://ex/q"), iri("http://ex/s2"))
	g.AddSPO(rdf.NewBlank("b0"), iri("http://ex/p"), rdf.NewBlank("b1"))
	g.AddSPO(rdf.NewBlank("b1"), iri("http://ex/q"), lit("tab\there \"quoted\" back\\slash\nnew\rline"))
	g.AddSPO(iri("http://ex/s2"), iri("http://ex/q"), rdf.NewLangLiteral("été 😀", "fr"))
	g.AddSPO(iri("http://ex/s2"), iri("http://ex/q"), rdf.NewLangLiteral("été 😀", "fr"))
	g.AddSPO(iri("http://ex/s2"), iri("http://ex/p"), iri("http://ex/s1"))
	g.AddSPO(iri("http://ex/s2"), iri("http://ex/p"), lit(""))
	g.AddSPO(rdf.NewBlank("b0"), iri("http://ex/p"), rdf.NewBlank("b1"))
	g.AddSPO(iri("http://ex/s1"), iri("http://ex/p"), lit("http://ex/s1"))
	return g
}

func TestLoadEntryPointsAgreeOnNastyDocument(t *testing.T) {
	g := nastyGraph()
	a, b := loadBoth(t, g, []byte(nastyDoc), Options{BuildInversePT: true})
	sameStore(t, a, b)
	if got, want := b.LoadReport().Triples, int64(g.Len()-3); got != want {
		t.Errorf("loaded %d triples, want %d (three duplicates dropped)", got, want)
	}
	// IDs are handed out in input order, S then P then O, duplicates and
	// all; every flavour of "5" is its own term.
	want := []rdf.Term{
		rdf.NewIRI("http://ex/s1"), rdf.NewIRI("http://ex/p"), rdf.NewLiteral("5"),
		rdf.NewTypedLiteral("5", rdf.XSDInteger), rdf.NewLangLiteral("5", "en"),
		rdf.NewIRI("http://ex/q"), rdf.NewIRI("http://ex/s2"),
		rdf.NewBlank("b0"), rdf.NewBlank("b1"),
	}
	for i, term := range want {
		if got := b.dict.Term(rdf.ID(i + 1)); got != term {
			t.Errorf("ID %d is %v, want %v", i+1, got, term)
		}
	}
	_, err := LoadNTriples(strings.NewReader(nastyDoc+"\n<http://ex/s> <http://ex/p> oops .\n"), Options{Cluster: a.cluster})
	var pe *rdf.ParseError
	if !errors.As(err, &pe) || pe.Line != 17 {
		t.Errorf("a syntax error on line 17 came back as %v", err)
	}
}

// frozenDictDigest is the FNV-1a digest of (ID, N-Triples form) over
// every term of the WatDiv scale-1000 / seed-1 text load, taken before
// the dictionary's internals changed: IDs drive hash placement and the
// LIMIT order, so no change to the dictionary may move one.
const frozenDictDigest = 0xfebf066e27cd1791

// TestDictionaryIDsPinned holds every term's ID to the frozen digest.
func TestDictionaryIDsPinned(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 1000, Seed: 1})
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, g); err != nil {
		t.Fatal(err)
	}
	s, err := LoadNTriples(&doc, Options{Cluster: cluster.MustNew(cluster.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	if got := dictDigest(s); got != frozenDictDigest {
		t.Errorf("dictionary of %d terms digests to %#x, frozen %#x: an ID moved", s.dict.Len(), got, uint64(frozenDictDigest))
	}
}

// frozenSizesDigest is the FNV-1a digest of every size the WatDiv
// scale-1000 / seed-1 text load prices, without and with the inverse
// Property Table, taken while the loader still built each columnar
// file to measure it: every HDFS path with its size, and each Property
// Table's file, key-column and per-predicate column bytes.
const frozenSizesDigest = 0xd2e9880fd5d9dbb0

// dictDigest is the FNV-1a digest of (ID, N-Triples form) over every
// term of the store's dictionary.
func dictDigest(s *Store) uint64 {
	h := fnv.New64a()
	var buf []byte
	for id := rdf.ID(1); int(id) <= s.dict.Len(); id++ {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(id))
		buf = append(s.dict.Term(id).AppendNTriples(buf), '\n')
		h.Write(buf)
	}
	return h.Sum64()
}

// TestLoadSizesFrozen holds every priced byte to the frozen digest:
// sizing a file must give what encoding it gave, byte for byte.
func TestLoadSizesFrozen(t *testing.T) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 1000, Seed: 1})
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, g); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf []byte
	put := func(vals ...int64) {
		buf = buf[:0]
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	for _, opts := range []Options{{}, {BuildInversePT: true}} {
		opts.Cluster = cluster.MustNew(cluster.DefaultConfig())
		s, err := LoadNTriples(bytes.NewReader(doc.Bytes()), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range s.fs.ListPrefix(s.opts.PathPrefix + "/") {
			h.Write([]byte(path))
			put(fileSize(t, s, path))
		}
		for _, pt := range []*PropertyTable{s.pt, s.ipt} {
			if pt == nil {
				continue
			}
			put(pt.fileBytes, pt.keyBytes)
			preds := slices.Sorted(maps.Keys(pt.colBytes))
			for _, p := range preds {
				put(int64(p), pt.colBytes[p])
			}
		}
	}
	if got := h.Sum64(); got != frozenSizesDigest {
		t.Errorf("the load's sizes digest to %#x, frozen %#x: a priced byte moved", got, uint64(frozenSizesDigest))
	}
}

// TestRetainedDictionaryBytes holds the dictionary of the benchmark's
// fixture, WatDiv scale 10,000 / seed 1 (216,080 triples, 74,345
// terms), to what its layout retains: 12-byte records in whole chunks,
// one text copy of the two datatype IRIs, and an index of 131,072
// slots, grown past two thirds full. The old layout (24-byte records in
// a doubled array, each literal's datatype written out again, an index
// kept at most half full) retained 36.4 bytes per triple.
func TestRetainedDictionaryBytes(t *testing.T) {
	s, err := Load(watdiv.MustGenerate(watdiv.Config{Scale: 10000, Seed: 1}), Options{Cluster: cluster.MustNew(cluster.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	r := s.LoadReport()
	d, terms := r.Retained.Dictionary, int64(s.dict.Len())
	perTriple := float64(d.Total()) / float64(r.Triples)
	t.Logf("%d triples, %d terms: dictionary %.1f B per triple; store %.1f B per triple, %+v",
		r.Triples, terms, perTriple, float64(r.Retained.Total())/float64(r.Triples), r.Retained)
	if r.Triples != 216_080 || terms != 74_345 {
		t.Fatalf("the fixture moved: %d triples, %d terms", r.Triples, terms)
	}
	if perTriple > 21.5 {
		t.Errorf("the dictionary retains %.1f B per triple, want at most 21.5", perTriple)
	}
	if chunk := int64(4096 * 12); d.Records > 12*terms+chunk+1024 {
		t.Errorf("records take %d bytes for %d terms: more than 12 B each and one chunk's slack", d.Records, terms)
	}
	if d.Index != 131_072*4 {
		t.Errorf("the index takes %d bytes, want 131,072 four-byte slots", d.Index)
	}
	if r.Retained.Triples != 12*r.Triples || r.Retained.VP <= 0 || r.Retained.PT <= 0 || r.Retained.InversePT != 0 || r.Retained.Stats <= 0 {
		t.Errorf("retained breakdown %+v", r.Retained)
	}
}

// TestLoadPredicateNamedKey loads a document whose predicate IRI is
// <key>, the name of the Property Table's key column. Columns are sized
// by position, so the load succeeds, and it prices exactly like the
// same document with a predicate name of the same length.
func TestLoadPredicateNamedKey(t *testing.T) {
	doc := func(pred string) string {
		return "<http://ex/s1> <" + pred + "> <http://ex/o1> .\n" +
			"<http://ex/s1> <" + pred + "> <http://ex/o2> .\n" +
			"<http://ex/s2> <" + pred + "> <http://ex/o1> .\n" +
			"<http://ex/s2> <http://ex/p> \"v\" .\n"
	}
	for _, inverse := range []bool{false, true} {
		load := func(pred string) *Store {
			s, err := LoadNTriples(strings.NewReader(doc(pred)), Options{
				Cluster:        cluster.MustNew(cluster.DefaultConfig()),
				BuildInversePT: inverse,
			})
			if err != nil {
				t.Fatalf("inverse PT %v, predicate <%s>: %v", inverse, pred, err)
			}
			return s
		}
		key, kex := load("key"), load("kex")
		rk, rx := key.LoadReport(), kex.LoadReport()
		rk.WallTime, rx.WallTime = 0, 0
		if rk != rx {
			t.Errorf("inverse PT %v: <key> loads as %+v, <kex> as %+v", inverse, rk, rx)
		}
		for _, pair := range [][2]*PropertyTable{{key.pt, kex.pt}, {key.ipt, kex.ipt}} {
			a, b := pair[0], pair[1]
			if a == nil || b == nil {
				continue
			}
			if a.fileBytes != b.fileBytes || a.keyBytes != b.keyBytes || !reflect.DeepEqual(a.colBytes, b.colBytes) {
				t.Errorf("inverse PT %v: <key> prices %d/%d/%v, <kex> %d/%d/%v", inverse,
					a.fileBytes, a.keyBytes, a.colBytes, b.fileBytes, b.keyBytes, b.colBytes)
			}
		}
	}
}

// loadCost loads WatDiv scale 4000 / seed 1 from text and returns what
// the load allocated per input triple: objects and bytes.
func loadCost(t *testing.T) (mallocs, allocated float64) {
	g := watdiv.MustGenerate(watdiv.Config{Scale: 4000, Seed: 1})
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, g); err != nil {
		t.Fatal(err)
	}
	opts := Options{Cluster: cluster.MustNew(cluster.DefaultConfig())}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LoadNTriples(bytes.NewReader(doc.Bytes()), opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := float64(g.Len())
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestLoadNTriplesAllocs bounds what the loader allocates for a
// document: at most 0.055 objects per input triple, tables, statistics
// and dictionary included, at the benchmark's load scale (measured
// 0.043 on two processors, 0.047 on eight; the string-per-line,
// Graph-then-encode loader took 4.1 there, a string per new term and a
// map-backed dictionary 0.89, building each columnar file to measure it
// 0.47, and three objects per characteristic set and two per sized
// file 0.10). The tables' share is per partition file, not per triple,
// so the ratio rises on smaller inputs.
func TestLoadNTriplesAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	perTriple, _ := loadCost(t)
	t.Logf("%.3f mallocs per input triple", perTriple)
	if perTriple > 0.055 {
		t.Errorf("loading allocated %.3f objects per input triple, want at most 0.055", perTriple)
	}
}

// TestLoadNTriplesBytes bounds the bytes a load allocates per input
// triple at the same scale: the dictionary writes its text once into
// pages, the dedup keeps no map and the files are sized without being
// encoded, so what is allocated is mostly what is kept (a growing
// map-backed dictionary and a map dedup allocated about 640 B, and
// encoding every file to measure it 318 B).
func TestLoadNTriplesBytes(t *testing.T) {
	testenv.SkipUnderRace(t)
	_, perTriple := loadCost(t)
	t.Logf("%.0f bytes allocated per input triple", perTriple)
	if perTriple > 250 {
		t.Errorf("loading allocated %.0f bytes per input triple, want at most 250", perTriple)
	}
}
