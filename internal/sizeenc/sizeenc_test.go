package sizeenc

import (
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/testenv"
)

// termSet interns terms and returns their IDs the way
// CompressedTermBytes takes them: ascending and distinct.
func termSet(dict *rdf.Dictionary, terms ...rdf.Term) []rdf.ID {
	ids := make([]rdf.ID, 0, len(terms))
	for _, t := range terms {
		id, _ := dict.Encode(t)
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

func TestCompressedTermBytesEmpty(t *testing.T) {
	d := rdf.NewDictionary()
	n := CompressedTermBytes(d, nil)
	if n <= 0 || n > 16 {
		t.Errorf("empty set compressed to %d bytes, want a small flate header", n)
	}
}

func TestCompressedTermBytesGrowsWithContent(t *testing.T) {
	d := rdf.NewDictionary()
	small := termSet(d, rdf.NewIRI("http://example.org/a"))
	var terms []rdf.Term
	for i := 0; i < 500; i++ {
		terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i)))
	}
	big := termSet(d, terms...)
	sSmall := CompressedTermBytes(d, small)
	sBig := CompressedTermBytes(d, big)
	if sBig <= sSmall {
		t.Errorf("500 terms (%d bytes) not larger than 1 term (%d bytes)", sBig, sSmall)
	}
	// Shared prefixes must compress well below the raw string volume.
	var raw int64
	for _, id := range big {
		raw += int64(len(d.Term(id).Value))
	}
	if sBig >= raw {
		t.Errorf("compressed %d bytes ≥ raw %d bytes; deflate gained nothing", sBig, raw)
	}
}

func TestCompressedTermBytesDeterministic(t *testing.T) {
	d := rdf.NewDictionary()
	ids := termSet(d,
		rdf.NewIRI("http://example.org/x"),
		rdf.NewLiteral("hello"),
		rdf.NewTypedLiteral("5", rdf.XSDInteger),
		rdf.NewLangLiteral("chat", "fr"),
	)
	a := CompressedTermBytes(d, ids)
	b := CompressedTermBytes(d, ids)
	if a != b {
		t.Errorf("same input compressed to %d then %d bytes", a, b)
	}
}

// freshTermBytes is CompressedTermBytes as it was before the writer
// pool and the sorted-slice term sets: a new deflate writer per call,
// one write per string, the set a map it orders itself.
func freshTermBytes(t *testing.T, dict *rdf.Dictionary, ids map[rdf.ID]struct{}) int64 {
	t.Helper()
	ordered := make([]rdf.ID, 0, len(ids))
	for id := range ids {
		ordered = append(ordered, id)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	cw := &CountingWriter{}
	fw, err := flate.NewWriter(cw, flate.BestSpeed)
	if err != nil {
		t.Fatalf("flate.NewWriter: %v", err)
	}
	for _, id := range ordered {
		term := dict.Term(id)
		io.WriteString(fw, term.Value)
		io.WriteString(fw, term.Datatype)
		io.WriteString(fw, term.Lang)
		fw.Write([]byte{'\n'})
	}
	fw.Close()
	return cw.N
}

// TestCompressedTermBytesPooledEqualsFresh: a recycled writer must size
// a term set exactly as a fresh one does, whatever it compressed
// before — the stored file sizes (Table 1) depend on it.
func TestCompressedTermBytesPooledEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := rdf.NewDictionary()
	var all []rdf.ID
	for i := 0; i < 8000; i++ {
		var term rdf.Term
		switch rng.Intn(4) {
		case 0:
			term = rdf.NewIRI(fmt.Sprintf("http://example.org/%c/entity%d", 'a'+rune(rng.Intn(5)), rng.Intn(1e6)))
		case 1:
			term = rdf.NewLiteral(fmt.Sprintf("text %x %x", rng.Int63(), rng.Int63()))
		case 2:
			term = rdf.NewTypedLiteral(fmt.Sprint(rng.Intn(1000)), rdf.XSDInteger)
		default:
			term = rdf.NewLangLiteral(fmt.Sprintf("mot%d", rng.Intn(500)), "fr")
		}
		id, _ := d.Encode(term)
		all = append(all, id)
	}
	for round := 0; round < 100; round++ {
		ids := make(map[rdf.ID]struct{})
		var sorted []rdf.ID
		for n := rng.Intn(6000); n > 0; n-- { // from nothing to several deflate blocks
			id := all[rng.Intn(len(all))]
			ids[id] = struct{}{}
			sorted = append(sorted, id)
		}
		slices.Sort(sorted)
		sorted = slices.Compact(sorted)
		if got, want := CompressedTermBytes(d, sorted), freshTermBytes(t, d, ids); got != want {
			t.Fatalf("round %d (%d terms): pooled writer gave %d bytes, fresh writer %d", round, len(ids), got, want)
		}
	}
}

// TestCompressedTermBytesAllocs pins a warm call at no allocation: the
// pooled sizer holds the writer, its counter and the record buffer.
func TestCompressedTermBytesAllocs(t *testing.T) {
	d := rdf.NewDictionary()
	var terms []rdf.Term
	for i := range 200 {
		terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://example.org/entity%d", i)),
			rdf.NewLangLiteral(fmt.Sprintf("label %d", i), "en"))
	}
	ids := termSet(d, terms...)
	CompressedTermBytes(d, ids) // warm the pool
	if n := testenv.AllocsPerRun(t, 100, func() { CompressedTermBytes(d, ids) }); n != 0 {
		t.Errorf("CompressedTermBytes made %v allocations per warm call, want 0", n)
	}
}

func TestCountingWriter(t *testing.T) {
	var w CountingWriter
	n, err := w.Write([]byte("hello"))
	if err != nil || n != 5 || w.N != 5 {
		t.Errorf("Write = %d,%v N=%d", n, err, w.N)
	}
	w.Write([]byte(" world"))
	if w.N != 11 {
		t.Errorf("N = %d, want 11", w.N)
	}
}
