package rdf

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/testenv"
)

func TestDictionaryEncodeLookup(t *testing.T) {
	d := NewDictionary()
	a := NewIRI("http://a")
	b := NewLiteral("b")

	ida := mustEncode(t, d, a)
	idb := mustEncode(t, d, b)
	if ida == NullID || idb == NullID {
		t.Fatalf("Encode returned NullID")
	}
	if ida == idb {
		t.Fatalf("distinct terms share ID %d", ida)
	}
	if got := mustEncode(t, d, a); got != ida {
		t.Errorf("re-Encode(a) = %d, want %d", got, ida)
	}
	if got := d.Term(ida); got != a {
		t.Errorf("Term(%d) = %v, want %v", ida, got, a)
	}
	if id, ok := d.Lookup(b); !ok || id != idb {
		t.Errorf("Lookup(b) = %d,%v", id, ok)
	}
	if _, ok := d.Lookup(NewIRI("http://missing")); ok {
		t.Errorf("Lookup of missing term succeeded")
	}
	if d.Len() != 2 {
		t.Errorf("Len() = %d, want 2", d.Len())
	}
}

func TestDictionaryDistinguishesLiteralFlavours(t *testing.T) {
	d := NewDictionary()
	ids := map[ID]bool{
		mustEncode(t, d, NewLiteral("x")):                 true,
		mustEncode(t, d, NewTypedLiteral("x", XSDString)): true,
		mustEncode(t, d, NewLangLiteral("x", "en")):       true,
		mustEncode(t, d, NewIRI("x")):                     true,
		mustEncode(t, d, NewBlank("x")):                   true,
	}
	if len(ids) != 5 {
		t.Errorf("same-value terms of different kinds collapsed: %d distinct IDs, want 5", len(ids))
	}
}

func TestDictionaryTermPanicsOnInvalid(t *testing.T) {
	d := NewDictionary()
	mustEncode(t, d, NewIRI("http://a"))
	for _, id := range []ID{NullID, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Term(%d) did not panic", id)
				}
			}()
			d.Term(id)
		}()
	}
}

// TestSnapshotDecodeRowsInPlace: DecodeInto writes the term Term
// returns into every cell of a row, and the zero Term where the row
// holds NullID, whatever the cell held before, allocating nothing.
func TestSnapshotDecodeRowsInPlace(t *testing.T) {
	testenv.SkipUnderRace(t)
	d := NewDictionary()
	for _, term := range []Term{
		NewIRI("http://a"), NewLiteral("x"), NewTypedLiteral("7", XSDInteger),
		NewLangLiteral("chat", "fr"), NewBlank("b0"), NewLiteral(""),
	} {
		mustEncode(t, d, term)
	}
	terms := d.Snapshot()
	ids := []ID{3, NullID, 1, 6, 4, NullID, 2, 5}
	dst := make([]Term, len(ids)+1)
	for j := range dst {
		dst[j] = NewIRI("stale")
	}
	if n := testenv.AllocsPerRun(t, 10, func() { terms.DecodeInto(dst, ids) }); n != 0 {
		t.Errorf("DecodeInto allocated %.0f times, want 0", n)
	}
	for j, id := range ids {
		want := Term{}
		if id != NullID {
			want = d.Term(id)
		}
		if dst[j] != want {
			t.Errorf("cell %d (ID %d) = %#v, want %#v", j, id, dst[j], want)
		}
	}
	if dst[len(ids)] != NewIRI("stale") {
		t.Errorf("DecodeInto wrote past the row: %#v", dst[len(ids)])
	}
}

func TestDictionaryEncodeGraph(t *testing.T) {
	g := NewGraph(0)
	g.AddSPO(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("1"))
	g.AddSPO(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("2"))
	d := NewDictionary()
	enc := d.EncodeGraph(g)
	if len(enc) != 2 {
		t.Fatalf("encoded %d triples, want 2", len(enc))
	}
	if enc[0].S != enc[1].S || enc[0].P != enc[1].P {
		t.Errorf("shared terms got different IDs: %+v %+v", enc[0], enc[1])
	}
	if enc[0].O == enc[1].O {
		t.Errorf("distinct objects share ID")
	}
	// s, p, "1", "2" = 4 distinct terms
	if d.Len() != 4 {
		t.Errorf("dictionary Len() = %d, want 4", d.Len())
	}
}

func TestDictionaryConcurrentEncode(t *testing.T) {
	d := NewDictionary()
	const goroutines = 8
	const termsPer = 200
	var wg sync.WaitGroup
	results := make([][]ID, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			ids := make([]ID, termsPer)
			for i := 0; i < termsPer; i++ {
				// All goroutines intern the same term set.
				id, err := d.Encode(NewIRI(fmt.Sprintf("http://t/%d", i)))
				if err != nil {
					t.Error(err) // not Fatal: this is not the test's goroutine
					return
				}
				ids[i] = id
			}
			results[gi] = ids
		}(gi)
	}
	wg.Wait()
	if d.Len() != termsPer {
		t.Fatalf("dictionary has %d terms, want %d", d.Len(), termsPer)
	}
	for gi := 1; gi < goroutines; gi++ {
		for i := range results[0] {
			if results[gi][i] != results[0][i] {
				t.Fatalf("goroutine %d saw ID %d for term %d, goroutine 0 saw %d",
					gi, results[gi][i], i, results[0][i])
			}
		}
	}
}

func TestDictionaryEncodeDecodePropery(t *testing.T) {
	d := NewDictionary()
	f := func(v string, kind uint8) bool {
		term := Term{Kind: TermKind(kind % 3), Value: v}
		id := mustEncode(t, d, term)
		return d.Term(id) == term && id != NullID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDictionaryConcurrentEncodeAndTerm exercises the lock-free read
// path under the race detector: readers resolve every ID below Len
// while a writer keeps interning, and so keeps adding record chunks,
// text pages (a long literal now and then gets one of its own) and
// tags; each must see exactly the term that ID was issued for.
func TestDictionaryConcurrentEncodeAndTerm(t *testing.T) {
	d := NewDictionary()
	const terms = 3*chunkRecs + 100
	name := func(i int) Term {
		switch i % 4 {
		case 0:
			return NewIRI(fmt.Sprintf("http://t/%d", i))
		case 1:
			return NewTypedLiteral(fmt.Sprint(i), fmt.Sprintf("http://dt/%d", i%7))
		case 2:
			return NewLangLiteral(fmt.Sprint(i), fmt.Sprintf("l%d", i%5))
		}
		if i%1000 == 3 {
			return NewLiteral(strings.Repeat(fmt.Sprint(i), 10_000))
		}
		return Term{Kind: KindLiteral, Value: fmt.Sprint(i), Datatype: "http://dt/x", Lang: "en"}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last pass over the full dictionary
				default:
				}
				for n := d.Len(); n > 0; n -= 1 + n/64 {
					// The single writer issues IDs in order: ID n is term n-1.
					if got := d.Term(ID(n)); got != name(n-1) {
						t.Errorf("Term(%d) = %v, want %v", n, got, name(n-1))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < terms; i++ {
		if id := mustEncode(t, d, name(i)); id != ID(i+1) {
			t.Fatalf("Encode issued ID %d for term %d", id, i)
		}
	}
	close(done)
	wg.Wait()
	if d.Len() != terms {
		t.Fatalf("Len() = %d, want %d", d.Len(), terms)
	}
	if v := d.view.Load(); len(v.pages) < 8 || len(v.tags) < 13 {
		t.Errorf("the writer made %d pages and %d tags; the test wants to cross more of them", len(v.pages), len(v.tags))
	}
}

// TestDictionaryManyTags interns 70,000 distinct datatype IRIs, more
// than a 16-bit tag could count and far more than a record's tag can,
// then lang-only and datatype-and-lang literals: the pairs past the
// last tag are kept beside their terms' values, and every term still
// round-trips, looks up and re-interns to its ID, whichever side of that
// line its pair fell on.
func TestDictionaryManyTags(t *testing.T) {
	d := NewDictionary()
	const datatypes, pairs = 70_000, 72_000
	term := func(i int) Term {
		switch {
		case i < datatypes:
			return NewTypedLiteral(fmt.Sprint(i%10), fmt.Sprintf("http://example.org/datatype/%d", i))
		case i%2 == 0:
			return NewLangLiteral("v", fmt.Sprintf("x-%d", i))
		}
		return Term{Kind: KindLiteral, Value: "v", Datatype: fmt.Sprintf("http://example.org/datatype/%d", i%datatypes), Lang: "en"}
	}
	for i := range pairs {
		if id := mustEncode(t, d, term(i)); id != ID(i+1) {
			t.Fatalf("term %d got ID %d", i, id)
		}
	}
	if got := len(d.tags); got != tagInline {
		t.Fatalf("%d tags in use, want all %d", got, tagInline)
	}
	terms := d.Snapshot()
	for i := range pairs {
		want, id := term(i), ID(i+1)
		if got := terms.Term(id); got != want {
			t.Fatalf("Term(%d) = %#v, want %#v", id, got, want)
		}
		if got, ok := d.Lookup(want); !ok || got != id {
			t.Fatalf("Lookup(%#v) = %d, %v, want %d", want, got, ok, id)
		}
		if got := mustEncode(t, d, want); got != id {
			t.Fatalf("re-interning %#v gave %d, want %d", want, got, id)
		}
	}
	for _, missing := range []Term{
		NewTypedLiteral("v", "http://example.org/datatype/1"),     // a tagged pair, another value
		NewTypedLiteral("v", "http://example.org/datatype/69999"), // an inline pair, another value
		NewTypedLiteral("1", "http://example.org/datatype/none"),  // a pair no term carried
	} {
		if id, ok := d.Lookup(missing); ok {
			t.Errorf("Lookup(%#v) found ID %d", missing, id)
		}
	}
	if d.Len() != pairs {
		t.Errorf("Len() = %d, want %d", d.Len(), pairs)
	}
}

// TestDictionaryTermTooLong: a term whose text is longer than
// MaxTermBytes is a *TermTooLongError from both entry points and is
// never found, while one of exactly MaxTermBytes interns.
func TestDictionaryTermTooLong(t *testing.T) {
	d := NewDictionary()
	atLimit := NewTypedLiteral(strings.Repeat("x", MaxTermBytes-len(XSDString)), XSDString)
	over := NewLangLiteral(strings.Repeat("x", MaxTermBytes), "en")
	id := mustEncode(t, d, atLimit)
	if got := d.Term(id); got != atLimit {
		t.Errorf("the term at the limit came back %d bytes long", len(got.Value))
	}
	_, err := d.Encode(over)
	_, errBytes := d.EncodeBytes(TermBytes{Kind: over.Kind, Value: []byte(over.Value), Lang: []byte(over.Lang)})
	for _, err := range []error{err, errBytes} {
		var long *TermTooLongError
		if !errors.As(err, &long) || long.Bytes != MaxTermBytes+2 {
			t.Errorf("interning %d bytes: %v, want a *TermTooLongError", MaxTermBytes+2, err)
		}
	}
	if _, ok := d.Lookup(over); ok || d.Len() != 1 {
		t.Errorf("the term over the limit was found or kept: %d terms", d.Len())
	}
}

// TestTermRecordLayout: a record is at most 12 bytes and holds no
// pointer, so the chunks cost what the records do and the collector
// never scans them.
func TestTermRecordLayout(t *testing.T) {
	typ := reflect.TypeOf(termRec{})
	if typ.Size() > 12 {
		t.Errorf("a record is %d bytes, want at most 12", typ.Size())
	}
	for i := range typ.NumField() {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("record field %s is a %s; records hold integers only", typ.Field(i).Name, k)
		}
	}
}

// TestDictionaryEncodeBytes holds the span entry point to Encode: the
// same IDs for the same terms, the literal flavours kept apart, nothing
// allocated for a term already known, and a new term's strings copied
// out of the caller's buffer.
func TestDictionaryEncodeBytes(t *testing.T) {
	testenv.SkipUnderRace(t)
	terms := []Term{
		NewIRI("http://example.org/a"),
		NewLiteral("http://example.org/a"),
		NewBlank("http://example.org/a"),
		NewTypedLiteral("5", XSDInteger),
		NewLangLiteral("5", "en"),
		NewLiteral("5"),
		NewLiteral(""),
	}
	span := func(t Term) TermBytes {
		return TermBytes{Kind: t.Kind, Value: []byte(t.Value), Datatype: []byte(t.Datatype), Lang: []byte(t.Lang)}
	}
	d, ref := NewDictionary(), NewDictionary()
	for round := 0; round < 2; round++ {
		for _, term := range terms {
			buf := span(term)
			id, err := d.EncodeBytes(buf)
			if err != nil {
				t.Fatal(err)
			}
			if want := mustEncode(t, ref, term); id != want {
				t.Errorf("EncodeBytes(%v) = %d, Encode gives %d", term, id, want)
			}
			for _, b := range [][]byte{buf.Value, buf.Datatype, buf.Lang} {
				for i := range b {
					b[i] = '!' // the reader's next line
				}
			}
			if got := d.Term(id); got != term {
				t.Errorf("Term(%d) = %v after the buffer was reused, want %v", id, got, term)
			}
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("dictionary holds %d terms, want %d", d.Len(), len(terms))
	}
	known := span(terms[3])
	if avg := testenv.AllocsPerRun(t, 100, func() { d.EncodeBytes(known) }); avg != 0 {
		t.Errorf("interning a known term allocated %.1f times, want 0", avg)
	}
}

// TestDictionaryNewTermsAllocs: a new term costs no allocation of its
// own. What interning allocates is a text page now and then and the
// record array and index doubling, so a thousand new terms cost at most
// two allocations, whichever entry point interns them.
func TestDictionaryNewTermsAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	const batch, runs = 1000, 20
	spans := make([]TermBytes, batch*(runs+1))
	terms := make([]Term, len(spans))
	for i := range spans {
		terms[i] = NewIRI(fmt.Sprintf("http://example.org/entity/%d", i))
		if i%3 == 0 {
			terms[i] = NewTypedLiteral(fmt.Sprint(i), XSDInteger)
		}
		spans[i] = TermBytes{Kind: terms[i].Kind, Value: []byte(terms[i].Value), Datatype: []byte(terms[i].Datatype)}
	}
	for _, viaBytes := range []bool{false, true} {
		d, next := NewDictionary(), 0
		avg := testenv.AllocsPerRun(t, runs, func() {
			for i := next; i < next+batch; i++ {
				var err error
				if viaBytes {
					_, err = d.EncodeBytes(spans[i])
				} else {
					_, err = d.Encode(terms[i])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			next += batch
		})
		if d.Len() != len(terms) {
			t.Fatalf("dictionary holds %d terms, want %d", d.Len(), len(terms))
		}
		if avg > 2 {
			t.Errorf("interning %d new terms (EncodeBytes: %v) allocated %.1f times, want at most 2", batch, viaBytes, avg)
		}
	}
}

// FuzzDictionary holds the dictionary to a map[Term]ID reference: Encode,
// EncodeBytes, Lookup, Term and Snapshot agree with it, and IDs are
// dense in first-seen order. Each op is three bytes — what to do and
// with which kind, how many of the following bytes are the term's text,
// and where that text splits into value, datatype and language tag —
// so the same bytes split two ways ("ab"+"" against "a"+"b") are two
// terms. An op with the high bit set repeats its text past a page. An
// input that starts with 0xff first gives every tag but the last to a
// pair of its own, so the input's own pairs run out of tags.
func FuzzDictionary(f *testing.F) {
	f.Add([]byte{0x04, 2, 2, 'a', 'b', 0x04, 2, 1 + 9*1, 'a', 'b', 0x05, 2, 1 + 9*1, 'a', 'b'})
	f.Add([]byte{0x00, 0, 0, 0x01, 0, 0, 0x02, 0, 0, 0x04, 0, 0, 0x08, 0, 0, 0x0b, 0, 0})
	f.Add([]byte{0x04, 3, 1 + 9*2, 'x', 'e', 'n', 0x08, 3, 0, 'x', 'e', 'n', 0x81, 4, 4, 'b', 'i', 'g', '!', 0x80, 4, 4, 'b', 'i', 'g', '!', 0x03, 1, 0})
	// One text as a datatype-only, a lang-only and a both literal.
	mixed := []byte{0x04, 6, 2 + 9*4, 'a', 'b', 'c', 'd', 'e', 'f', 0x05, 6, 2, 'a', 'b', 'c', 'd', 'e', 'f',
		0x04, 6, 2 + 9*2, 'a', 'b', 'c', 'd', 'e', 'f', 0x06, 6, 2 + 9*2, 'a', 'b', 'c', 'd', 'e', 'f', 0x07, 0, 2}
	f.Add(mixed)
	f.Add(append([]byte{0xff}, mixed...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDictionary()
		ref := map[Term]ID{}
		var order []Term
		if len(data) > 0 && data[0] == 0xff {
			data = data[1:]
			for i := 1; i < tagInline-1; i++ {
				term := NewTypedLiteral("", fmt.Sprint(i))
				ref[term] = mustEncode(t, d, term)
				order = append(order, term)
			}
		}
		var buf []byte // EncodeBytes' spans, overwritten after every call
		bigs := 0
		for len(data) >= 3 {
			op, n, cuts := data[0], int(data[1])%16, data[2]
			data = data[3:]
			n = min(n, len(data))
			text := string(data[:n])
			data = data[n:]
			if op&0x80 != 0 && bigs < 2 && text != "" {
				bigs++
				text = strings.Repeat(text, maxPageBytes/len(text)+1)
			}
			c1 := min(int(cuts%9), len(text))
			c2 := min(c1+int(cuts/9%9), len(text))
			term := Term{Kind: TermKind(op >> 2 % 3), Value: text[:c1], Datatype: text[c1:c2], Lang: text[c2:]}
			want, known := ref[term]
			if !known {
				want = ID(len(order) + 1)
			}
			var got ID
			var err error
			switch op & 3 {
			case 0:
				got, err = d.Encode(term)
			case 1:
				buf = append(buf[:0], text...)
				got, err = d.EncodeBytes(TermBytes{Kind: term.Kind, Value: buf[:c1], Datatype: buf[c1:c2], Lang: buf[c2:]})
				for i := range buf {
					buf[i] = '!'
				}
			case 2:
				id, ok := d.Lookup(term)
				if ok != known || (known && id != want) {
					t.Fatalf("Lookup(%q) = %d, %v; the reference holds %d, %v", term, id, ok, ref[term], known)
				}
				continue
			case 3:
				if len(order) > 0 {
					id := ID(int(cuts)%len(order) + 1)
					if got := d.Term(id); got != order[id-1] {
						t.Fatalf("Term(%d) = %q, want %q", id, got, order[id-1])
					}
				}
				continue
			}
			if err != nil || got != want {
				t.Fatalf("interning %q gave ID %d (%v), want %d", term, got, err, want)
			}
			if !known {
				ref[term] = want
				order = append(order, term)
			}
		}
		snap := d.Snapshot()
		if d.Len() != len(order) {
			t.Fatalf("dictionary holds %d terms, the reference %d", d.Len(), len(order))
		}
		for i, term := range order {
			id := ID(i + 1)
			if got := d.Term(id); got != term {
				t.Fatalf("Term(%d) = %q, want %q", id, got, term)
			}
			if got := snap.Term(id); got != term {
				t.Fatalf("Snapshot().Term(%d) = %q, want %q", id, got, term)
			}
			if got, ok := d.Lookup(term); !ok || got != id {
				t.Fatalf("Lookup(%q) = %d, %v, want %d", term, got, ok, id)
			}
		}
	})
}

// mustEncode interns term, failing tb on an error.
func mustEncode(tb testing.TB, d *Dictionary, term Term) ID {
	tb.Helper()
	id, err := d.Encode(term)
	if err != nil {
		tb.Fatal(err)
	}
	return id
}

// termSink keeps the benchmarked lookups from being optimised away.
var termSink int

// BenchmarkDictionaryTerm resolves 4,096 random IDs of a 50,000-term
// dictionary, once through Term per ID and once through one Snapshot.
func BenchmarkDictionaryTerm(b *testing.B) {
	d := NewDictionary()
	for i := 0; i < 50000; i++ {
		mustEncode(b, d, NewIRI(fmt.Sprintf("http://example.org/entity/%d", i)))
	}
	rng := rand.New(rand.NewSource(1))
	ids := make([]ID, 4096)
	for i := range ids {
		ids[i] = ID(rng.Intn(d.Len()) + 1)
	}
	b.Run("per-call", func(b *testing.B) {
		for b.Loop() {
			for _, id := range ids {
				termSink += len(d.Term(id).Value)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		for b.Loop() {
			terms := d.Snapshot()
			for _, id := range ids {
				termSink += len(terms.Term(id).Value)
			}
		}
	})
}
