package rdf

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestDictionaryEncodeLookup(t *testing.T) {
	d := NewDictionary()
	a := NewIRI("http://a")
	b := NewLiteral("b")

	ida := d.Encode(a)
	idb := d.Encode(b)
	if ida == NullID || idb == NullID {
		t.Fatalf("Encode returned NullID")
	}
	if ida == idb {
		t.Fatalf("distinct terms share ID %d", ida)
	}
	if got := d.Encode(a); got != ida {
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
		d.Encode(NewLiteral("x")):                 true,
		d.Encode(NewTypedLiteral("x", XSDString)): true,
		d.Encode(NewLangLiteral("x", "en")):       true,
		d.Encode(NewIRI("x")):                     true,
		d.Encode(NewBlank("x")):                   true,
	}
	if len(ids) != 5 {
		t.Errorf("same-value terms of different kinds collapsed: %d distinct IDs, want 5", len(ids))
	}
}

func TestDictionaryTermPanicsOnInvalid(t *testing.T) {
	d := NewDictionary()
	d.Encode(NewIRI("http://a"))
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

func TestDictionaryTripleRoundTrip(t *testing.T) {
	d := NewDictionary()
	tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLangLiteral("o", "de"))
	enc := d.EncodeTriple(tr)
	if got := d.DecodeTriple(enc); got != tr {
		t.Errorf("round trip = %v, want %v", got, tr)
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
				ids[i] = d.Encode(NewIRI(fmt.Sprintf("http://t/%d", i)))
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
		id := d.Encode(term)
		return d.Term(id) == term && id != NullID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDictionaryApproxBytes(t *testing.T) {
	d := NewDictionary()
	if d.ApproxBytes() != 0 {
		t.Errorf("empty dictionary ApproxBytes() = %d, want 0", d.ApproxBytes())
	}
	d.Encode(NewIRI("http://example.org/abcd"))
	if d.ApproxBytes() <= 0 {
		t.Errorf("ApproxBytes() = %d, want > 0", d.ApproxBytes())
	}
}

// TestDictionaryConcurrentEncodeAndTerm exercises the lock-free read
// path under the race detector: readers resolve every ID below Len
// while a writer keeps interning (and so keeps moving the backing
// array); each must see exactly the term that ID was issued for.
func TestDictionaryConcurrentEncodeAndTerm(t *testing.T) {
	d := NewDictionary()
	const terms = 20000
	name := func(i int) Term { return NewIRI(fmt.Sprintf("http://t/%d", i)) }
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
		if id := d.Encode(name(i)); id != ID(i+1) {
			t.Fatalf("Encode issued ID %d for term %d", id, i)
		}
	}
	close(done)
	wg.Wait()
	if d.Len() != terms {
		t.Fatalf("Len() = %d, want %d", d.Len(), terms)
	}
}

// TestDictionaryEncodeBytes holds the span entry point to Encode: the
// same IDs for the same terms, the literal flavours kept apart, nothing
// allocated for a term already known, and a new term's strings copied
// out of the caller's buffer.
func TestDictionaryEncodeBytes(t *testing.T) {
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
			id := d.EncodeBytes(buf)
			if want := ref.Encode(term); id != want {
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
	if avg := testing.AllocsPerRun(100, func() { d.EncodeBytes(known) }); avg != 0 {
		t.Errorf("interning a known term allocated %.1f times, want 0", avg)
	}
}
