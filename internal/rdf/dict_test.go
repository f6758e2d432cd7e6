package rdf

import (
	"fmt"
	"math/rand"
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
		d.Encode(term)
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
				if viaBytes {
					d.EncodeBytes(spans[i])
				} else {
					d.Encode(terms[i])
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
// terms. An op with the high bit set repeats its text past a page.
func FuzzDictionary(f *testing.F) {
	f.Add([]byte{0x04, 2, 2, 'a', 'b', 0x04, 2, 1 + 9*1, 'a', 'b', 0x05, 2, 1 + 9*1, 'a', 'b'})
	f.Add([]byte{0x00, 0, 0, 0x01, 0, 0, 0x02, 0, 0, 0x04, 0, 0, 0x08, 0, 0, 0x0b, 0, 0})
	f.Add([]byte{0x04, 3, 1 + 9*2, 'x', 'e', 'n', 0x08, 3, 0, 'x', 'e', 'n', 0x81, 4, 4, 'b', 'i', 'g', '!', 0x80, 4, 4, 'b', 'i', 'g', '!', 0x03, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDictionary()
		ref := map[Term]ID{}
		var order []Term
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
			switch op & 3 {
			case 0:
				got = d.Encode(term)
			case 1:
				buf = append(buf[:0], text...)
				got = d.EncodeBytes(TermBytes{Kind: term.Kind, Value: buf[:c1], Datatype: buf[c1:c2], Lang: buf[c2:]})
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
			if got != want {
				t.Fatalf("interning %q gave ID %d, want %d", term, got, want)
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

// termSink keeps the benchmarked lookups from being optimised away.
var termSink int

// BenchmarkDictionaryTerm resolves 4,096 random IDs of a 50,000-term
// dictionary, once through Term per ID and once through one Snapshot.
func BenchmarkDictionaryTerm(b *testing.B) {
	d := NewDictionary()
	for i := 0; i < 50000; i++ {
		d.Encode(NewIRI(fmt.Sprintf("http://example.org/entity/%d", i)))
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
