package columnar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestChunkRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		vals []rdf.ID
	}{
		{"empty", nil},
		{"single", []rdf.ID{7}},
		{"all same", []rdf.ID{5, 5, 5, 5, 5}},
		{"all nulls", []rdf.ID{0, 0, 0, 0}},
		{"mixed runs", []rdf.ID{1, 1, 1, 0, 0, 9, 9, 9, 9, 2}},
		{"no runs", []rdf.ID{1, 2, 3, 4, 5, 6}},
		{"large values", []rdf.ID{1 << 30, 1<<30 + 1, 1 << 30}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := EncodeIDs(tt.vals)
			if c.Len() != len(tt.vals) {
				t.Fatalf("Len() = %d, want %d", c.Len(), len(tt.vals))
			}
			got, err := c.Decode()
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if len(got) != len(tt.vals) {
				t.Fatalf("decoded %d values, want %d", len(got), len(tt.vals))
			}
			for i := range tt.vals {
				if got[i] != tt.vals[i] {
					t.Errorf("value %d = %d, want %d", i, got[i], tt.vals[i])
				}
			}
		})
	}
}

func TestChunkRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		vals := make([]rdf.ID, len(raw))
		for i, v := range raw {
			vals[i] = rdf.ID(v)
		}
		got, err := EncodeIDs(vals).Decode()
		if err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRLEWinsOnRuns(t *testing.T) {
	// A NULL-dense column (the Property Table case) must choose RLE and
	// compress dramatically versus plain encoding.
	vals := make([]rdf.ID, 10000)
	vals[0] = 12345 // one non-null value
	c := EncodeIDs(vals)
	if c.Encoding() != EncRLE {
		t.Fatalf("NULL-dense column encoded as %v, want RLE", c.Encoding())
	}
	if c.SizeBytes() > 32 {
		t.Errorf("10000 NULLs occupy %d bytes under RLE, want ≤ 32", c.SizeBytes())
	}
}

func TestPlainWinsOnDistinctValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]rdf.ID, 1000)
	for i := range vals {
		vals[i] = rdf.ID(rng.Uint32()%100000 + 1)
	}
	c := EncodeIDs(vals)
	if c.Encoding() != EncPlain {
		t.Errorf("high-cardinality column encoded as %v, want PLAIN", c.Encoding())
	}
}

func TestEncodingString(t *testing.T) {
	if EncPlain.String() != "PLAIN" || EncRLE.String() != "RLE" {
		t.Errorf("encoding names wrong: %v %v", EncPlain, EncRLE)
	}
	if Encoding(9).String() != "Encoding(9)" {
		t.Errorf("unknown encoding name: %v", Encoding(9))
	}
}
