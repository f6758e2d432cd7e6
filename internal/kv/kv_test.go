package kv

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func flushedStore(t *testing.T, keys ...string) *Store {
	t.Helper()
	s := NewStore(0)
	for _, k := range keys {
		s.Put([]byte(k), nil)
	}
	s.Flush()
	return s
}

func TestPutFlushSortsAndDedupes(t *testing.T) {
	s := NewStore(0)
	s.Put([]byte("c"), []byte("1"))
	s.Put([]byte("a"), []byte("2"))
	s.Put([]byte("b"), []byte("3"))
	s.Put([]byte("a"), []byte("4")) // overwrite
	s.Flush()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	entries, _, err := s.ScanRange(nil, nil)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	wantKeys := []string{"a", "b", "c"}
	for i, e := range entries {
		if string(e.Key) != wantKeys[i] {
			t.Errorf("entry %d key = %q, want %q", i, e.Key, wantKeys[i])
		}
	}
	// Last write wins.
	if string(entries[0].Value) != "4" {
		t.Errorf("overwritten value = %q, want 4", entries[0].Value)
	}
}

func TestScanRequiresFlush(t *testing.T) {
	s := NewStore(0)
	s.Put([]byte("a"), nil)
	if _, _, err := s.ScanRange(nil, nil); err != ErrNotFlushed {
		t.Errorf("scan on unflushed store err = %v, want ErrNotFlushed", err)
	}
	s.Flush()
	if _, _, err := s.ScanRange(nil, nil); err != nil {
		t.Errorf("scan after flush err = %v", err)
	}
	s.Put([]byte("b"), nil) // new write invalidates
	if _, _, err := s.ScanRange(nil, nil); err != ErrNotFlushed {
		t.Errorf("scan after new write err = %v, want ErrNotFlushed", err)
	}
}

func TestScanRange(t *testing.T) {
	s := flushedStore(t, "apple", "banana", "cherry", "date", "fig")
	entries, stats, err := s.ScanRange([]byte("banana"), []byte("date"))
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if len(entries) != 2 || string(entries[0].Key) != "banana" || string(entries[1].Key) != "cherry" {
		t.Errorf("entries = %v", entries)
	}
	if stats.Seeks != 1 || stats.Entries != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.BytesRead != int64(len("banana")+len("cherry")) {
		t.Errorf("BytesRead = %d", stats.BytesRead)
	}
}

func TestScanRangeEmptyResult(t *testing.T) {
	s := flushedStore(t, "a", "b")
	entries, stats, err := s.ScanRange([]byte("x"), []byte("z"))
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if len(entries) != 0 {
		t.Errorf("entries = %v, want empty", entries)
	}
	if stats.Seeks != 1 {
		t.Errorf("empty scan still costs one seek, got %d", stats.Seeks)
	}
}

func TestScanPrefix(t *testing.T) {
	s := flushedStore(t, "spo|s1|p1|o1", "spo|s1|p2|o2", "spo|s2|p1|o3", "pos|p1|o1|s1")
	entries, _, err := s.ScanPrefix([]byte("spo|s1|"))
	if err != nil {
		t.Fatalf("ScanPrefix: %v", err)
	}
	if len(entries) != 2 {
		t.Errorf("prefix scan returned %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if !bytes.HasPrefix(e.Key, []byte("spo|s1|")) {
			t.Errorf("entry %q does not match prefix", e.Key)
		}
	}
}

func TestPrefixEnd(t *testing.T) {
	tests := []struct {
		prefix string
		want   []byte
	}{
		{"abc", []byte("abd")},
		{"a\xff", []byte("b")},
		{"", nil},
	}
	for _, tt := range tests {
		if got := prefixEnd([]byte(tt.prefix)); !bytes.Equal(got, tt.want) {
			t.Errorf("prefixEnd(%q) = %q, want %q", tt.prefix, got, tt.want)
		}
	}
	if got := prefixEnd([]byte{0xFF, 0xFF}); got != nil {
		t.Errorf("prefixEnd(all-FF) = %q, want nil", got)
	}
}

func TestTabletBoundariesCostExtraSeeks(t *testing.T) {
	s := NewStore(10) // tiny tablets
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("key%03d", i)), nil)
	}
	s.Flush()
	// Scanning all 100 entries spans 10 tablets: 1 seek + 9 crossings.
	_, stats, err := s.ScanRange(nil, nil)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if stats.Seeks != 10 {
		t.Errorf("full scan seeks = %d, want 10", stats.Seeks)
	}
	// A scan within one tablet costs a single seek.
	_, stats, err = s.ScanRange([]byte("key000"), []byte("key005"))
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if stats.Seeks != 1 {
		t.Errorf("single-tablet scan seeks = %d, want 1", stats.Seeks)
	}
}

func TestSizeBytes(t *testing.T) {
	s := NewStore(0)
	s.Put([]byte("abc"), []byte("de"))
	s.Flush()
	if got := s.SizeBytes(); got != 5 {
		t.Errorf("SizeBytes = %d, want 5", got)
	}
}

func TestEmptyStore(t *testing.T) {
	s := NewStore(0)
	s.Flush()
	if s.Len() != 0 {
		t.Errorf("empty store Len=%d", s.Len())
	}
	entries, stats, err := s.ScanRange(nil, nil)
	if err != nil || len(entries) != 0 || stats.Seeks != 1 {
		t.Errorf("empty scan = %v, %+v, %v", entries, stats, err)
	}
}

func TestPutCopiesKeyBytes(t *testing.T) {
	s := NewStore(0)
	k := []byte("mutate-me")
	s.Put(k, nil)
	k[0] = 'X'
	s.Flush()
	entries, _, err := s.ScanRange(nil, nil)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if string(entries[0].Key) != "mutate-me" {
		t.Errorf("store aliased caller's key bytes: %q", entries[0].Key)
	}
}

func TestScanRangeProperty(t *testing.T) {
	// Every scan result must be sorted and within [start, end).
	f := func(keys []string, start, end string) bool {
		if start > end {
			start, end = end, start
		}
		s := NewStore(0)
		for _, k := range keys {
			s.Put([]byte(k), nil)
		}
		s.Flush()
		entries, _, err := s.ScanRange([]byte(start), []byte(end))
		if err != nil {
			return false
		}
		prev := ""
		for _, e := range entries {
			k := string(e.Key)
			if k < start || k >= end {
				return false
			}
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
