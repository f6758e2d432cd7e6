// Package kv is a sorted key-value store modeled after Apache Accumulo,
// the substrate Rya stores its triple indexes in. Keys are kept globally
// sorted and split into range-partitioned tablets; scans start with a
// priced seek (the client→tablet-server round trip) and then stream
// entries. Rya's performance profile in the paper — extremely fast point
// lookups, catastrophic slowdowns when joins need millions of lookups —
// falls directly out of this cost structure.
package kv

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// DefaultTabletSize is the number of entries per tablet before a split,
// a stand-in for Accumulo's size-based tablet splitting.
const DefaultTabletSize = 1 << 17

// Entry is one key-value pair.
type Entry struct {
	Key   []byte
	Value []byte
}

// ScanStats records the priced work of one scan for the caller to charge
// to its clock.
type ScanStats struct {
	// Seeks is the number of tablet seeks performed (≥1 per scan; +1
	// for every tablet boundary crossed).
	Seeks int64
	// BytesRead is the byte volume streamed back to the client.
	BytesRead int64
	// Entries is the number of entries returned.
	Entries int64
}

// Store is a sorted KV table. Writes go through a batch-writer phase
// (Put, then Flush); reads require a flushed store. The store is safe
// for concurrent reads after Flush.
type Store struct {
	mu         sync.RWMutex
	entries    []Entry
	flushed    bool
	tabletSize int
}

// NewStore returns an empty store with the given tablet size (0 means
// DefaultTabletSize).
func NewStore(tabletSize int) *Store {
	if tabletSize <= 0 {
		tabletSize = DefaultTabletSize
	}
	return &Store{tabletSize: tabletSize}
}

// Put buffers one entry. Key bytes are copied.
func (s *Store) Put(key, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := make([]byte, len(key))
	copy(k, key)
	var v []byte
	if len(value) > 0 {
		v = make([]byte, len(value))
		copy(v, value)
	}
	s.entries = append(s.entries, Entry{Key: k, Value: v})
	s.flushed = false
}

// Flush sorts the buffered entries and removes duplicate keys (last
// write wins), making the store readable — Accumulo's minor compaction.
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.SliceStable(s.entries, func(i, j int) bool {
		return bytes.Compare(s.entries[i].Key, s.entries[j].Key) < 0
	})
	// Deduplicate, keeping the last occurrence of each key.
	out := s.entries[:0]
	for i := 0; i < len(s.entries); i++ {
		if i+1 < len(s.entries) && bytes.Equal(s.entries[i].Key, s.entries[i+1].Key) {
			continue
		}
		out = append(out, s.entries[i])
	}
	s.entries = out
	s.flushed = true
}

// Len returns the number of entries (after Flush).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// SizeBytes returns the raw key+value byte volume, the input to the
// store's on-disk size accounting.
func (s *Store) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, e := range s.entries {
		n += int64(len(e.Key) + len(e.Value))
	}
	return n
}

// ErrNotFlushed is returned by scans on a store with unflushed writes.
var ErrNotFlushed = fmt.Errorf("kv: store has unflushed writes; call Flush first")

// ScanRange returns the entries with start ≤ key < end (end nil means
// "to the end of the table") together with the scan's priced work.
func (s *Store) ScanRange(start, end []byte) ([]Entry, ScanStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.flushed {
		return nil, ScanStats{}, ErrNotFlushed
	}
	lo := sort.Search(len(s.entries), func(i int) bool {
		return bytes.Compare(s.entries[i].Key, start) >= 0
	})
	hi := len(s.entries)
	if end != nil {
		hi = sort.Search(len(s.entries), func(i int) bool {
			return bytes.Compare(s.entries[i].Key, end) >= 0
		})
	}
	if hi < lo {
		hi = lo
	}
	result := s.entries[lo:hi]
	stats := ScanStats{Seeks: 1, Entries: int64(len(result))}
	for _, e := range result {
		stats.BytesRead += int64(len(e.Key) + len(e.Value))
	}
	// Crossing tablet boundaries costs an extra seek per tablet.
	if len(result) > 0 {
		firstTablet := lo / s.tabletSize
		lastTablet := (hi - 1) / s.tabletSize
		stats.Seeks += int64(lastTablet - firstTablet)
	}
	return result, stats, nil
}

// ScanPrefix returns the entries whose key starts with prefix.
func (s *Store) ScanPrefix(prefix []byte) ([]Entry, ScanStats, error) {
	return s.ScanRange(prefix, prefixEnd(prefix))
}

// prefixEnd computes the smallest key greater than every key with the
// given prefix, or nil when the prefix is all 0xFF (scan to the end).
func prefixEnd(prefix []byte) []byte {
	end := make([]byte, len(prefix))
	copy(end, prefix)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
