package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/columnar"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sizeenc"
)

// ptKeyMode selects which triple position keys the Property Table rows.
type ptKeyMode uint8

const (
	// keyOnSubject is the paper's Property Table (§3.1): one row per
	// distinct subject.
	keyOnSubject ptKeyMode = iota
	// keyOnObject is the future-work inverse Property Table (§5): one
	// row per distinct object, beneficial for patterns sharing an
	// object.
	keyOnObject
)

// PropertyTable is the paper's wide table (§3.1): one row per key
// (subject, or object for the inverse table) and one column per
// predicate, horizontally partitioned on the key so each row lives
// entirely on one node. In memory it is kept the way the Parquet file
// lays it out — column by column, each column sorted on the key — with
// the NULL cells left out: a column lists only the keys that have a
// value. A star sub-pattern is then a sorted intersection of a few
// columns (ptScan.run), which is the "one scan, no join" the
// paper builds the table for. Multi-valued predicates hold value lists
// that are flattened on access.
type PropertyTable struct {
	mode  ptKeyMode
	parts []*ptPartition
	// cols records which predicates have a column, mapping to whether
	// the column is multi-valued (a list column).
	cols map[rdf.ID]bool
	// colBytes is each predicate column's total on-HDFS size, the unit
	// of column-pruned scan charging.
	colBytes map[rdf.ID]int64
	// keyBytes is the key column's total on-HDFS size.
	keyBytes int64
	// fileBytes is the table's full on-HDFS size (columns + local
	// dictionaries).
	fileBytes int64
	// numKeys is the number of rows (distinct keys).
	numKeys int
}

// ptPartition is one horizontal partition: the predicate columns
// restricted to the keys placed here. A predicate none of those keys
// carries has no entry.
type ptPartition struct {
	cols map[rdf.ID]*ptColumn
}

// ptColumn is one predicate's non-NULL cells within a partition, sorted
// on the key: keys ascending and distinct, the values of keys[i] at
// vals[i] — or at vals[offs[i]:offs[i+1]] when offs is set, which it is
// only if some key here has more than one value. The values of one key
// keep the order their triples were loaded in (the order the encoded
// file stores them in). All columns of a table share two backing
// arrays, so the slices are capacity-clipped and never appended to.
type ptColumn struct {
	keys []rdf.ID
	vals []rdf.ID
	offs []uint32
}

// values returns the values of keys[i], aliasing the column's storage;
// callers must not mutate them.
func (c *ptColumn) values(i int) []rdf.ID {
	if c.offs == nil {
		return c.vals[i : i+1]
	}
	return c.vals[c.offs[i]:c.offs[i+1]]
}

// Columns returns the number of predicate columns.
func (t *PropertyTable) Columns() int { return len(t.cols) }

// Rows returns the number of distinct keys (table rows).
func (t *PropertyTable) Rows() int { return t.numKeys }

// FileBytes returns the table's on-HDFS size.
func (t *PropertyTable) FileBytes() int64 { return t.fileBytes }

// MultiValued reports whether the predicate's column stores lists.
func (t *PropertyTable) MultiValued(p rdf.ID) bool { return t.cols[p] }

// HasColumn reports whether the predicate occurs in the table.
func (t *PropertyTable) HasColumn(p rdf.ID) bool {
	_, ok := t.cols[p]
	return ok
}

// scanBytes returns the bytes a column-pruned scan of the given
// predicates reads: the key column plus each requested predicate column.
func (t *PropertyTable) scanBytes(preds []rdf.ID) int64 {
	total := t.keyBytes
	for _, p := range preds {
		total += t.colBytes[p]
	}
	return total
}

// ptCell is one triple on its way into the table: the partition and
// predicate name the column, key and val the cell, and seq (the
// triple's load position) keeps the values of one key in load order.
type ptCell struct {
	part           int32
	pred, key, val rdf.ID
	seq            uint32
}

// fill distributes the triples into the partitions' columns: one sort
// brings every column's cells together with keys ascending, and one
// pass cuts the sorted run into columns over two shared backing arrays.
func (t *PropertyTable) fill(triples []rdf.EncodedTriple) {
	cells := make([]ptCell, len(triples))
	for i, tr := range triples {
		key, value := tr.S, tr.O
		if t.mode == keyOnObject {
			key, value = tr.O, tr.S
		}
		cells[i] = ptCell{
			part: int32(engine.PartitionFor(key, len(t.parts))),
			pred: tr.P, key: key, val: value,
			seq: uint32(i),
		}
	}
	slices.SortFunc(cells, func(a, b ptCell) int {
		return cmp.Or(
			cmp.Compare(a.part, b.part),
			cmp.Compare(a.pred, b.pred),
			cmp.Compare(a.key, b.key),
			cmp.Compare(a.seq, b.seq),
		)
	})
	sameCol := func(a, b ptCell) bool { return a.part == b.part && a.pred == b.pred }
	// newKey reports whether cells[i] opens a (column, key) cell.
	newKey := func(i int) bool {
		return i == 0 || !sameCol(cells[i], cells[i-1]) || cells[i].key != cells[i-1].key
	}
	numKeys := 0
	for i := range cells {
		if newKey(i) {
			numKeys++
		}
	}
	keys := make([]rdf.ID, 0, numKeys)
	vals := make([]rdf.ID, len(cells))
	var starts []uint32 // scratch: where each key's values start in its column
	for i := 0; i < len(cells); {
		first := cells[i]
		k0, j := len(keys), i
		starts = starts[:0]
		for ; j < len(cells) && sameCol(cells[j], first); j++ {
			if newKey(j) {
				keys = append(keys, cells[j].key)
				starts = append(starts, uint32(j-i))
			}
			vals[j] = cells[j].val
		}
		col := &ptColumn{keys: keys[k0:len(keys):len(keys)], vals: vals[i:j:j]}
		if len(col.keys) < len(col.vals) {
			col.offs = slices.Concat(starts, []uint32{uint32(j - i)})
			t.cols[first.pred] = true
		}
		t.parts[first.part].cols[first.pred] = col
		i = j
	}
}

// buildPropertyTable groups the dataset by key (subject or object),
// partitions the keys with the engine's canonical placement, encodes
// each partition as a columnar file, writes it to HDFS and charges the
// clock for the shuffle and replicated write.
func buildPropertyTable(s *Store, clock *cluster.Clock, mode ptKeyMode) (*PropertyTable, error) {
	t := &PropertyTable{
		mode:     mode,
		parts:    make([]*ptPartition, s.parts),
		cols:     make(map[rdf.ID]bool),
		colBytes: make(map[rdf.ID]int64),
	}
	for i := range t.parts {
		t.parts[i] = &ptPartition{cols: make(map[rdf.ID]*ptColumn)}
	}

	for _, pred := range s.predOrder {
		t.cols[pred] = false // multi-valued once any partition finds a list
	}
	t.fill(s.triples)

	// Encode each partition as one columnar file and write it to HDFS.
	prefix := s.opts.PathPrefix + "/pt"
	if mode == keyOnObject {
		prefix = s.opts.PathPrefix + "/ipt"
	}
	var totalWrite int64
	var localTerms []rdf.ID // reused across the partitions' files
	for pi, part := range t.parts {
		rowKeys := part.rowKeys()
		t.numKeys += len(rowKeys)
		file, err := encodePTPartition(s, part, rowKeys, t.cols)
		if err != nil {
			return nil, err
		}
		localTerms = part.localTerms(localTerms[:0], rowKeys)
		size := file.SizeBytes() + sizeenc.CompressedTermBytes(s.dict, localTerms)
		path := fmt.Sprintf("%s/part-%05d.parquet", prefix, pi)
		if _, err := s.fs.Write(path, size); err != nil {
			return nil, err
		}
		t.fileBytes += size
		totalWrite += size
		t.keyBytes += keyColumnBytes(file)
		for _, pred := range s.predOrder {
			name := ptColumnName(s.dict, pred)
			if file.HasColumn(name) {
				cb, err := file.ColumnSizeBytes(name)
				if err != nil {
					return nil, err
				}
				t.colBytes[pred] += cb
			}
		}
	}

	// Charge: one wide shuffle (every triple moves to its key's
	// partition) plus the replicated write.
	shuffleBytes := int64(len(s.triples)) * 3 * 5
	writeBytes := totalWrite * int64(replicationOf(s))
	name := "build property table"
	if mode == keyOnObject {
		name = "build inverse property table"
	}
	err := s.cluster.RunStage(clock, s.cluster.Config().Cost.SQLStageLaunch, name, s.parts, func(p int) (cluster.TaskStats, error) {
		return cluster.TaskStats{
			Rows:      int64(len(s.triples)) / int64(s.parts),
			NetBytes:  shuffleBytes / int64(s.parts),
			DiskBytes: writeBytes / int64(s.parts),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ptColumnName is the columnar-file column name for a predicate.
func ptColumnName(dict *rdf.Dictionary, pred rdf.ID) string {
	return dict.Term(pred).Value
}

// keyColumnBytes returns the key column's size within one partition file.
func keyColumnBytes(f *columnar.File) int64 {
	n, err := f.ColumnSizeBytes("key")
	if err != nil {
		return 0
	}
	return n
}

// rowKeys returns the partition's row keys ascending: every key with a
// value in some column.
func (part *ptPartition) rowKeys() []rdf.ID {
	n := 0
	for _, col := range part.cols {
		n += len(col.keys)
	}
	keys := make([]rdf.ID, 0, n)
	for _, col := range part.cols {
		keys = append(keys, col.keys...)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// encodePTPartition lays one partition out as a columnar file: a key
// column (rowKeys) plus one column per predicate (scalar when globally
// single-valued, list otherwise), with NULL/empty cells for absent
// pairs — the NULL-dense layout that RLE makes cheap (paper §3.1). The
// in-memory columns are already in row order, so each is aligned to
// the key column by one merge.
func encodePTPartition(s *Store, part *ptPartition, rowKeys []rdf.ID, multiByPred map[rdf.ID]bool) (*columnar.File, error) {
	w := columnar.NewWriter(0)
	w.AddScalar("key", rowKeys)
	for _, pred := range s.predOrder {
		name := ptColumnName(s.dict, pred)
		col := part.cols[pred]
		if col == nil {
			col = &ptColumn{}
		}
		// Column keys are a subset of rowKeys, both ascending.
		next := 0
		if multiByPred[pred] {
			lists := make([][]rdf.ID, len(rowKeys))
			for i, k := range rowKeys {
				if next < len(col.keys) && col.keys[next] == k {
					lists[i] = col.values(next)
					next++
				}
			}
			w.AddList(name, lists)
		} else {
			vals := make([]rdf.ID, len(rowKeys))
			for i, k := range rowKeys {
				if next < len(col.keys) && col.keys[next] == k {
					vals[i] = col.vals[next]
					next++
				}
			}
			w.AddScalar(name, vals)
		}
	}
	f, err := w.Finish()
	if err != nil {
		return nil, fmt.Errorf("encoding property table partition: %w", err)
	}
	return f, nil
}

// localTerms appends to buf the terms a partition's file names — its
// row keys and every column value — ascending and distinct, the local
// dictionary the file carries.
func (part *ptPartition) localTerms(buf, rowKeys []rdf.ID) []rdf.ID {
	buf = append(buf, rowKeys...)
	for _, col := range part.cols {
		buf = append(buf, col.vals...)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}
