package core

import (
	"cmp"
	"fmt"
	"runtime"
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
// keep the order their triples were loaded in (the order the file
// stores them in). All columns of a table share two backing arrays, so
// the slices are capacity-clipped and never appended to.
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

// ptCell is one triple on its way into the table: pred names the
// column within the cell's partition, key and val the cell, and seq
// (the triple's load position) keeps the values of one key in load
// order.
type ptCell struct {
	pred, key, val rdf.ID
	seq            uint32
}

// fill distributes the triples into the partitions' columns. A counting
// pass places each cell in its partition's run, in load order; each run
// is sorted on (predicate, key, seq) as one task on the cluster's
// workers, which brings every column's cells together with keys
// ascending; and one pass cuts the runs into columns over two shared
// backing arrays. seq is unique, so the runs sort exactly as one sort
// of all cells on (partition, predicate, key, seq) would.
func (t *PropertyTable) fill(s *Store) error {
	n := len(t.parts)
	keyed := func(tr rdf.EncodedTriple) (key, value rdf.ID) {
		if t.mode == keyOnObject {
			return tr.O, tr.S
		}
		return tr.S, tr.O
	}
	// Partition p's run is cells[bounds[p]:bounds[p+1]].
	bounds := make([]int, n+1)
	for _, tr := range s.triples {
		key, _ := keyed(tr)
		bounds[engine.PartitionFor(key, n)+1]++
	}
	for p := range n {
		bounds[p+1] += bounds[p]
	}
	next := slices.Clone(bounds[:n])
	cells := make([]ptCell, len(s.triples))
	for i, tr := range s.triples {
		key, value := keyed(tr)
		p := engine.PartitionFor(key, n)
		cells[next[p]] = ptCell{pred: tr.P, key: key, val: value, seq: uint32(i)}
		next[p]++
	}
	err := cluster.Run(runtime.GOMAXPROCS(0), n, new(cluster.Tasks), cluster.Func(func(_, p int) error {
		slices.SortFunc(cells[bounds[p]:bounds[p+1]], func(a, b ptCell) int {
			return cmp.Or(
				cmp.Compare(a.pred, b.pred),
				cmp.Compare(a.key, b.key),
				cmp.Compare(a.seq, b.seq),
			)
		})
		return nil
	}))
	if err != nil {
		return err
	}

	// A (column, key) cell opens wherever the predicate or the key
	// changes within a run.
	numKeys := 0
	for p := range n {
		for i := bounds[p]; i < bounds[p+1]; i++ {
			if i == bounds[p] || cells[i].pred != cells[i-1].pred || cells[i].key != cells[i-1].key {
				numKeys++
			}
		}
	}
	keys := make([]rdf.ID, 0, numKeys)
	vals := make([]rdf.ID, len(cells))
	var starts []uint32 // scratch: where each key's values start in its column
	for p := range n {
		for i, end := bounds[p], bounds[p+1]; i < end; {
			pred := cells[i].pred
			k0, j := len(keys), i
			starts = starts[:0]
			for ; j < end && cells[j].pred == pred; j++ {
				if j == i || cells[j].key != cells[j-1].key {
					keys = append(keys, cells[j].key)
					starts = append(starts, uint32(j-i))
				}
				vals[j] = cells[j].val
			}
			col := &ptColumn{keys: keys[k0:len(keys):len(keys)], vals: vals[i:j:j]}
			if len(col.keys) < len(col.vals) {
				col.offs = slices.Concat(starts, []uint32{uint32(j - i)})
				t.cols[pred] = true
			}
			t.parts[p].cols[pred] = col
			i = j
		}
	}
	return nil
}

// buildPropertyTable groups the dataset by key (subject or object),
// partitions the keys with the engine's canonical placement, sizes
// each partition as a columnar file, writes it to HDFS and charges the
// clock for the shuffle and replicated write.
//
// The partitions are sized as tasks on the cluster's workers, which
// charge nothing; the files are then written, and the table's sizes
// summed, in partition order.
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
	if err := t.fill(s); err != nil {
		return nil, err
	}

	// Every partition file has the same columns, a key column and one per
	// predicate, so the same footers.
	footers := columnar.FileFooterBytes + columnar.ColumnFooterBytes("key")
	for _, pred := range s.predOrder {
		footers += columnar.ColumnFooterBytes(ptColumnName(s.dict, pred))
	}
	// Size each partition as one columnar file.
	prefix, what := s.opts.PathPrefix+"/pt", "property table"
	if mode == keyOnObject {
		prefix, what = s.opts.PathPrefix+"/ipt", "inverse property table"
	}
	type sized struct {
		file, key int64
		cols      []int64 // indexed like s.predOrder
		keys      int
	}
	files := make([]sized, len(t.parts))
	n := len(s.predOrder)
	cols := make([]int64, len(t.parts)*n) // one backing array for every partition's column sizes
	width := runtime.GOMAXPROCS(0)
	bufs := make([][]rdf.ID, width) // local-term buffers, one per worker slot
	err := cluster.Run(width, len(t.parts), new(cluster.Tasks), cluster.Func(func(w, pi int) error {
		part := t.parts[pi]
		rowKeys := part.rowKeys()
		f := sized{cols: cols[pi*n : (pi+1)*n], keys: len(rowKeys)}
		var data int64
		data, f.key = t.sizePartition(s.predOrder, part, rowKeys, f.cols)
		bufs[w] = part.localTerms(bufs[w][:0], rowKeys)
		f.file = footers + data + sizeenc.CompressedTermBytes(s.dict, bufs[w])
		files[pi] = f
		return nil
	}))
	if err != nil {
		return nil, err
	}

	// Write the files to HDFS.
	var totalWrite int64
	for pi, f := range files {
		path := fmt.Sprintf("%s/part-%05d.parquet", prefix, pi)
		if err := s.fs.Write(path, f.file); err != nil {
			return nil, err
		}
		t.numKeys += f.keys
		t.fileBytes += f.file
		totalWrite += f.file
		t.keyBytes += f.key
		for i, pred := range s.predOrder {
			t.colBytes[pred] += f.cols[i]
		}
	}

	// Charge: one wide shuffle (every triple moves to its key's
	// partition) plus the replicated write.
	shuffleBytes := int64(len(s.triples)) * 3 * 5
	writeBytes := totalWrite * int64(s.fs.Replication())
	err = s.cluster.RunStage(clock, s.cluster.Config().Cost.SQLStageLaunch, "build "+what, s.parts, func(p int) (cluster.TaskStats, error) {
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

// sizePartition sizes one partition's columnar file without building
// it. The file holds a key column (rowKeys) and one column per
// predicate of predOrder — a list column when the predicate is
// multi-valued anywhere in the table, scalar otherwise — with a NULL,
// or an empty list, wherever a key has no value: the NULL-dense layout
// RLE makes cheap (paper §3.1). Each sparse column is merged against
// rowKeys as it is stored, so no NULL-dense column is built. It puts
// each predicate column's bytes in cols, indexed like predOrder, and
// returns the bytes of all the file's columns and of its key column.
func (t *PropertyTable) sizePartition(predOrder []rdf.ID, part *ptPartition, rowKeys []rdf.ID, cols []int64) (data, key int64) {
	var z columnar.Sizer
	for _, k := range rowKeys {
		z.Add(k)
	}
	key = z.Bytes()
	data = key
	for i, pred := range predOrder {
		z = columnar.Sizer{}
		multi, next := t.cols[pred], 0 // next: the first row not yet sized
		if col := part.cols[pred]; col != nil {
			for j, k := range col.keys {
				// The column's keys are a subset of rowKeys, both ascending.
				gap, _ := slices.BinarySearch(rowKeys[next:], k)
				z.AddNulls(gap)
				if multi {
					z.AddList(col.values(j))
				} else {
					z.Add(col.vals[j])
				}
				next += gap + 1
			}
		}
		z.AddNulls(len(rowKeys) - next)
		cols[i] = z.Bytes()
		data += cols[i]
	}
	return data, key
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
