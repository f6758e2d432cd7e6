package core

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/columnar"
	"repro/internal/engine"
	"repro/internal/hdfs"
	"repro/internal/rdf"
	"repro/internal/sizeenc"
)

// VPTable is one Vertical Partitioning table: the (subject, object)
// pairs of a single predicate (Abadi et al.; paper §3.1), kept
// subject-partitioned in memory and written to HDFS as a columnar file
// per partition.
type VPTable struct {
	// Pred is the table's predicate ID.
	Pred rdf.ID
	// Rel holds the (s,o) rows hash-partitioned by subject.
	Rel *engine.Relation
	// FileBytes is the table's total on-HDFS size, charged on scans.
	FileBytes int64
}

// Rows returns the table's tuple count.
func (t *VPTable) Rows() int { return t.Rel.NumRows() }

// Keys returns the distinct values of column col (0 subject, 1 object):
// the key set a semi-join against this table probes.
func (t *VPTable) Keys(col int) map[rdf.ID]struct{} {
	keys := make(map[rdf.ID]struct{}, t.Rel.NumRows())
	for _, part := range t.Rel.Parts() {
		ids := part.IDs()
		for i := col; i < len(ids); i += 2 {
			keys[ids[i]] = struct{}{}
		}
	}
	return keys
}

// SemiJoin returns the rows, in partition order, whose column col value
// is in keys — the semi-join reduction an ExtVP table materializes — as
// one block of (s,o) rows.
func (t *VPTable) SemiJoin(col int, keys map[rdf.ID]struct{}) engine.Block {
	var kept []rdf.ID
	for _, part := range t.Rel.Parts() {
		ids := part.IDs()
		for i := 0; i < len(ids); i += 2 {
			if _, ok := keys[ids[i+col]]; ok {
				kept = append(kept, ids[i], ids[i+1])
			}
		}
	}
	return engine.MakeBlock(2, len(kept)/2, kept)
}

// WriteVPFiles writes (s,o) rows to HDFS as columnar files
// dir/part-00000.parquet, dir/part-00001.parquet, … — one per element of
// parts, holding the two ID columns plus the compressed local term
// dictionary a Parquet file carries — and returns their total logical
// size. It is the one writer of VP-shaped files: PRoST's VP tables and
// ExtVP reductions and S2RDF's tables all go through it.
func WriteVPFiles(fs *hdfs.FS, dict *rdf.Dictionary, dir string, parts []engine.Block) (int64, error) {
	sizes := make([]int64, len(parts))
	vpFileSizes(dict, sizeenc.CompressedTermBytes, parts, sizes, nil)
	return writeVPFiles(fs, dir, sizes)
}

// vpFileSizes sizes each part as WriteVPFiles lays it out — an "s" and
// an "o" column plus the local dictionary — into sizes, in part order.
// localTerms is scratch for the files' local terms, returned as it grew,
// and termBytes sizes their local dictionaries (sizeenc's
// CompressedTermBytes, or a worker's own TermSizer). It only reads the
// dictionary and writes nothing, so tables can be sized concurrently.
func vpFileSizes(dict *rdf.Dictionary, termBytes func(*rdf.Dictionary, []rdf.ID) int64, parts []engine.Block, sizes []int64, localTerms []rdf.ID) []rdf.ID {
	for p, part := range parts {
		var subj, obj columnar.Sizer
		localTerms = localTerms[:0]
		for i := range part.Len() {
			r := part.Row(i)
			subj.Add(r[0])
			obj.Add(r[1])
			localTerms = append(localTerms, r[0], r[1])
		}
		slices.Sort(localTerms)
		localTerms = slices.Compact(localTerms)
		sizes[p] = columnar.FileFooterBytes +
			subj.Bytes() + columnar.ColumnFooterBytes("s") +
			obj.Bytes() + columnar.ColumnFooterBytes("o") +
			termBytes(dict, localTerms)
	}
	return localTerms
}

// termSizers holds the term sizers of a load's sizing runs, one per
// worker slot, each taken from the pool at the slot's first file and put
// back when the last run ends.
type termSizers []*sizeenc.TermSizer

// get returns worker slot w's sizer.
func (zs termSizers) get(w int) *sizeenc.TermSizer {
	if zs[w] == nil {
		zs[w] = sizeenc.GetTermSizer()
	}
	return zs[w]
}

// put hands every sizer taken back to the pool.
func (zs termSizers) put() {
	for w, z := range zs {
		if z != nil {
			z.Put()
			zs[w] = nil
		}
	}
}

// writeVPFiles writes dir/part-%05d.parquet of the given sizes, in part
// order, and returns their total.
func writeVPFiles(fs *hdfs.FS, dir string, sizes []int64) (int64, error) {
	var total int64
	for p, size := range sizes {
		if err := fs.Write(fmt.Sprintf("%s/part-%05d.parquet", dir, p), size); err != nil {
			return 0, err
		}
		total += size
	}
	return total, nil
}

// buildVP groups the dataset by predicate and materializes one VP table
// per predicate of s.predOrder: partition rows by subject, size each
// partition as a columnar file (IDs plus a local term dictionary, like a
// Parquet file), write it to HDFS, and charge the shuffle + write to the
// clock.
//
// Every table's partitions are blocks of one array, laid out from the
// rows each (predicate, partition) pair counts: one pass over the
// triples counts them, a second writes every (s,o) pair straight into
// its partition, in input order.
func (s *Store) buildVP(clock *cluster.Clock, sizers termSizers) error {
	slot := make(map[rdf.ID]int, len(s.predOrder))
	for i, pred := range s.predOrder {
		slot[pred] = i * s.parts
	}
	counts := make([]int, len(s.predOrder)*s.parts)
	for _, t := range s.triples {
		if base, ok := slot[t.P]; ok {
			counts[base+engine.PartitionFor(t.S, s.parts)]++
		}
	}
	blocks, fill, ids := engine.LayoutBlocks(2, counts)
	for _, t := range s.triples {
		if base, ok := slot[t.P]; ok {
			at := base + engine.PartitionFor(t.S, s.parts)
			ids[fill[at]], ids[fill[at]+1] = t.S, t.O
			fill[at] += 2
		}
	}

	// Sizing the tables is real work only: it runs on the cluster's
	// workers, one table per task, and charges nothing. The files are
	// written below, in predicate order, so their block placement does
	// not depend on which task finished first.
	sizes := make([]int64, len(blocks))
	width := len(sizers)
	bufs := make([][]rdf.ID, width) // local-term buffers, one per worker slot
	err := cluster.Run(width, len(s.predOrder), new(cluster.Tasks), cluster.Func(func(w, i int) error {
		bufs[w] = vpFileSizes(s.dict, sizers.get(w).Bytes, blocks[i*s.parts:(i+1)*s.parts], sizes[i*s.parts:(i+1)*s.parts], bufs[w])
		return nil
	}))
	if err != nil {
		return err
	}

	var totalShuffleBytes, totalWriteBytes int64
	var totalRows int64
	for i, pred := range s.predOrder {
		rel := engine.NewBlockRelation(engine.Schema{"s", "o"}, blocks[i*s.parts:(i+1)*s.parts:(i+1)*s.parts], "s")
		fileBytes, err := writeVPFiles(s.fs, fmt.Sprintf("%s/vp/p%d", s.opts.PathPrefix, pred), sizes[i*s.parts:(i+1)*s.parts])
		if err != nil {
			return err
		}
		s.vp[pred] = &VPTable{Pred: pred, Rel: rel, FileBytes: fileBytes}
		s.vpBytes += fileBytes
		rows := int64(rel.NumRows())
		totalShuffleBytes += rows * 2 * 5                        // rows repartitioned by subject
		totalWriteBytes += fileBytes * int64(s.fs.Replication()) // replicated write
		totalRows += rows
	}

	// One Spark SQL job covers the whole VP build (a single
	// partitionBy(predicate) write in the real system).
	perPart := func(total int64) int64 { return total / int64(s.parts) }
	return s.cluster.RunStage(clock, s.cluster.Config().Cost.SQLStageLaunch, "build VP tables", s.parts, func(p int) (cluster.TaskStats, error) {
		return cluster.TaskStats{
			Rows:      totalRows / int64(s.parts),
			NetBytes:  perPart(totalShuffleBytes),
			DiskBytes: perPart(totalWriteBytes),
		}, nil
	})
}
