package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/columnar"
	"repro/internal/engine"
	"repro/internal/rdf"
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

// buildVP groups the dataset by predicate and materializes one VP table
// per predicate: partition rows by subject, encode each partition as a
// columnar file (IDs plus a local term dictionary, like a Parquet file),
// write it to HDFS, and charge the shuffle + write to the clock.
func (s *Store) buildVP(clock *cluster.Clock) error {
	// Emit each predicate's (s,o) rows through one pre-sized RowArena —
	// the engine's flat row representation — instead of allocating a
	// two-value Row per triple.
	counts := make(map[rdf.ID]int)
	for _, t := range s.triples {
		counts[t.P]++
	}
	arenas := make(map[rdf.ID]*engine.RowArena, len(counts))
	for p, c := range counts {
		arenas[p] = engine.NewRowArena(2, c)
	}
	for _, t := range s.triples {
		arenas[t.P].AppendCopy(engine.Row{t.S, t.O})
	}
	byPred := make(map[rdf.ID][]engine.Row, len(arenas))
	for p, a := range arenas {
		byPred[p] = a.Rows()
	}
	s.predOrder = sortedPredicates(s.dict, s.curStats())

	var totalShuffleBytes, totalWriteBytes int64
	var totalRows int64
	for _, pred := range s.predOrder {
		rows := byPred[pred]
		rel, err := engine.Partition(engine.Schema{"s", "o"}, rows, "s", s.parts)
		if err != nil {
			return err
		}
		var fileBytes int64
		for p := 0; p < rel.Partitions(); p++ {
			part := rel.Part(p)
			subjCol := make([]rdf.ID, len(part))
			objCol := make([]rdf.ID, len(part))
			localTerms := make(map[rdf.ID]struct{}, 2*len(part))
			for i, r := range part {
				subjCol[i] = r[0]
				objCol[i] = r[1]
				localTerms[r[0]] = struct{}{}
				localTerms[r[1]] = struct{}{}
			}
			w := columnar.NewWriter(0)
			w.AddScalar("s", subjCol)
			w.AddScalar("o", objCol)
			f, err := w.Finish()
			if err != nil {
				return fmt.Errorf("encoding VP partition %d of predicate %d: %w", p, pred, err)
			}
			size := f.SizeBytes() + compressedStringBytes(s.dict, localTerms)
			path := fmt.Sprintf("%s/vp/p%d/part-%05d.parquet", s.opts.PathPrefix, pred, p)
			if _, err := s.fs.Write(path, size); err != nil {
				return err
			}
			fileBytes += size
		}
		s.vp[pred] = &VPTable{Pred: pred, Rel: rel, FileBytes: fileBytes}
		s.vpBytes += fileBytes
		totalShuffleBytes += int64(len(rows)) * 2 * 5          // rows repartitioned by subject
		totalWriteBytes += fileBytes * int64(replicationOf(s)) // replicated write
		totalRows += int64(len(rows))
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

// replicationOf returns the store's HDFS replication factor.
func replicationOf(s *Store) int { return s.fs.Config().Replication }
