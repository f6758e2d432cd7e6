package bench

// Microbenchmarks of the engine's join/distinct hot path: shuffle hash
// join, broadcast hash join, and distinct, each over single- and
// multi-column keys. These guard the allocation budget of the join
// core — run with
//
//	go test ./internal/bench -bench 'Join|Distinct' -benchmem
//
// and compare allocs/op against the numbers recorded in CHANGES.md.

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/rdf"
)

const (
	joinBenchBuildRows = 20_000
	joinBenchProbeRows = 60_000
)

// joinBenchRelations builds a probe/build pair sharing `shared` key
// columns with dictionary-style dense IDs, spread round-robin so every
// join strategy pays its full shuffle or broadcast cost.
func joinBenchRelations(shared int) (*engine.Relation, *engine.Relation) {
	rng := rand.New(rand.NewSource(42))
	// Same effective composite keyspace (~4096 keys) at every arity so
	// output cardinality stays comparable across the key=Ncol variants.
	keyRange := []int{0, 4096, 64, 16}[shared]

	var lSchema, rSchema engine.Schema
	for i := 0; i < shared; i++ {
		c := string(rune('j' + i))
		lSchema = append(lSchema, c)
		rSchema = append(rSchema, c)
	}
	lSchema = append(lSchema, "lv")
	rSchema = append(rSchema, "rv")

	mkRows := func(n, width int) []engine.Row {
		rows := make([]engine.Row, n)
		for i := range rows {
			r := make(engine.Row, width)
			for j := 0; j < shared; j++ {
				r[j] = rdf.ID(rng.Intn(keyRange) + 1)
			}
			r[width-1] = rdf.ID(i + 1)
			rows[i] = r
		}
		return rows
	}
	roundRobin := func(schema engine.Schema, rows []engine.Row, n int) *engine.Relation {
		parts := make([][]engine.Row, n)
		for i, r := range rows {
			parts[i%n] = append(parts[i%n], r)
		}
		return engine.NewRelation(schema, parts, "")
	}
	left := roundRobin(lSchema, mkRows(joinBenchProbeRows, len(lSchema)), 8)
	right := roundRobin(rSchema, mkRows(joinBenchBuildRows, len(rSchema)), 8)
	return left, right
}

func benchJoin(b *testing.B, shared int, threshold int64) {
	left, right := joinBenchRelations(shared)
	c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.NewExec(c, cluster.NewClock())
		e.BroadcastThreshold = threshold
		out, err := e.Join(left, right, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() == 0 {
			b.Fatal("bench join produced no rows")
		}
	}
}

func BenchmarkShuffleJoin(b *testing.B) {
	b.Run("key=1col", func(b *testing.B) { benchJoin(b, 1, -1) })
	b.Run("key=2col", func(b *testing.B) { benchJoin(b, 2, -1) })
	b.Run("key=3col", func(b *testing.B) { benchJoin(b, 3, -1) })
}

func BenchmarkBroadcastJoin(b *testing.B) {
	b.Run("key=1col", func(b *testing.B) { benchJoin(b, 1, 1<<30) })
	b.Run("key=2col", func(b *testing.B) { benchJoin(b, 2, 1<<30) })
	b.Run("key=3col", func(b *testing.B) { benchJoin(b, 3, 1<<30) })
}

func BenchmarkDistinct(b *testing.B) {
	for _, width := range []int{2, 3} {
		name := "width=2col"
		if width == 3 {
			name = "width=3col"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			rows := make([]engine.Row, 100_000)
			for i := range rows {
				r := make(engine.Row, width)
				for j := range r {
					r[j] = rdf.ID(rng.Intn(64) + 1)
				}
				rows[i] = r
			}
			parts := make([][]engine.Row, 8)
			for i, r := range rows {
				parts[i%8] = append(parts[i%8], r)
			}
			schema := engine.Schema{"a", "b", "c"}[:width]
			rel := engine.NewRelation(schema, parts, "")
			c := cluster.MustNew(cluster.Config{Workers: 4, DefaultPartitions: 8})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := engine.NewExec(c, cluster.NewClock())
				out, err := e.Distinct(rel)
				if err != nil {
					b.Fatal(err)
				}
				if out.NumRows() == 0 {
					b.Fatal("distinct produced no rows")
				}
			}
		})
	}
}
