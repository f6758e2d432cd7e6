// Package rya reimplements the Rya baseline (Punnoose et al., 2012): an
// RDF triple store over a sorted key-value store (Apache Accumulo in the
// original, the mini-Accumulo of internal/kv here).
//
// Rya loads from PRoST's ingest and applies PRoST's FILTER semantics to
// the terms it decodes; what is its own is
//
//   - its layout: whole triples stored as keys in three permutation
//     indexes (SPO, POS, OSP), batch-written with LSM write
//     amplification and sized as compressed Accumulo blocks;
//   - its join order: the most bound patterns first (literal objects
//     ahead of IRIs), then ascending predicate size, kept connected;
//   - its pricing: index nested-loop joins run client-side, one range
//     scan per binding, each scan's seeks and bytes charged with the
//     BatchScanner's parallelism dividing seek latency — the
//     architecture that makes Rya the fastest system on highly
//     selective queries and orders of magnitude the slowest when
//     intermediate results grow (paper §4.4).
package rya

import (
	"bytes"
	"compress/flate"
	"fmt"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/sizeenc"
	"repro/internal/sparql"
	"repro/internal/stats"
)

// sep separates key segments; it sorts below all printable characters.
const sep = "\x1f"

// pathPrefix is the HDFS directory Rya records its size under.
const pathPrefix = "/rya"

// batchParallelism models the Accumulo BatchScanner's concurrent range
// lookups: total seek latency is divided by it.
const batchParallelism = 8

// Result is a query answer.
type Result = baselines.Result

// Store is a loaded Rya database.
type Store struct {
	cluster *cluster.Cluster
	dict    *rdf.Dictionary
	stats   *stats.Collection

	spo *kv.Store
	pos *kv.Store
	osp *kv.Store

	load baselines.LoadReport
}

// LoadReport returns the loading summary.
func (s *Store) LoadReport() baselines.LoadReport { return s.load }

// Dictionary returns the store's term dictionary.
func (s *Store) Dictionary() *rdf.Dictionary { return s.dict }

// keyOf renders a term as a key segment. Term.String() syntax keeps
// IRIs, literals and blanks in disjoint namespaces.
func keyOf(t rdf.Term) string { return t.String() }

// Load builds the three permutation indexes through batch writers from
// the data a PRoST store ingested.
func Load(st *core.Store) (*Store, error) {
	if st == nil {
		return nil, fmt.Errorf("rya: Load needs the loaded PRoST store to read the data from")
	}
	c := st.Cluster()
	clock := cluster.NewClock()
	clock.Charge("bulk load job submit", c.Config().Cost.RDDSubmit)
	s := &Store{
		cluster: c,
		dict:    st.Dictionary(),
		stats:   st.Stats(),
		spo:     kv.NewStore(0),
		pos:     kv.NewStore(0),
		osp:     kv.NewStore(0),
	}
	triples := st.Triples()
	var rawKeyBytes int64
	for _, t := range triples {
		sk, pk, obk := keyOf(s.dict.Term(t.S)), keyOf(s.dict.Term(t.P)), keyOf(s.dict.Term(t.O))
		s.spo.Put([]byte(sk+sep+pk+sep+obk), nil)
		s.pos.Put([]byte(pk+sep+obk+sep+sk), nil)
		s.osp.Put([]byte(obk+sep+sk+sep+pk), nil)
		rawKeyBytes += int64(3 * (len(sk) + len(pk) + len(obk) + 6))
	}
	s.spo.Flush()
	s.pos.Flush()
	s.osp.Flush()

	// Charge: input scan (a client-side MapReduce bulk load in the
	// original), then batch-writing three indexes with LSM write
	// amplification (minor + major compaction rewrite the data).
	if err := st.ChargeInputScan(clock, 0); err != nil {
		return nil, err
	}
	const writeAmplification = 3 // memtable flush + compactions
	writeBytes := rawKeyBytes * writeAmplification
	parts := int64(st.Partitions())
	err := c.RunStage(clock, 0, "batch write 3 indexes", st.Partitions(), func(p int) (cluster.TaskStats, error) {
		return cluster.TaskStats{
			DiskBytes: writeBytes / parts,
			NetBytes:  rawKeyBytes / parts, // client → tablet servers
			Rows:      3 * int64(len(triples)) / parts,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// On-disk size: Accumulo compresses blocks (gzip); deflate over the
	// real sorted keys of each index.
	var size int64
	for _, idx := range []*kv.Store{s.spo, s.pos, s.osp} {
		size += compressedIndexBytes(idx)
	}
	if err := st.FS().Write(pathPrefix+"/tables", size); err != nil {
		return nil, err
	}

	s.load = baselines.LoadReport{
		Triples:   int64(len(triples)),
		SizeBytes: size,
		LoadTime:  clock.Elapsed(),
	}
	return s, nil
}

// compressedIndexBytes deflates an index's sorted keys, modeling
// Accumulo's block compression over prefix-similar keys. Every Accumulo
// key also carries column family/qualifier markers, a visibility field
// and an 8-byte timestamp; the timestamp varies per entry and resists
// compression, which is part of why Rya's three indexes outweigh
// PRoST's columnar tables in Table 1.
func compressedIndexBytes(st *kv.Store) int64 {
	entries, _, err := st.ScanRange(nil, nil)
	if err != nil {
		return st.SizeBytes()
	}
	cw := &sizeenc.CountingWriter{}
	fw, ferr := flate.NewWriter(cw, flate.BestSpeed)
	if ferr != nil {
		panic(fmt.Sprintf("rya: flate writer: %v", ferr))
	}
	var meta [16]byte
	for i, e := range entries {
		fw.Write(e.Key)
		// Pseudo-timestamp + key metadata: distinct per entry, like the
		// millisecond write timestamps Accumulo stores.
		ts := uint64(i)*0x9E3779B97F4A7C15 + 0x5DEECE66D
		for b := 0; b < 16; b++ {
			meta[b] = byte(ts >> ((b % 8) * 8))
		}
		fw.Write(meta[:])
		fw.Write([]byte{'\n'})
	}
	fw.Close()
	return cw.N
}

// binding is one partial solution: variable name → term key segment.
type binding map[string]string

// Query evaluates the BGP with index nested loop joins: patterns are
// ordered by selectivity, then each pattern is answered by one range
// scan per current binding. Every scan's seeks and bytes are charged;
// the BatchScanner parallelism divides the seek latency, not the count.
func (s *Store) Query(q *sparql.Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	clock := cluster.NewClock()

	// Greedy and connected, so bindings propagate.
	patterns := baselines.ConnectedOrder(q.Patterns, s.selectivity)
	bindings := []binding{{}}
	for i, tp := range patterns {
		var agg kv.ScanStats
		var next []binding
		for _, b := range bindings {
			matches, st, err := s.lookup(tp, b)
			if err != nil {
				return nil, err
			}
			agg.Seeks += st.Seeks
			agg.BytesRead += st.BytesRead
			agg.Entries += st.Entries
			next = append(next, matches...)
		}
		// One "stage": client-side batched lookups. Seek latency is
		// divided by the batch parallelism; counts stay truthful.
		cost := s.cluster.Config().Cost
		elapsed := time.Duration(float64(agg.Seeks)*float64(cost.SeekTime)/batchParallelism) +
			time.Duration(float64(agg.BytesRead)/cost.KVScanBytesPerSec*float64(time.Second)) +
			time.Duration(int64(len(next)))*cost.RowTime
		clock.Charge(fmt.Sprintf("pattern %d: %d lookups", i+1, agg.Seeks), elapsed)
		bindings = next
		if len(bindings) == 0 {
			break
		}
	}

	// FILTER application on complete bindings.
	bindings, err := s.applyFilters(q, bindings)
	if err != nil {
		return nil, err
	}

	// Projection and modifiers.
	proj := q.Projection()
	rows := make([][]rdf.Term, 0, len(bindings))
	for _, b := range bindings {
		row := make([]rdf.Term, len(proj))
		okRow := true
		for j, v := range proj {
			seg, ok := b[v]
			if !ok {
				okRow = false
				break
			}
			t, err := parseKeySegment(seg)
			if err != nil {
				return nil, err
			}
			row[j] = t
		}
		if okRow {
			rows = append(rows, row)
		}
	}
	if q.Distinct {
		rows = dedupeRows(rows)
	}
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return &Result{
		Vars:     proj,
		Rows:     rows,
		SimTime:  clock.Elapsed(),
		WallTime: time.Since(start),
		Clock:    clock,
	}, nil
}

// selectivity is Rya's ordering score, lowest first: more bound
// positions first, literal objects ahead of IRIs, then ascending
// predicate cardinality.
func (s *Store) selectivity(tp sparql.TriplePattern) float64 {
	score := 0.0
	if !tp.S.IsVar() {
		score -= 1e9
	}
	if !tp.O.IsVar() {
		score -= 1e9
		if tp.O.Term.IsLiteral() {
			score -= 1e8
		}
	}
	if !tp.P.IsVar() {
		if pid, ok := s.dict.Lookup(tp.P.Term); ok {
			score += float64(s.stats.Predicate(pid).Triples)
		}
	} else {
		score += float64(s.stats.TotalTriples)
	}
	return score
}

// resolved returns the key segment for a pattern position under a
// binding: the bound term's segment, the binding's value for the
// variable, or "" when free.
func resolved(pt sparql.PatternTerm, b binding) string {
	if !pt.IsVar() {
		return keyOf(pt.Term)
	}
	if seg, ok := b[pt.Var]; ok {
		return seg
	}
	return ""
}

// lookup answers one pattern under one binding with a single range scan
// against the best index for the bound prefix.
func (s *Store) lookup(tp sparql.TriplePattern, b binding) ([]binding, kv.ScanStats, error) {
	sSeg := resolved(tp.S, b)
	pSeg := resolved(tp.P, b)
	oSeg := resolved(tp.O, b)

	// Choose index and prefix from the bound positions; the entry
	// layout determines how segments map back to S/P/O.
	var store *kv.Store
	var prefixParts []string
	var layout [3]int // entry segment index → 0:s 1:p 2:o
	switch {
	case sSeg != "":
		store, layout = s.spo, [3]int{0, 1, 2}
		prefixParts = boundPrefix(sSeg, pSeg, oSeg)
	case pSeg != "":
		store, layout = s.pos, [3]int{1, 2, 0}
		prefixParts = boundPrefix(pSeg, oSeg, sSeg)
	case oSeg != "":
		store, layout = s.osp, [3]int{2, 0, 1}
		prefixParts = boundPrefix(oSeg, sSeg, pSeg)
	default:
		store, layout = s.spo, [3]int{0, 1, 2}
		prefixParts = nil
	}
	var prefix []byte
	if len(prefixParts) > 0 {
		prefix = []byte(strings.Join(prefixParts, sep) + sep)
		if len(prefixParts) == 3 {
			prefix = bytes.TrimSuffix(prefix, []byte(sep))
		}
	}
	entries, st, err := store.ScanPrefix(prefix)
	if err != nil {
		return nil, st, fmt.Errorf("rya: index scan: %w", err)
	}

	want := [3]string{sSeg, pSeg, oSeg}
	varOf := [3]string{varName(tp.S), varName(tp.P), varName(tp.O)}
	var out []binding
	for _, e := range entries {
		segs := strings.Split(string(e.Key), sep)
		if len(segs) != 3 {
			return nil, st, fmt.Errorf("rya: corrupt index key %q", e.Key)
		}
		spo := [3]string{segs[indexOfPos(layout, 0)], segs[indexOfPos(layout, 1)], segs[indexOfPos(layout, 2)]}
		ok := true
		nb := binding{}
		for k := 0; k < 3; k++ {
			if want[k] != "" {
				if spo[k] != want[k] {
					ok = false
					break
				}
				continue
			}
			v := varOf[k]
			if v == "" {
				continue
			}
			if prev, seen := nb[v]; seen && prev != spo[k] {
				ok = false
				break
			}
			nb[v] = spo[k]
		}
		if !ok {
			continue
		}
		merged := make(binding, len(b)+len(nb))
		for k, v := range b {
			merged[k] = v
		}
		for k, v := range nb {
			merged[k] = v
		}
		out = append(out, merged)
	}
	return out, st, nil
}

// boundPrefix collects the leading non-empty segments in index order.
func boundPrefix(segs ...string) []string {
	var out []string
	for _, s := range segs {
		if s == "" {
			break
		}
		out = append(out, s)
	}
	return out
}

// indexOfPos finds which entry segment holds S/P/O position pos.
func indexOfPos(layout [3]int, pos int) int {
	for i, p := range layout {
		if p == pos {
			return i
		}
	}
	return 0
}

// varName returns the variable name of a pattern position or "".
func varName(pt sparql.PatternTerm) string {
	if pt.IsVar() {
		return pt.Var
	}
	return ""
}

// applyFilters keeps the bindings satisfying every FILTER, comparing
// each decoded term the way PRoST does.
func (s *Store) applyFilters(q *sparql.Query, bindings []binding) ([]binding, error) {
	if len(q.Filters) == 0 {
		return bindings, nil
	}
	ops := make([]func(int) bool, len(q.Filters))
	for i, f := range q.Filters {
		var err error
		if ops[i], err = engine.FilterOp(f.Op); err != nil {
			return nil, err
		}
	}
	var out []binding
	for _, b := range bindings {
		keep := true
		for i, f := range q.Filters {
			seg, ok := b[f.Var]
			if !ok {
				keep = false
				break
			}
			t, err := parseKeySegment(seg)
			if err != nil {
				return nil, err
			}
			if !ops[i](engine.CompareTerms(t, f.Value)) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, b)
		}
	}
	return out, nil
}

// parseKeySegment decodes a Term.String() segment back into a term.
func parseKeySegment(seg string) (rdf.Term, error) {
	t, err := rdf.ParseTerm(seg)
	if err != nil {
		return rdf.Term{}, fmt.Errorf("rya: cannot decode key segment %q: %v", seg, err)
	}
	return t, nil
}

// dedupeRows removes duplicate rows preserving order.
func dedupeRows(rows [][]rdf.Term) [][]rdf.Term {
	seen := make(map[string]struct{}, len(rows))
	var out [][]rdf.Term
	for _, r := range rows {
		var sb strings.Builder
		for _, t := range r {
			sb.WriteString(t.String())
			sb.WriteByte('\x00')
		}
		k := sb.String()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}
