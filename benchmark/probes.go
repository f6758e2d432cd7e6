package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/watdiv"
	"repro/internal/wire"
)

// The probes time the public functions of single layers on inputs
// taken from the run's own world, so a layer's cost is known apart from
// the operations that cross it. Each probe repeats a fixed amount of
// work and reports the median repetition.

const probeRepeats = 7

// medianRun times fn probeRepeats times and returns the median
// duration in nanoseconds.
func medianRun(fn func()) float64 {
	d := make([]float64, probeRepeats)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	return median(d)
}

// mallocsDuring returns the heap objects and bytes fn allocated.
func mallocsDuring(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// sink keeps probe results reachable so the calls are not optimised
// away.
var sink any

// probeParsePlan times sparql.Parse over the instance texts and
// Store.Plan (translate + optimise, no cache) over the parsed queries,
// each call on its own, and counts their allocations.
func probeParsePlan(w *world, v map[string]float64) error {
	const calls = 1000
	insts := w.distinct
	parse := make([]float64, 0, calls)
	build := make([]float64, 0, calls)
	var perr error
	parseObjs, _ := mallocsDuring(func() {
		for i := 0; i < calls; i++ {
			in := insts[i%len(insts)]
			t0 := time.Now()
			q, err := sparql.Parse(in.text)
			parse = append(parse, float64(time.Since(t0)))
			if err != nil {
				perr = err
			}
			sink = q
		}
	})
	planObjs, _ := mallocsDuring(func() {
		for i := 0; i < calls; i++ {
			in := insts[i%len(insts)]
			t0 := time.Now()
			p, err := w.store.Plan(in.parsed, core.QueryOptions{})
			build = append(build, float64(time.Since(t0)))
			if err != nil {
				perr = err
			}
			sink = p
		}
	})
	v["sparql.parse_us"] = median(parse) / 1e3
	v["sparql.parse_mallocs"] = parseObjs / calls
	v["plan.cold_us"] = median(build) / 1e3
	v["plan.cold_mallocs"] = planObjs / calls
	return perr
}

// leafRows is one scan leaf's rows, flattened over partitions.
type leafRows struct {
	vars []string
	rows []engine.Row
}

func allParts(int) bool { return true }

func flatten(parts [][]engine.Row) []engine.Row {
	var out []engine.Row
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// probeScan times Store.ScanNodeParts over C2's mixed-strategy leaves
// (VP and property-table scans), as a shard server evaluates them.
func probeScan(w *world, v map[string]float64) error {
	c2, err := watdiv.QueryByName("C2")
	if err != nil {
		return err
	}
	tree, err := w.store.Translate(c2.Parsed, core.StrategyMixed)
	if err != nil {
		return err
	}
	scanned := 0
	var serr error
	scanNs := medianRun(func() {
		scanned = 0
		for _, n := range tree.Nodes {
			parts, _, err := w.store.ScanNodeParts(n, nil, allParts)
			if err != nil {
				serr = err
			}
			for _, p := range parts {
				scanned += len(p)
			}
		}
	})
	v["core.scan_ns_per_row"] = scanNs / float64(max(scanned, 1))
	return serr
}

// kernelInput is what the kernel and codec probes run on: the two
// largest leaves of C2 that share a variable, captured through
// ScanNodeParts, with the join they form laid out the way the
// executors hand it to a kernel.
type kernelInput struct {
	l, r              leafRows // l is the larger (probe) side, r the build side
	lKey, rKey, rKeep []int
	outWidth          int
}

func captureKernelInput(w *world) (*kernelInput, error) {
	c2, err := watdiv.QueryByName("C2")
	if err != nil {
		return nil, err
	}
	// Under the VP-only translation every leaf is a two-column
	// (subject, object) table whose columns are the pattern's variables.
	vp, err := w.store.Translate(c2.Parsed, core.StrategyVPOnly)
	if err != nil {
		return nil, err
	}
	var leaves []leafRows
	for _, n := range vp.Nodes {
		parts, _, err := w.store.ScanNodeParts(n, nil, allParts)
		if err != nil {
			return nil, err
		}
		if vars := n.Vars(); len(vars) == 2 {
			leaves = append(leaves, leafRows{vars: vars, rows: flatten(parts)})
		}
	}
	in := &kernelInput{}
	best := -1
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			shared := engine.Schema(leaves[i].vars).Shared(engine.Schema(leaves[j].vars))
			if n := len(leaves[i].rows) + len(leaves[j].rows); len(shared) > 0 && n > best {
				best, in.l, in.r = n, leaves[i], leaves[j]
			}
		}
	}
	if best <= 0 {
		return nil, fmt.Errorf("C2 has no two non-empty leaves sharing a variable")
	}
	if len(in.r.rows) > len(in.l.rows) {
		in.l, in.r = in.r, in.l
	}
	lSchema, rSchema := engine.Schema(in.l.vars), engine.Schema(in.r.vars)
	for _, c := range lSchema.Shared(rSchema) {
		in.lKey = append(in.lKey, lSchema.Index(c))
		in.rKey = append(in.rKey, rSchema.Index(c))
	}
	for i, c := range rSchema {
		if !lSchema.Contains(c) {
			in.rKeep = append(in.rKeep, i)
		}
	}
	in.outWidth = len(lSchema) + len(in.rKeep)
	return in, nil
}

// probeEngine times the materialized executors' kernels: the
// partition join, the broadcast probe and distinct over the join's
// output.
func probeEngine(w *world, v map[string]float64) error {
	in, err := captureKernelInput(w)
	if err != nil {
		return err
	}
	l, r := in.l.rows, in.r.rows
	inRows := float64(len(l) + len(r))
	var joined []engine.Row
	v["engine.join_kernel_ns_per_row"] = medianRun(func() {
		joined = engine.JoinPartitionKernel(l, r, in.lKey, in.rKey, in.outWidth, nil, in.rKeep)
	}) / inRows
	_, joinBytes := mallocsDuring(func() {
		joined = engine.JoinPartitionKernel(l, r, in.lKey, in.rKey, in.outWidth, nil, in.rKeep)
	})
	v["engine.join_kernel_b_per_row"] = joinBytes / inRows

	jp := engine.NewJoinProbe(r, in.rKey)
	v["engine.probe_ns_per_row"] = medianRun(func() {
		sink = jp.Probe(l, in.lKey, false, in.outWidth, nil, in.rKeep)
	}) / float64(len(l))

	v["engine.distinct_ns_per_row"] = medianRun(func() {
		sink = engine.DistinctKernel(joined, in.outWidth)
	}) / float64(max(len(joined), 1))
	return nil
}

// probeStreamKernels times what the morsel executor adds to the same
// join: the shared build hash probed row by row into an arena, and the
// columnar chunk codec over the larger leaf.
func probeStreamKernels(w *world, v map[string]float64) error {
	in, err := captureKernelInput(w)
	if err != nil {
		return err
	}
	l := in.l.rows
	n := float64(len(l))
	sj := engine.NewStreamJoin(engine.Schema(in.l.vars), engine.Schema(in.r.vars), nil)
	hash := sj.Build(in.r.rows, false)
	v["engine.stream_probe_ns_per_row"] = medianRun(func() {
		arena := engine.NewRowArena(len(sj.OutSchema()), len(l))
		for _, pr := range l {
			hash.Probe(pr, arena)
		}
		sink = arena
	}) / n

	ids := make([][]rdf.ID, len(l))
	for i, row := range l {
		ids[i] = row
	}
	var chunk columnar.RowChunk
	var cerr error
	v["columnar.encode_ns_per_row"] = medianRun(func() {
		chunk, cerr = columnar.EncodeRows(len(in.l.vars), ids)
	}) / n
	if cerr != nil {
		return cerr
	}
	v["columnar.decode_ns_per_row"] = medianRun(func() {
		sink, cerr = chunk.Decode()
	}) / n
	v["columnar.bytes_per_row"] = float64(chunk.SizeBytes()) / n
	return cerr
}

// probeWire times the shard protocol's row codec over the larger leaf
// and its framing (length, type, checksum) over a 1 MiB payload,
// written and read back through a buffer.
func probeWire(w *world, v map[string]float64) error {
	in, err := captureKernelInput(w)
	if err != nil {
		return err
	}
	raw := make([][]uint32, len(in.l.rows))
	for i, row := range in.l.rows {
		raw[i] = make([]uint32, len(row))
		for j, id := range row {
			raw[i][j] = uint32(id)
		}
	}
	n := float64(len(raw))
	var packed []byte
	var cerr error
	v["wire.encode_ns_per_row"] = medianRun(func() {
		packed = wire.AppendRows(packed[:0], len(in.l.vars), raw)
	}) / n
	v["wire.decode_ns_per_row"] = medianRun(func() {
		sink, _, cerr = wire.DecodeRows(packed)
	}) / n
	if cerr != nil {
		return cerr
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var frame bytes.Buffer
	v["wire.frame_us_per_mb"] = medianRun(func() {
		frame.Reset()
		if _, err := wire.WriteFrame(&frame, 1, payload); err != nil {
			cerr = err
		}
		if _, _, _, err := wire.ReadFrame(&frame); err != nil {
			cerr = err
		}
	}) / 1e3
	return cerr
}

// probeLoad breaks one load of the world's N-Triples text into its
// layers: the three that have public entry points are timed on their
// own, and what remains of the whole load is the table building.
func probeLoad(w *world, v map[string]float64) error {
	var g *rdf.Graph
	var err error
	t0 := time.Now()
	if g, err = rdf.NewNTriplesReader(bytes.NewReader(w.nt)).ReadAll(); err != nil {
		return err
	}
	parse := time.Since(t0)

	t0 = time.Now()
	triples := rdf.NewDictionary().EncodeGraph(g)
	encode := time.Since(t0)

	t0 = time.Now()
	// CollectJoinStats runs stats.Collect itself, as a load does.
	sink = stats.CollectJoinStats(triples, stats.Config{CSets: true})
	collect := time.Since(t0)

	var store *core.Store
	t0 = time.Now()
	_, allocated := mallocsDuring(func() { store, err = loadStore(w.nt) })
	whole := time.Since(t0)
	if err != nil {
		return err
	}
	rep := store.LoadReport()
	k := float64(g.Len()) / 1e3
	v["rdf.ntriples_parse_us_per_ktriple"] = float64(parse) / 1e3 / k
	v["rdf.dict_encode_us_per_ktriple"] = float64(encode) / 1e3 / k
	v["stats.collect_ms"] = float64(collect) / 1e6
	v["load.tables_ms"] = float64(whole-parse-encode-collect) / 1e6
	v["load.triples_per_s"] = float64(rep.Triples) / whole.Seconds()
	v["load.alloc_mb"] = allocated / 1e6
	v["load.sim_s"] = rep.LoadTime.Seconds()
	return nil
}
