package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// Shares of -seconds a traced run gives each window: the workload's
// route twice, untraced then traced, so that the difference between
// the two is the tracing overhead, and on shard-2 the same templates
// in-process, which shard.slowdown_x is measured against.
const (
	ownShare  = 0.4
	baseShare = 0.2
)

// rusage returns the process's user plus system CPU seconds and its
// peak resident set in MB (ru_maxrss is in KiB on Linux).
func rusage() (cpuSeconds, rssPeakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6
}

// perOp divides, returning 0 for an empty window instead of NaN.
func perOp(x float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

// runTraced measures the per-layer metrics of the layers the workload's
// route crosses: the route untraced and traced, then the probes of
// those layers' public functions, all on one world. Every other
// per-layer metric is printed as 0 — this workload spends nothing
// there — so a layer's numbers are measured once per set, by the
// workload README.md says they should move. Spans go to
// <out>/trace-<workload>.json.
func runTraced(s *spec, cfg config) (result, error) {
	paths := []path{s.path}
	if s.path == pathShard {
		paths = append(paths, pathMat)
	}
	p, err := prepare(s, cfg, paths, 1)
	if err != nil {
		return result{}, err
	}
	defer p.w.close()
	w := p.w
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	share := func(f float64) time.Duration { return time.Duration(cfg.seconds * f * float64(time.Second)) }
	clients := s.clientCount()

	// Tracing off: throughput baseline, process counters and the
	// mix-wide latency tail.
	cpu0, _ := rusage()
	plain := runWindow(w, s.path, w.pool, clients, share(ownShare), cfg.seed, nil)
	cpu1, _ := rusage()
	ops, _ := p.tally.addWindow(plain)
	var all []float64
	for _, l := range plain.templateLatencies() {
		all = append(all, l...)
	}
	sort.Float64s(all)
	secs := plain.elapsed.Seconds()
	v["process.cpu_ms_per_op"] = perOp((cpu1-cpu0)*1e3, ops)
	v["process.gc_per_s"] = float64(plain.after.NumGC-plain.before.NumGC) / secs
	v["process.gc_pause_ms_per_s"] = float64(plain.after.PauseTotalNs-plain.before.PauseTotalNs) / 1e6 / secs
	v["client.lat_p99_ms"] = percentile(all, 0.99)
	v["client.lat_max_ms"] = percentile(all, 1)

	// Tracing on.
	traced := func(path path, dur time.Duration) *phase {
		ph := runPhase(w, path, w.pool, clients, dur, cfg.seed)
		ops, _ := p.tally.addWindow(ph.win)
		fmt.Fprintf(cfg.info, "traced %-6s %d ops in %.2f s; self time: %s\n", path, ops, ph.win.elapsed.Seconds(), describeSelfTimes(selfTimes(ph.logs)))
		return ph
	}
	own := traced(s.path, share(ownShare))
	phases := []*phase{own}
	plainQPS, tracedQPS := 1/plain.medianPassSeconds(), 1/own.win.medianPassSeconds()
	v["trace.overhead_pct"] = (plainQPS - tracedQPS) / plainQPS * 100
	pops, _ := own.win.ops()
	v["plan.cache_hit_ratio"] = perOp(float64(own.cache.Hits), int(own.cache.Hits+own.cache.Misses))
	v["plan.cache_evictions_per_kop"] = perOp(float64(own.cache.Evictions)*1e3, pops)

	st := &own.stats
	done := st.ops - st.failed
	if st.estErrN > 0 {
		v["plan.est_error_gm"] = math.Exp(st.estErrLog / float64(st.estErrN))
	}
	switch s.path {
	case pathMat, pathShard:
		v["core.exec_us"] = medianNs(st.engineNs) / 1e3
		v["core.rows_examined_per_result"] = perOp(float64(st.scanRows), int(st.resultRows))
		v["core.intermediate_rows_per_op"] = perOp(float64(st.joinRows), done)
		v["core.sim_scan_ms"] = perOp(float64(st.simScan)/1e6, done)
		v["core.sim_join_ms"] = perOp(float64(st.simJoin)/1e6, done)
		v["core.sim_other_ms"] = perOp(float64(st.simOther)/1e6, done)
		v["core.net_kb_priced_per_op"] = perOp(float64(st.netBytes)/1024, done)
		v["core.disk_kb_priced_per_op"] = perOp(float64(st.diskBytes)/1024, done)
		v["core.peak_mem_mb"] = float64(st.peakMem) / 1e6
		v["core.replans_per_kop"] = perOp(float64(st.replans)*1e3, done)
	case pathStream:
		v["stream.exec_us"] = medianNs(st.engineNs) / 1e3
		v["stream.first_row_sim_ms"] = perOp(float64(st.firstRow)/1e6, st.streamed)
		v["stream.peak_mem_mb"] = float64(st.peakMem) / 1e6
		v["stream.streamed_ratio"] = perOp(float64(st.streamed), st.ops)
	case pathHTTP:
		v["core.exec_us"] = medianNs(st.engineNs) / 1e3 // the responses' stats.wallMs
		v["serve.roundtrip_us"] = medianNs(st.callNs) / 1e3
		v["serve.overhead_us"] = medianNs(st.overheadNs) / 1e3
		v["serve.resp_kb_per_op"] = perOp(float64(st.respBytes)/1024, done)
		v["serve.shed_ratio"] = perOp(float64(st.shed), st.ops)
	}

	switch s.path {
	case pathMat:
		if err = probeScan(w, v); err == nil {
			err = probeEngine(w, v)
		}
	case pathStream:
		err = probeStreamKernels(w, v)
	case pathHTTP:
		err = probeParsePlan(w, v)
	case pathShard:
		net := own.net
		v["shard.exchanges_per_op"] = perOp(float64(net.Exchanges), done)
		v["shard.wire_kb_sent_per_op"] = perOp(float64(net.BytesSent)/1024, done)
		v["shard.wire_kb_recv_per_op"] = perOp(float64(net.BytesReceived)/1024, done)
		for _, rtt := range net.ShardRTT {
			v["shard.rtt_p50_us"] += float64(rtt.P50) / 1e3 / float64(len(net.ShardRTT))
			v["shard.rtt_p99_us"] = max(v["shard.rtt_p99_us"], float64(rtt.P99)/1e3)
		}
		// The same templates in-process, in this run: per template,
		// median latency through the shards over in-process.
		base := traced(pathMat, share(baseShare))
		phases = append(phases, base)
		baseLat, shdLat := base.win.templateLatencies(), own.win.templateLatencies()
		ratios := make([]float64, 0, len(baseLat))
		for t := range baseLat {
			if len(baseLat[t]) > 0 && len(shdLat[t]) > 0 {
				ratios = append(ratios, percentile(shdLat[t], 0.5)/percentile(baseLat[t], 0.5))
			}
		}
		v["shard.slowdown_x"] = geomean(ratios)
		err = probeWire(w, v)
	case pathLoad:
		err = probeLoad(w, v)
	}
	if err != nil {
		return result{}, fmt.Errorf("layer probe: %w", err)
	}
	v["client.err_ratio"] = perOp(float64(p.tally.failed), p.tally.attempted)
	v["harness.overhead_us_per_op"] = harnessOverheadUs(w)
	_, v["process.rss_peak_mb"] = rusage()

	name, err := writeTrace(cfg.outDir, s, cfg.seed, phases)
	if err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(cfg.info, "spans written to %s\n", name)
	return p.tally.result(perLayer, v, cfg.info), nil
}

// harnessOverheadUs runs an operation that does nothing through the
// same loop (one-instance passes until the sample buffers are full)
// and returns the loop's own cost per operation.
func harnessOverheadUs(w *world) float64 {
	pool := [][]*instance{{w.distinct[0]}}
	log := newClientLog(1)
	noop := executor(func(in *instance, out *outcome) error { out.rows = in.wantRows; return nil })
	t0 := time.Now()
	runClient(pool, 0, 1, noop, log, t0.Add(time.Hour), 1, nil)
	return float64(time.Since(t0)) / 1e3 / float64(log.ops)
}
