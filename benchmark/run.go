package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one run's settings. The command line sets seed and
// seconds; scale (0 = the workload's own), setups and outDir differ
// from the constants below only in the tests, which run every workload
// small and quickly and write their spans to a temporary directory.
type config struct {
	seed    int64
	seconds float64
	scale   int
	setups  int
	outDir  string
	info    io.Writer // human-readable lines; the result goes to stdout
}

const (
	// runSeconds is the window BENCHMARK.json's run_seconds names and
	// STABILITY.md was measured with; it is the default of -seconds.
	runSeconds = 15
	// setupRepeats is how many times an end-to-end run builds its world;
	// setup_s takes the median, so one slow load does not decide it.
	setupRepeats = 3
	// outDir is where a traced run writes its spans (git-ignored).
	outDir = "benchmark/out"
)

// tally counts operations attempted and failed across set-up and the
// measured window.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(attempted, failed int, err error) {
	t.attempted += attempted
	t.failed += failed
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// addWindow counts a window's operations and returns how many it ran.
func (t *tally) addWindow(win *window) (ops, failed int) {
	ops, failed = win.ops()
	t.add(ops, failed, win.firstErr())
	return ops, failed
}

// prepared is a world whose pool is drawn, verified and warm.
type prepared struct {
	w      *world
	setupS float64
	tally  tally
}

// prepare performs the whole set-up: build the world repeats times
// (keeping the last), draw and reference-evaluate the instances, check
// every distinct instance's row hash down each path, warm each path
// with two passes, and collect garbage.
func prepare(s *spec, cfg config, paths []path, repeats int) (*prepared, error) {
	scale := s.scale
	if cfg.scale > 0 {
		scale = cfg.scale
	}
	var w *world
	worldS := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if w, err = buildWorld(s, scale, cfg.seed, paths); err != nil {
			return nil, err
		}
		worldS = append(worldS, time.Since(t0).Seconds())
	}
	p := &prepared{w: w}
	t0 := time.Now()
	if err := w.drawInstances(s.templates, s.pool, cfg.seed); err != nil {
		w.close()
		return nil, err
	}
	for _, path := range paths {
		p.tally.add(verifyRound(w, path, w.pool))
		for i := 0; i < 2; i++ {
			p.tally.addWindow(runWindow(w, path, w.pool, s.clientCount(), 0, cfg.seed, nil))
		}
	}
	runtime.GC()
	p.setupS = median(worldS) + time.Since(t0).Seconds()
	fmt.Fprintf(cfg.info, "setup: world %s s (median of %d), instances+verify+warm-up %.3f s, %d instances (%d distinct)\n",
		fmtFloats(worldS), repeats, time.Since(t0).Seconds(), poolSize(w.pool), len(w.distinct))
	return p, nil
}

func poolSize(pool [][]*instance) int {
	n := 0
	for _, insts := range pool {
		n += len(insts)
	}
	return n
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, "/")
}

// verifyRound executes every distinct instance of pool once down the
// path and compares row count and row hash with the reference.
func verifyRound(w *world, p path, pool [][]*instance) (attempted, failed int, firstErr error) {
	exec := w.newExecutor(p)
	seen := map[string]bool{}
	var out outcome
	for _, insts := range pool {
		for _, in := range insts {
			if seen[in.text] {
				continue
			}
			seen[in.text] = true
			attempted++
			err := exec(in, &out)
			if err == nil {
				err = in.check(&out, true)
			}
			if err != nil {
				failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s path: %w", p, err)
				}
			}
		}
	}
	return attempted, failed, firstErr
}

// heapLiveMB is the heap in use after two collections (the second
// frees what the first's finalizers released).
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runEndToEnd measures the workload with tracing off.
func runEndToEnd(s *spec, cfg config) (result, error) {
	p, err := prepare(s, cfg, []path{s.path}, cfg.setups)
	if err != nil {
		return result{}, err
	}
	defer p.w.close()
	heap := heapLiveMB()
	win := runWindow(p.w, s.path, p.w.pool, s.clientCount(), time.Duration(cfg.seconds*float64(time.Second)), cfg.seed, nil)
	ops, failed := p.tally.addWindow(win)
	done := ops - failed
	if done == 0 {
		return result{}, fmt.Errorf("no operation of the window succeeded: %v", p.tally.firstErr)
	}

	lats := win.templateLatencies()
	p50s := make([]float64, len(lats))
	tails := make([]float64, len(lats))
	fmt.Fprintf(cfg.info, "window: %.3f s, %d clients, %d ops, %d failed, %d collections; per-template latency (ms):\n",
		win.elapsed.Seconds(), len(win.logs), ops, failed, win.after.NumGC-win.before.NumGC)
	for t, l := range lats {
		p50s[t], tails[t] = percentile(l, 0.5), percentile(l, s.tail)
		fmt.Fprintf(cfg.info, "  %-3s n=%-5d p50=%-9.3f p%.0f=%.3f\n", p.w.templates[t], len(l), p50s[t], s.tail*100, tails[t])
	}
	rep := p.w.store.LoadReport()
	values := map[string]float64{
		"setup_s":         p.setupS,
		"qps":             float64(len(win.logs)*len(lats)) / win.medianPassSeconds(),
		"lat_gm_p50_ms":   geomean(p50s),
		"lat_gm_tail_ms":  geomean(tails),
		"alloc_kb_per_op": float64(win.after.TotalAlloc-win.before.TotalAlloc) / 1024 / float64(ops),
		"mallocs_per_op":  float64(win.after.Mallocs-win.before.Mallocs) / float64(ops),
		// Divided in this order the quotient is the correctly rounded
		// sum-per-pass ÷ ops-per-pass however many passes ran, so one
		// seed gives one value to the last digit.
		"sim_ms_per_op":          float64(win.simNs()) / float64(done) / 1e6,
		"heap_live_mb":           heap,
		"store_bytes_per_triple": float64(rep.SizeBytes) / float64(rep.Triples),
	}
	return p.tally.result(endToEnd, values, cfg.info), nil
}

// result closes the tally into the printed object, reporting the first
// failure on the info stream.
func (t *tally) result(defs []metricDef, values map[string]float64, info io.Writer) result {
	if t.failed > 0 {
		fmt.Fprintf(info, "FAILED: %d of %d operations; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: fill(defs, values)}
}

// environment describes the machine and runtime, so a reader of saved
// output can tell two machines apart.
func environment() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					model = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fmt.Sprintf("%s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), model)
}
