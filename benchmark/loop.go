package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// maxSamples bounds each client's per-template latency buffer. Buffers
// are allocated before the window opens; a client that fills one ends
// its window at the next pass boundary.
const maxSamples = 1 << 14

// clientLog is one client's preallocated record of a window.
type clientLog struct {
	lat    [][]int64 // per template, nanoseconds
	passes []int64   // nanoseconds per pass
	simNs  int64
	ops    int
	failed int
	// firstErr keeps the first failure's text for the report; it is set
	// off the hot path (failures are not expected).
	firstErr error
}

func newClientLog(templates int) *clientLog {
	l := &clientLog{lat: make([][]int64, templates), passes: make([]int64, 0, maxSamples)}
	for t := range l.lat {
		l.lat[t] = make([]int64, 0, maxSamples)
	}
	return l
}

// observer sees every operation of a traced window. It is nil in the
// timed window, whose loop then does nothing but time and count.
type observer interface {
	// begin opens the operation's root span and returns its id.
	begin(client int) int32
	// end closes it and records what the operation returned and when
	// the call into the path started and how long it took.
	end(client int, id int32, in *instance, out *outcome, err error, callStart time.Time, call time.Duration)
}

// window is the memory and collector activity of one measured window.
type window struct {
	logs    []*clientLog
	elapsed time.Duration
	before  runtime.MemStats
	after   runtime.MemStats
}

// runWindow drives pool closed-loop from clients goroutines for at
// least dur. Each client repeats passes: one seeded permutation of the
// templates, taking for each template the next instance of its own
// share of the pool (client c owns instances c, c+clients, …). A client
// stops at the first pass boundary after dur, so every template has the
// same number of samples. Every operation's row count is checked
// against the reference.
func runWindow(w *world, p path, pool [][]*instance, clients int, dur time.Duration, seed int64, obs observer) *window {
	for _, insts := range pool {
		// Every client needs its own instances of every template.
		clients = min(clients, len(insts))
	}
	win := &window{logs: make([]*clientLog, clients)}
	execs := make([]executor, clients)
	for c := range win.logs {
		win.logs[c] = newClientLog(len(pool))
		execs[c] = w.newExecutor(p)
	}
	runtime.ReadMemStats(&win.before)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(pool, c, clients, execs[c], win.logs[c], deadline, seed, obs)
		}(c)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	runtime.ReadMemStats(&win.after)
	return win
}

func runClient(pool [][]*instance, c, clients int, exec executor, log *clientLog, deadline time.Time, seed int64, obs observer) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
	order := make([]int, len(pool))
	share := make([]int, len(pool))
	cursor := make([]int, len(pool))
	for t := range order {
		order[t] = t
		// Each template's walk starts at a seeded point of this client's
		// share of its instances.
		share[t] = (len(pool[t]) - c + clients - 1) / clients
		cursor[t] = rng.Intn(share[t])
	}
	var out outcome
	for len(log.passes) < maxSamples {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		passStart := time.Now()
		for _, t := range order {
			in := pool[t][c+cursor[t]*clients]
			if cursor[t]++; cursor[t] == share[t] {
				cursor[t] = 0
			}
			var id int32
			if obs != nil {
				id = obs.begin(c)
			}
			t0 := time.Now()
			err := exec(in, &out)
			d := time.Since(t0)
			if err == nil {
				err = in.check(&out, false)
			}
			if obs != nil {
				obs.end(c, id, in, &out, err, t0, d)
			}
			log.ops++
			if err != nil {
				log.failed++
				if log.firstErr == nil {
					log.firstErr = err
				}
				continue
			}
			log.lat[t] = append(log.lat[t], int64(d))
			log.simNs += out.simNs
		}
		now := time.Now()
		log.passes = append(log.passes, int64(now.Sub(passStart)))
		if !now.Before(deadline) {
			return
		}
	}
}

func (win *window) ops() (ops, failed int) {
	for _, l := range win.logs {
		ops += l.ops
		failed += l.failed
	}
	return ops, failed
}

func (win *window) firstErr() error {
	for _, l := range win.logs {
		if l.firstErr != nil {
			return l.firstErr
		}
	}
	return nil
}

// templateLatencies merges the clients' samples per template, sorted,
// in milliseconds.
func (win *window) templateLatencies() [][]float64 {
	out := make([][]float64, len(win.logs[0].lat))
	for t := range out {
		var all []int64
		for _, l := range win.logs {
			all = append(all, l.lat[t]...)
		}
		out[t] = sortedMs(all)
	}
	return out
}

// medianPassSeconds is the median duration of one pass over all
// clients' passes.
func (win *window) medianPassSeconds() float64 {
	var all []float64
	for _, l := range win.logs {
		for _, p := range l.passes {
			all = append(all, float64(p)/1e9)
		}
	}
	return median(all)
}

func (win *window) simNs() int64 {
	var s int64
	for _, l := range win.logs {
		s += l.simNs
	}
	return s
}
