// Command benchmark is the repository's benchmark: five workloads, each
// driving one route through the system closed-loop, reporting the
// end-to-end metrics of BENCHMARK.json with tracing off and, in a
// separate traced run, the per-layer metrics. See README.md.
//
//	bash benchmark/run.sh --workload join-mat --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh                      # every workload, both runs
//	bash benchmark/run.sh --repeat 10          # stability report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run in this process; empty runs every workload, each in a child process")
		seed     = flag.Int64("seed", 1, "seed of the instance pool, the template constants and the pass permutations")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead of the end-to-end ones")
		repeat   = flag.Int("repeat", 0, "run this many sets of all workloads with consecutive seeds and report their spread")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-repeat n]")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, setups: setupRepeats, outDir: outDir, info: os.Stdout}
	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, cfg, *trace == 1)
	case *repeat > 0:
		err = runRepeat(cfg, *repeat)
	default:
		err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result as
// the last line of standard output.
func runOne(name string, cfg config, traced bool) error {
	s, err := specByName(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.info, "workload %s seed %d seconds %g traced %v: %s\n", s.name, cfg.seed, cfg.seconds, traced, environment())
	var res result
	if traced {
		res, err = runTraced(s, cfg)
	} else {
		res, err = runEndToEnd(s, cfg)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed verification", res.Failed, res.Attempted)
	}
	return nil
}
