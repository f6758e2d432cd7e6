package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in a fresh process, so heap state and
// collector pacing never leak from one workload into the next, and
// returns the result it printed as its last line. The child's other
// lines are relayed to relay when it is not nil.
func runChild(name string, cfg config, traced bool, relay *os.File) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	if relay != nil {
		fmt.Fprintln(relay, strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("workload %s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("workload %s printed no result: %w", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("workload %s: %w", name, runErr)
	}
	return res, nil
}

// runAll runs every workload twice, each run in its own process: with
// tracing off for the end-to-end metrics, then traced for the per-layer
// ones, printing every metric by name with its unit.
func runAll(cfg config) error {
	var firstErr error
	for i := range specs {
		s := &specs[i]
		for _, traced := range []bool{false, true} {
			res, err := runChild(s.name, cfg, traced, os.Stdout)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; ok {
					fmt.Printf("%-12s %-34s %16.6g %s\n", s.name, d.name, m.Value, m.Unit)
				}
			}
			if !traced { // the traced run prints its own as client.err_ratio
				fmt.Printf("%-12s %-34s %16.6g ratio (%d failed of %d)\n", s.name, "err_ratio",
					perOp(float64(res.Failed), res.Attempted), res.Failed, res.Attempted)
			}
			fmt.Println()
		}
	}
	return firstErr
}

// readBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json in the working directory, the root of the checkout
// run.sh starts the benchmark from.
func readBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, d := range endToEnd {
		if bounds[d.name] <= 0 {
			return nil, fmt.Errorf("BENCHMARK.json gives %s no bound", d.name)
		}
	}
	return bounds, nil
}

// runRepeat runs n sets of every workload with tracing off, set i on
// seed+i, and prints as Markdown each workload × metric's median,
// quartiles and spreads over the sets, and how far the median of the
// second half of the sets is from the first half's. It fails when a
// spread (other than set-up time's) or a half-to-half move in the
// worse direction exceeds the metric's bound — the two checks a
// benchmark must pass before its numbers can gate a change.
func runRepeat(cfg config, n int) error {
	if n < 4 {
		return fmt.Errorf("-repeat needs at least 4 sets to compare two halves")
	}
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	for set := 0; set < n; set++ {
		c := cfg
		c.seed = cfg.seed + int64(set)
		for i := range specs {
			name := specs[i].name
			fmt.Fprintf(os.Stderr, "set %d/%d seed %d: %s\n", set+1, n, c.seed, name)
			res, err := runChild(name, c, false, nil)
			if err != nil {
				return err
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	fmt.Printf("%d sets, seeds %d to %d, %g s windows: %s\n\n", n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, environment())
	fmt.Println("Spread is (Q3 − Q1) ÷ median with the quartiles of Python's `statistics.quantiles(values, n=4)`;")
	fmt.Println("halves is the median of the second half of the sets over the first half's, signed so that positive is worse.")
	fmt.Println()
	var failures []string
	for i := range specs {
		name := specs[i].name
		fmt.Printf("### %s\n\n", name)
		fmt.Println("| metric | unit | median | Q1 | Q3 | spread | (max − min) ÷ median | halves | bound |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			xs := values[name][d.name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread := (q3 - q1) / med
			worse := median(xs[n/2:])/median(xs[:n/2]) - 1
			if d.better == "higher" {
				worse = -worse
			}
			fmt.Printf("| `%s` | %s | %.6g | %.6g | %.6g | %.2f %% | %.2f %% | %+.2f %% | %g %% |\n",
				d.name, d.unit, med, q1, q3, spread*100, (hi-lo)/med*100, worse*100, bounds[d.name]*100)
			if d.name != "setup_s" && spread > bounds[d.name] {
				failures = append(failures, fmt.Sprintf("%s/%s spread %.2f %% exceeds its bound %g %%", name, d.name, spread*100, bounds[d.name]*100))
			}
			if worse > bounds[d.name] {
				failures = append(failures, fmt.Sprintf("%s/%s second half is %.2f %% worse than the first, bound %g %%", name, d.name, worse*100, bounds[d.name]*100))
			}
		}
		fmt.Println()
	}
	if len(failures) > 0 {
		return fmt.Errorf("not steady:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("Every spread and every half-to-half move is within its bound.")
	return nil
}
