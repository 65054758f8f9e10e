package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// The A/A check runs the same binary in two sets of n runs per workload,
// each run a fresh process with its own seed (seed, seed+1, ...; both sets
// use the same seeds), alternating the workload order between passes. It is
// how the bounds in BENCHMARK.json were validated: a bound is only worth
// declaring if two sets of runs of identical code agree within it.

// aaCell is one metric on one workload.
type aaCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	Q1A      float64   `json:"q1_a"`
	Q3A      float64   `json:"q3_a"`
	Q1B      float64   `json:"q1_b"`
	Q3B      float64   `json:"q3_b"`
	SpreadA  float64   `json:"spread_a"` // (q3 - q1) / median
	SpreadB  float64   `json:"spread_b"`
	Worse    float64   `json:"b_worse_than_a"` // share of median A by which B is worse; negative = better
	Pass     bool      `json:"pass"`
	Strict   bool      `json:"strict"` // also within half the bound between sets
}

// aaReport is AA.json.
type aaReport struct {
	Runs       int      `json:"runs_per_set"`
	Seconds    int      `json:"run_seconds"`
	FirstSeed  int64    `json:"first_seed"`
	WallSecs   float64  `json:"wall_seconds"`
	MaxRunSecs float64  `json:"slowest_run_seconds"`
	Rule       string   `json:"rule"`
	Pass       bool     `json:"pass"`
	Cells      []aaCell `json:"cells"`
}

const aaRule = "pass: each set's (q3-q1)/median <= bound (setup_s exempt) and set B's median not worse than set A's by more than the bound; " +
	"strict: also |median B - median A| <= bound/2. Quartiles as Python statistics.quantiles(n=4)."

// runOnce runs one workload once in a fresh process and returns its metrics.
func runOnce(self string, where []string, workload string, seed int64, seconds int) (map[string]metricValue, time.Duration, error) {
	args := append([]string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0"}, where...)
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	took := time.Since(t0)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, 0, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !line.Correct || line.Failed != 0 {
		return nil, 0, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, line.Failed, line.Attempted)
	}
	return line.Metrics, took, nil
}

func runAA(spec *benchSpec, n int, seed int64, seconds int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Every run gets this process's idea of where the binaries and the
	// checkout are.
	var where []string
	for _, name := range []string{"kokod", "root", "out"} {
		where = append(where, "-"+name, flag.Lookup(name).Value.String())
	}
	rep := aaReport{Runs: n, Seconds: seconds, FirstSeed: seed, Rule: aaRule}
	values := map[string]map[string][2][]float64{} // workload -> metric -> set -> values
	t0 := time.Now()
	for set := 0; set < 2; set++ {
		for i := 0; i < n; i++ {
			order := make([]int, len(spec.Workloads))
			for j := range order {
				order[j] = j
				if (i+set)%2 == 1 { // alternate the workload order between passes
					order[j] = len(order) - 1 - j
				}
			}
			for _, j := range order {
				w := spec.Workloads[j].Name
				m, took, err := runOnce(self, where, w, seed+int64(i), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: A/A:", err)
					return 1
				}
				rep.MaxRunSecs = max(rep.MaxRunSecs, took.Seconds())
				fmt.Fprintf(os.Stderr, "A/A set %c run %d/%d %-20s %.1f s\n", 'A'+set, i+1, n, w, took.Seconds())
				if values[w] == nil {
					values[w] = map[string][2][]float64{}
				}
				for name, v := range m {
					sets := values[w][name]
					sets[set] = append(sets[set], v.Value)
					values[w][name] = sets
				}
			}
		}
	}
	rep.WallSecs = time.Since(t0).Seconds()
	rep.Pass = true
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			sets := values[w.Name][ms.Name]
			c := aaCell{Workload: w.Name, Metric: ms.Name, Unit: ms.Unit, Bound: ms.Bound, A: sets[0], B: sets[1]}
			c.MedianA, c.MedianB = median(c.A), median(c.B)
			c.Q1A, c.Q3A = quartiles(c.A)
			c.Q1B, c.Q3B = quartiles(c.B)
			c.SpreadA, c.SpreadB = spread(c.A), spread(c.B)
			c.Worse = (c.MedianB - c.MedianA) / c.MedianA
			if ms.Better == "higher" {
				c.Worse = -c.Worse
			}
			steady := ms.Name == "setup_s" || (c.SpreadA <= ms.Bound && c.SpreadB <= ms.Bound)
			c.Pass = steady && c.Worse <= ms.Bound
			diff := c.Worse
			if diff < 0 {
				diff = -diff
			}
			c.Strict = c.Pass && diff <= ms.Bound/2
			rep.Pass = rep.Pass && c.Pass
			rep.Cells = append(rep.Cells, c)
		}
	}
	printAA(&rep)
	b, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(outPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

func printAA(rep *aaReport) {
	fmt.Printf("%-20s %-28s %12s %8s %12s %8s %8s %6s  %s\n", "workload", "metric", "median A", "spread A", "median B", "spread B", "B worse", "bound", "verdict")
	for _, c := range rep.Cells {
		verdict := "FAIL"
		switch {
		case c.Strict:
			verdict = "PASS"
		case c.Pass:
			verdict = "PASS (sets differ by more than half the bound)"
		}
		fmt.Printf("%-20s %-28s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %5.0f%%  %s\n",
			c.Workload, c.Metric, c.MedianA, c.SpreadA*100, c.MedianB, c.SpreadB*100, c.Worse*100, c.Bound*100, verdict)
	}
	overall := "FAIL"
	if rep.Pass {
		overall = "PASS"
	}
	fmt.Printf("A/A %s: %d runs per set and workload, %d s each, %.0f s in all, slowest run %.1f s\n",
		overall, rep.Runs, rep.Seconds, rep.WallSecs, rep.MaxRunSecs)
}
