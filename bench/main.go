// Command bench is the repository's benchmark: one seed-driven, closed-loop
// load generator that builds its corpora, starts real kokod processes,
// drives them over loopback HTTP, checks every answer against an in-process
// oracle and prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh --workload query_warm --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload query_warm --seed 1 --seconds 12 --trace 1
//	bash bench/run.sh -list
//	bash bench/run.sh -aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	workload := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 0, "length of the timed phase in seconds (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end run against kokod children; 1: in-process traced run reporting the per-layer metrics")
	kokod := flag.String("kokod", "", "path of the kokod binary (run.sh builds it)")
	root := flag.String("root", "..", "checkout root (holds BENCHMARK.json)")
	out := flag.String("out", "out", "directory for scratch files and traces")
	list := flag.Bool("list", false, "print workload and metric names and exit")
	aa := flag.Int("aa", 0, "A/A check: run every workload N times in each of two sets and compare the sets")
	aaOut := flag.String("aa-out", "AA.json", "where -aa writes its report")
	flag.Parse()

	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *list {
		printList(os.Stdout, spec)
		return 0
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *aa > 0 {
		return runAA(spec, *aa, *seed, *seconds, *aaOut)
	}
	w := workloadByName(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *workload)
		return 2
	}

	// From here on children and scratch directories may exist.
	reapOnSignal()
	defer reapAll() // also runs while a panic unwinds

	e := &env{Kokod: *kokod, Scratch: filepath.Join(*out, "scratch"), Sizes: fullSizes, SetupReps: 3, MinCompactions: 8}
	// A run that was killed outright cannot clean up after itself; do it for
	// it, so that its stores do not sit in the next run's page cache and disk.
	os.RemoveAll(e.Scratch)
	var (
		res      *runResult
		declared []metricSpec
	)
	switch *trace {
	case 0:
		if e.Kokod == "" {
			fmt.Fprintln(os.Stderr, "bench: -kokod is required for an end-to-end run (use bench/run.sh)")
			return 2
		}
		res, err = runE2E(w, e, *seed, float64(*seconds))
		declared = spec.EndToEnd
	case 1:
		res, err = runTraced(w, e, *seed, float64(*seconds), fullProbes, filepath.Join(*out, "trace-"+w.Name+".json"))
		declared = spec.PerLayer
	default:
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: withUnits(res.Metrics, declared)}
	if len(line.Metrics) == 0 {
		return 1
	}
	printMetrics(w.Name, *seed, line)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// withUnits attaches each declared metric's unit to its measured value. A
// declared metric without a value, or a value nothing declares, is a bug in
// the benchmark; the result is then empty and the run fails.
func withUnits(values map[string]float64, declared []metricSpec) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok || !finite(v) {
			fmt.Fprintf(os.Stderr, "bench: metric %s declared in BENCHMARK.json but not measured (value %v)\n", d.Name, v)
			return nil
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s measured but not declared in BENCHMARK.json\n", name)
			return nil
		}
	}
	return out
}

// printMetrics prints every metric by name with its unit, for a reader.
func printMetrics(workload string, seed int64, line resultLine) {
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# workload %s seed %d: attempted %d, failed %d\n", workload, seed, line.Attempted, line.Failed)
	for _, n := range names {
		fmt.Printf("%-44s %14.4f %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
}
