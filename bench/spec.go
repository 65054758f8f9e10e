package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single declaration of workloads, metric
// names, units, directions and bounds. The benchmark reads it instead of
// repeating it, so the two cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: incomplete benchmark declaration", path)
	}
	return &s, nil
}

// printList prints the workloads and the metrics, one per line.
func printList(w io.Writer, s *benchSpec) {
	for _, wl := range s.Workloads {
		fmt.Fprintf(w, "workload %s: %s\n", wl.Name, wl.Why)
	}
	for _, m := range s.EndToEnd {
		fmt.Fprintf(w, "end_to_end %s [%s, %s is better, bound %g]\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range s.PerLayer {
		fmt.Fprintf(w, "per_layer %s [%s, %s is better]\n", m.Name, m.Unit, m.Better)
	}
}
