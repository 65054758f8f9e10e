package main

import (
	"bytes"
	"strings"
	"testing"
)

var testSizes = sizes{HappyDocs: 300, WikiDocs: 400, PoolDocs: 80, PoolGroup: 2, SpillBytes: 4 << 10,
	BurstDocs: 3, BurstEvery: 100e6, MaxDelta: 8}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := genInputs(testSizes, 7), genInputs(testSizes, 7), genInputs(testSizes, 8)
	if opSequenceHash(a.cycle) != opSequenceHash(b.cycle) {
		t.Error("same seed, different op sequence")
	}
	if opSequenceHash(a.cycle) == opSequenceHash(c.cycle) {
		t.Error("seeds 7 and 8 give the same op sequence")
	}
	for _, pick := range []func(*inputs) *corpusData{
		func(in *inputs) *corpusData { return in.happy },
		func(in *inputs) *corpusData { return in.wiki },
		func(in *inputs) *corpusData { return in.pool },
	} {
		if pick(a).TextHash() != pick(b).TextHash() {
			t.Errorf("same seed, different %s corpus text", pick(a).Name)
		}
		if pick(a).TextHash() == pick(c).TextHash() {
			t.Errorf("seeds 7 and 8 give the same %s corpus text", pick(a).Name)
		}
	}
	if a.wiki.TextHash() == a.pool.TextHash() {
		t.Error("the ingest pool repeats the served wiki corpus")
	}
}

func TestCycleMix(t *testing.T) {
	cycle := buildCycle(1)
	count := map[string]int{}
	for _, o := range cycle {
		count[o.Class]++
		want := o.Class
		if want == classStream {
			want = classExtract // a stream op streams an extract query
		}
		if o.Q.Class != want {
			t.Errorf("op of class %s runs query %s of class %s", o.Class, o.Q.ID, o.Q.Class)
		}
	}
	want := map[string]int{classLookup: 4, classExtract: 2, classStream: 1, classSatisfying: 3}
	for c, n := range want {
		if count[c] != n {
			t.Errorf("cycle holds %d %s ops, want %d", count[c], c, n)
		}
	}
	for i := range queries {
		if err := parseQuery(queries[i].Text); err != nil {
			t.Errorf("query %s does not parse: %v", queries[i].ID, err)
		}
	}
}

// -list must print exactly the names BENCHMARK.json declares, and the
// workloads it declares must be the ones the benchmark implements.
func TestListMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printList(&out, spec)
	listed := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		listed[f[0]] = append(listed[f[0]], strings.TrimSuffix(f[1], ":"))
	}
	if got, want := len(listed["workload"]), len(workloads); got != want {
		t.Fatalf("-list names %d workloads, the benchmark implements %d", got, want)
	}
	for i, w := range workloads {
		if listed["workload"][i] != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, listed["workload"][i], w.Name)
		}
		if spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the benchmark give different reasons", w.Name)
		}
	}
	if len(listed["end_to_end"]) != len(spec.EndToEnd) || len(listed["per_layer"]) != len(spec.PerLayer) {
		t.Errorf("-list prints %d + %d metrics, BENCHMARK.json declares %d + %d",
			len(listed["end_to_end"]), len(listed["per_layer"]), len(spec.EndToEnd), len(spec.PerLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s [s, lower]")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
