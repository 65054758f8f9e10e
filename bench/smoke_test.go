package main

import (
	"testing"
)

// TestSmokeTracedRun drives the in-process traced path of every workload on
// small corpora for about one cycle per pass — no kokod binary needed — and
// checks that every per-layer metric BENCHMARK.json declares comes out
// finite and that the recorded spans nest. A change that breaks a program
// surface the benchmark calls fails here, in `go test`, rather than in the
// next benchmark run.
func TestSmokeTracedRun(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer reapAll()
	e := &env{Scratch: t.TempDir(), Sizes: testSizes}
	probes := probeSizes{Reps: 1, DeltaDocs: 16, WalDocs: 24, SyncDocs: 4}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := runTraced(w, e, 1, 1.5, probes, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			if got := withUnits(res.Metrics, spec.PerLayer); got == nil {
				t.Error("measured per-layer metrics are not the declared ones (see stderr)")
			}
			if len(res.Spans) == 0 {
				t.Fatal("no spans recorded")
			}
			if err := checkNesting(res.Spans); err != nil {
				t.Error(err)
			}
			names := map[string]bool{}
			for _, s := range res.Spans {
				names[s.Name] = true
			}
			want := []string{"op", "client.request", "client.verify", "server.handle", "server.decode", "server.query", "server.encode"}
			if w.Durable {
				want = append(want, "server.ingest")
			}
			if w.Distributed {
				want = append(want, "remote.shard_eval")
			}
			for _, n := range want {
				if !names[n] {
					t.Errorf("no %s span recorded", n)
				}
			}
		})
	}
}
