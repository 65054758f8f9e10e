package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 10, 1000}, 10},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100) // 1..100, shuffled order must not matter
	for i := range xs {
		xs[i] = float64((i*37)%100 + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// 20 samples: p95 is the 19th, leaving one sample beyond it.
	if got := percentile([]float64{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50},
		{99, 50},   // p90 of 99 is rank 90: 9 beyond
		{100, 90},  // rank 90: 10 beyond; p95 leaves 5
		{199, 90},  // p95 is rank 190: 9 beyond
		{200, 95},  // rank 190: 10 beyond
		{999, 95},  // p99 is rank 990: 9 beyond
		{1000, 99}, // rank 990: 10 beyond
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n, 10); got != c.want {
			t.Errorf("highestPercentile(%d, 10) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(400, 95); got != 20 {
		t.Errorf("samplesBeyond(400, 95) = %d, want 20", got)
	}
}

// The quartile rule must be the one the acceptance check uses: Python's
// statistics.quantiles(values, n=4), default (exclusive) method.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		// >>> statistics.quantiles([10, 50, 30, 20, 40], n=4)
		{[]float64{10, 50, 30, 20, 40}, 15, 45},
		// >>> statistics.quantiles([1, 2], n=4)   (extrapolates)
		{[]float64{1, 2}, 0.75, 2.25},
		// >>> statistics.quantiles([3.0, 3.3, 2.9, 3.1, 3.6, 2.8, 3.0, 3.2, 3.1, 3.4], n=4)
		{[]float64{3.0, 3.3, 2.9, 3.1, 3.6, 2.8, 3.0, 3.2, 3.1, 3.4}, 2.975, 3.325},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; !near(got, want) {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
}

func TestSelfTimesUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 30, End: 70}, // overlaps a
		{ID: 4, Parent: 2, Req: 1, Name: "c", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 40, 2: 30, 3: 40, 4: 10} // op: 100 - |[10,70]|
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if err := checkNesting(spans); err != nil {
		t.Errorf("well-nested spans rejected: %v", err)
	}
	shares := wallByLayer(spans)[1]
	// op: [0,10)+[70,100); a: [10,20)+[30,50) (b is as deep, a comes first); c: [20,30); b: [50,70)
	wantShares := map[string]int64{"op": 40, "a": 30, "c": 10, "b": 20}
	var sum int64
	for name, w := range wantShares {
		if shares[name] != w {
			t.Errorf("wall share of %s = %d, want %d", name, shares[name], w)
		}
		sum += shares[name]
	}
	if sum != 100 {
		t.Errorf("wall shares sum to %d, want the op's 100", sum)
	}
	bad := append([]span(nil), spans...)
	bad[3].End = 60 // c leaves a
	if checkNesting(bad) == nil {
		t.Error("child leaving its parent accepted")
	}
	bad[3] = span{ID: 4, Parent: 2, Req: 9, Name: "c", Start: 20, End: 30}
	if checkNesting(bad) == nil {
		t.Error("child with a foreign request id accepted")
	}
}

func TestParseProcFiles(t *testing.T) {
	stat := []byte("4242 (ko kod) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 66 0 0 20 0 5 0 100 1000000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
	got, err := parseStatCPU(stat)
	if err != nil || !near(got, 13.0) {
		t.Errorf("parseStatCPU = %v, %v; want 13.00 s (1234+66 ticks)", got, err)
	}
	mb, err := parseVmHWM([]byte("Name:\tkokod\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n"))
	if err != nil || !near(mb, 200) {
		t.Errorf("parseVmHWM = %v, %v; want 200 MB", mb, err)
	}
}
