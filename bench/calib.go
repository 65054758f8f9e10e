package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark runs in changes speed: the same instructions
// take up to 30 % longer while the host's other tenants are busy, for seconds
// or minutes at a time (README, "How steady it is"). Raw times from two runs
// of identical code therefore differ by more than any useful bound. So the
// generator measures the machine's speed itself, with a fixed kernel run
// while the system under test is idle, and reports every time scaled to a
// reference speed: value = measured × calRefMs / kernel time measured nearby.
// The kernel is in the generator, not in the program: no change to the
// program can move it.

// calSteps dependent loads through calArr, an array far larger than the
// first-level caches: like query evaluation, the kernel waits on memory more
// than on arithmetic. Of the kernels tried (integer arithmetic, this walk,
// map-and-slice allocation) it tracked in-process query time best: over four
// minutes of 22 s windows it cut the run-to-run variation of a query's
// median from 10–11 % to 3–4 %.
const (
	calSteps = 200_000
	calWords = 1 << 20 // 4 MB of uint32
)

// calRefMs is the kernel's time on this sandbox when the host is quiet. It
// only fixes the scale of the reported times; a comparison of two commits on
// one machine does not depend on it.
const calRefMs = 16.0

var calArr = func() []uint32 {
	a := make([]uint32, calWords)
	for i := range a {
		a[i] = uint32(i) * 2654435761 >> 3
	}
	return a
}()

// calSink receives the kernel's result, which keeps the loop from being
// optimised away.
var calSink atomic.Uint32

func calKernel() {
	idx := uint32(1)
	for i := uint32(0); i < calSteps; i++ {
		idx = calArr[idx&(calWords-1)]*1664525 + 1013904223 + i
	}
	calSink.Add(idx)
}

// calibrate runs the kernel once on each of the two cores at the same time
// and returns the wall time in ms.
func calibrate() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calKernel()
		}()
	}
	wg.Wait()
	return msOf(time.Since(t0))
}

// calibrateN is the median of n kernel runs.
func calibrateN(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = calibrate()
	}
	return median(xs)
}

// speedFactors turns one kernel time per cycle into one scale factor per
// cycle. Each kernel time is first replaced by the median of itself and its
// two neighbours on either side: a single run of the kernel is as noisy as
// any 10 ms of work, the machine's speed changes far more slowly.
func speedFactors(cal []float64) []float64 {
	out := make([]float64, len(cal))
	for i := range cal {
		lo, hi := max(i-2, 0), min(i+3, len(cal))
		out[i] = calRefMs / median(cal[lo:hi])
	}
	return out
}
