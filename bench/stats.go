package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the two middle values for an even count); NaN when
// empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the 1-based nearest rank of percentile p (0 < p <= 100) among n
// samples: the smallest rank whose share of the samples is at least p.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // the guard keeps 99.9 % of 10000 at 9990
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile of xs; NaN when empty. Nearest
// rank (no interpolation) keeps "how many samples lie beyond it" an integer.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankOf(len(s), p)-1]
}

// samplesBeyond counts the samples strictly above the nearest-rank position
// of percentile p among n.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, p)
}

// tailLadder lists the tail percentiles the report may quote, ascending.
var tailLadder = []float64{90, 95, 99, 99.9}

// highestPercentile returns the highest percentile of tailLadder that still
// has at least minBeyond of the n samples beyond it, or 50 when none has.
func highestPercentile(n, minBeyond int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is the
// rule the acceptance check applies to ten runs. Needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of the 4-quantile cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // may leave [0,4] after clamping: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// finite reports whether v is a usable measurement.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
