package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for an
// even count). xs is not modified. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), which is
// what the driver uses to judge a metric's spread. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the inter-quartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailCandidates are the percentiles a tail latency may be reported at.
var tailCandidates = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest candidate percentile that still leaves at
// least ten of n samples beyond it (the choosing-metrics rule for how far
// into the tail a sample count reaches). With fewer than twenty samples only
// the median qualifies.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		// Integer arithmetic: 1-p is not exact in floating point.
		beyond := n - int(math.Ceil(float64(n)*p-1e-9))
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// percentileSorted returns the nearest-rank percentile p of an ascending
// slice.
func percentileSorted(s []int32, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(s))*p-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return float64(s[rank])
}
