package main

// Order statistics. Every tail is reported as the highest percentile the
// sample supports — the one with at least tailBeyond samples beyond it —
// and printed with its sample count.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// sortedCopy returns xs in ascending order without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile of xs and the number of
// samples strictly beyond its rank; NaN when xs is empty.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	k := int(math.Ceil(p / 100 * float64(n)))
	k = max(1, min(k, n))
	return s[k-1], n - k
}

// tail is the highest percentile of xs with at least tailBeyond samples
// beyond it: the sample at rank n-tailBeyond. With fewer than
// 2*tailBeyond samples that rank falls below the median, which is no tail,
// and tail reports the median (p = 50) with however many samples lie
// beyond it.
func tail(xs []float64) (v, p float64, beyond int) {
	n := len(xs)
	if n < 2*tailBeyond {
		v, beyond = percentile(xs, 50)
		return v, 50, beyond
	}
	k := n - tailBeyond
	return sortedCopy(xs)[k-1], 100 * float64(k) / float64(n), tailBeyond
}

// quartiles formats the nearest-rank 10th, 25th, 75th and 90th percentiles
// of xs, printed beside a median to show the spread around it.
func quartiles(xs []float64) string {
	var out []string
	for _, p := range []float64{10, 25, 75, 90} {
		v, _ := percentile(xs, p)
		out = append(out, fmt.Sprintf("p%.0f=%.4g", p, v))
	}
	return strings.Join(out, " ")
}
