package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between order statistics, the "inclusive"
// method: q=0 is the minimum, q=1 the maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// iqrSpread is the distance between the first and third quartile as a share
// of the median, computed like Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method) so it is the number the acceptance check computes.
func iqrSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		// i-th of 4 cut points over n values, exclusive method.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

// tails are the shares of samples beyond the candidate percentiles above the
// median, highest percentile first.
var tails = []float64{0.001, 0.01, 0.05, 0.10, 0.25}

// highestPercentile picks the highest percentile that still has at least ten
// samples beyond it, and returns it with its value. With too few samples for
// any candidate it falls back to the median.
func highestPercentile(xs []float64) (p, value float64) {
	for _, tail := range tails {
		if float64(len(xs))*tail >= 10-1e-9 {
			return 1 - tail, quantile(xs, 1-tail)
		}
	}
	return 0.5, median(xs)
}

// p95 is the 95th percentile where ten samples lie beyond it, and the highest
// percentile that has them where they do not.
func p95(xs []float64) float64 {
	p, _ := highestPercentile(xs)
	return quantile(xs, min(p, 0.95))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// balancedMedian is the latency figure of a mixed-class workload: the median
// of each class, averaged with equal weight. A pooled median of a bimodal
// mix sits in the gap between two classes and jumps with their counts, and
// it cannot move at all when only the slow class gets faster.
func balancedMedian(byClass [][]float64) float64 {
	var sum float64
	n := 0
	for _, xs := range byClass {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
