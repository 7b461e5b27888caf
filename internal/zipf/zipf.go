// Package zipf implements the Zipf distribution used by the paper to skew
// fragment cardinalities (§5.4: "To determine fragment cardinality, we use a
// Zipf function [Zipf49] which yields a factor between 0 (no skew) and 1
// (high skew)"). Many real skewed distributions are well modelled by Zipf
// [Lynch88].
package zipf

import (
	"fmt"
	"math"
	"sort"
)

// Harmonic returns the generalized harmonic number H_{n,theta} =
// sum_{i=1..n} i^(-theta). For theta = 0 this is n; for theta = 1 it is the
// ordinary harmonic number.
func Harmonic(n int, theta float64) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("zipf: Harmonic needs n > 0, got %d", n))
	}
	var h float64
	for i := 1; i <= n; i++ {
		h += math.Pow(float64(i), -theta)
	}
	return h
}

// Weights returns the Zipf probabilities p_i = i^(-theta) / H_{n,theta} for
// i = 1..n, in decreasing order (p_1 is the largest). theta = 0 yields the
// uniform distribution; theta = 1 the paper's "high skew".
func Weights(n int, theta float64) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("zipf: Weights needs n > 0, got %d", n))
	}
	if theta < 0 {
		panic(fmt.Sprintf("zipf: negative skew factor %v", theta))
	}
	h := Harmonic(n, theta)
	w := make([]float64, n)
	for i := 1; i <= n; i++ {
		w[i-1] = math.Pow(float64(i), -theta) / h
	}
	return w
}

// Sizes splits total items into n buckets whose cardinalities follow the
// Zipf weights, using largest-remainder rounding so the sizes sum exactly to
// total. Sizes is how the paper's skewed databases set each fragment's tuple
// count.
func Sizes(total, n int, theta float64) []int {
	if total < 0 {
		panic(fmt.Sprintf("zipf: negative total %d", total))
	}
	w := Weights(n, theta)
	sizes := make([]int, n)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for i, p := range w {
		exact := p * float64(total)
		sizes[i] = int(math.Floor(exact))
		assigned += sizes[i]
		rems[i] = rem{i, exact - math.Floor(exact)}
	}
	// Distribute the remainder to the largest fractional parts; ties break
	// toward lower index so the output stays deterministic and monotone
	// non-increasing.
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < total-assigned; k++ {
		sizes[rems[k%n].idx]++
	}
	return sizes
}

// SkewRatio returns Pmax/P for n equally-costed-per-tuple buckets whose
// cardinalities follow Zipf(theta): the ratio of the largest bucket to the
// mean bucket, i.e. n * p_1. The paper's anchor: SkewRatio(200, 1) = 34
// ("With Zipf = 1 and a = 200 buckets, we have Pmax = 34 P").
func SkewRatio(n int, theta float64) float64 {
	return float64(n) * Weights(n, theta)[0]
}
