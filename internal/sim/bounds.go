package sim

import (
	"math"
	"slices"
	"sort"

	"dbs3/internal/zipf"
)

// The closed forms of the paper's performance analysis (§4.1, §5.5) and the
// makespans of the models DBS3 is compared with. The experiments plot them
// next to the simulated times exactly as the paper plots Tworst next to
// measured ones, and the package tests hold the simulator to them.

// tideal is the ideal execution time of an operation with a activations of
// mean processing time p on n threads: all threads finish simultaneously
// (equation 1's reference point).
func tideal(a int, p float64, n int) float64 {
	if n <= 0 || a < 0 {
		panic("sim: tideal needs n > 0 and a >= 0")
	}
	return float64(a) * p / float64(n)
}

// VBound is the worst-case overhead v of equation (3):
//
//	v <= (Pmax/P) * (n-1) / a
//
// where Pmax/P is the skew factor, n the number of threads and a the number
// of activations.
func VBound(skewFactor float64, n, a int) float64 {
	if a <= 0 {
		panic("sim: VBound needs a > 0")
	}
	return skewFactor * float64(n-1) / float64(a)
}

// tworst is the worst-case execution time of equation (2): all activations
// but the most expensive are perfectly balanced, then one thread processes
// the last (most expensive) activation alone:
//
//	Tworst <= (a*P - Pmax)/n + Pmax = (1 + v) * Tideal
func tworst(a int, p float64, n int, pmax float64) float64 {
	if n <= 0 {
		panic("sim: tworst needs n > 0")
	}
	return (float64(a)*p-pmax)/float64(n) + pmax
}

// nmax is the maximum useful degree of parallelism of a triggered operation
// (§5.5): when Pmax > a*P/n the response time equals Pmax regardless of n,
// so there is no gain beyond nmax = a*P/Pmax.
func nmax(a int, p, pmax float64) float64 {
	if pmax <= 0 {
		panic("sim: nmax needs pmax > 0")
	}
	return float64(a) * p / pmax
}

// nmaxZipf is nmax for Zipf-skewed fragments when the per-activation cost is
// proportional to fragment cardinality: a / skew factor, which reduces to the
// generalized harmonic number H_{a,theta}.
func nmaxZipf(a int, theta float64) float64 {
	return nmax(a, 1, zipf.SkewRatio(a, theta))
}

// SpeedupBound is the response-time speed-up ceiling of a triggered
// operation with n threads: limited both by n itself (and the processor
// count p) and by the longest activation (nmax).
func SpeedupBound(n, processors int, nmax float64) float64 {
	s := math.Min(float64(n), float64(processors))
	return math.Min(s, nmax)
}

// VFromTimes computes the measured overhead v = T/T0 - 1 used by Figures 18
// and 19 (v0.6 = T0.6/T0 - 1).
func VFromTimes(t, t0 float64) float64 {
	if t0 <= 0 {
		panic("sim: VFromTimes needs t0 > 0")
	}
	return t/t0 - 1
}

// triggeredTimeLPT predicts the response time of a triggered operation under
// the LPT strategy for per-activation costs sorted any way: the classic
// Graham bound tightened by the "longest activation floor" the paper
// observes (the inflection past Zipf 0.8 in Figure 13):
//
//	T >= max(sum/n, Pmax)
//
// LPT stays within (4/3 - 1/(3n)) of optimum [Graham69]; on the paper's
// fragment-size distributions it is near the floor, so the floor itself is
// the reference curve.
func triggeredTimeLPT(costs []float64, n int) float64 {
	if n <= 0 {
		panic("sim: triggeredTimeLPT needs n > 0")
	}
	var sum, pmax float64
	for _, c := range costs {
		sum += c
		if c > pmax {
			pmax = c
		}
	}
	return math.Max(sum/float64(n), pmax)
}

// staticMakespan is the response of the static thread-per-instance model
// (Gamma, Bubba, Volcano and most products, §1), where the degree of
// parallelism is the degree of partitioning: each instance runs on its own
// thread, threads are placed round-robin on processors, and a processor
// serializes its threads. Without queue sharing the longest processor queue
// is the response time.
func staticMakespan(costs []float64, processors int) float64 {
	if processors < 1 {
		processors = 1
	}
	perProc := make([]float64, processors)
	for i, c := range costs {
		perProc[i%processors] += c
	}
	return slices.Max(perProc)
}

// firstFitDecreasingMakespan is the bucket-to-processor assignment of
// [Omiecinski91], the shared-memory skew handling §4 contrasts with: buckets
// are sorted by decreasing cost and each is placed on the currently
// least-loaded processor, *statically*, before execution. Unlike DBS3's
// shared queues the assignment cannot react to estimation error at run time,
// but with exact costs it equals LPT list scheduling.
func firstFitDecreasingMakespan(costs []float64, processors int) float64 {
	if processors < 1 {
		processors = 1
	}
	sorted := append([]float64(nil), costs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	load := make([]float64, processors)
	for _, c := range sorted {
		min := 0
		for i := 1; i < processors; i++ {
			if load[i] < load[min] {
				min = i
			}
		}
		load[min] += c
	}
	return slices.Max(load)
}
