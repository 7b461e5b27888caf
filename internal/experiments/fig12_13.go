package experiments

import (
	"dbs3/internal/core"
	"dbs3/internal/sim"
	"dbs3/internal/zipf"
)

// Expt 1 (§5.4): vary the skew. Databases of A = 100K and B' = 10K tuples,
// statically partitioned in 200 fragments; A's fragment cardinalities follow
// Zipf(theta); 10 threads.

var calibrated = sim.Calibrated()

const (
	skewACard   = 100_000
	skewBCard   = 10_000
	skewDegree  = 200
	skewThreads = 10
)

var skewThetas = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// idealCosts builds the IdealJoin triggered activation costs for one skew
// level (nested loop: |A_i| x |B_i| pairs).
func idealCosts(theta float64) []float64 {
	m := calibrated
	aSizes := zipf.Sizes(skewACard, skewDegree, theta)
	bSizes := sim.UniformSizes(skewBCard, skewDegree)
	return m.NestedLoopTriggerCosts(aSizes, bSizes, bSizes)
}

// Fig12 reproduces Figure 12: AssocJoin execution time vs skew with the
// Random strategy, next to the analytical worst case. The measured time is
// constant whatever the skew (the pipelined operation's 10K activations
// absorb it), and even Tworst deviates by only ~3%.
func Fig12() *Figure {
	f := &Figure{
		ID:     "fig12",
		Title:  "AssocJoin execution (A=100K, B'=10K, d=200, 10 threads)",
		XLabel: "degree of skew (Zipf)",
		YLabel: "execution time (s)",
		Series: []Series{{Name: "Measured execution time (Random)"}, {Name: "Tworst"}},
	}
	m := calibrated
	cfg := m.Config(1)
	var base float64
	for _, theta := range skewThetas {
		spec := m.AssocJoin(zipf.Sizes(skewACard, skewDegree, theta), sim.UniformSizes(skewBCard, skewDegree), false, skewThreads)
		r := sim.Pipeline(spec, cfg)
		f.Series[0].Points = append(f.Series[0].Points, Point{theta, r.Time})
		if theta == 0 {
			base = r.Time
		}
		// Analytical worst case (equations 1-3) on the pipelined join: a =
		// 10K activations, skew factor from the Zipf fragment sizes.
		fixed := cfg.Startup(skewThreads, float64(skewDegree)*(m.TriggeredQueueOverhead+m.PipelinedQueueOverhead))
		v := sim.VBound(zipf.SkewRatio(skewDegree, theta), spec.ConsumerThreads, skewBCard)
		f.Series[1].Points = append(f.Series[1].Points, Point{theta, fixed + (1+v)*(base-fixed)})
	}
	return f
}

// Fig13 reproduces Figure 13: IdealJoin execution time vs skew under Random
// and LPT, next to Tworst. Random degrades with skew; LPT stays near ideal
// up to theta = 0.8, after which the longest activation alone exceeds the
// ideal time and bounds the response time (the inflection the paper
// explains).
func Fig13() *Figure {
	f := &Figure{
		ID:     "fig13",
		Title:  "IdealJoin execution time (A=100K, B'=10K, d=200, 10 threads)",
		XLabel: "degree of skew (Zipf)",
		YLabel: "execution time (s)",
		Series: []Series{
			{Name: "Random consumption strategy"},
			{Name: "LPT consumption strategy"},
			{Name: "Tworst"},
		},
	}
	m := calibrated
	cfg := m.Config(1)
	for _, theta := range skewThetas {
		costs := idealCosts(theta)
		var sum float64
		for _, c := range costs {
			sum += c
		}
		rand := sim.Triggered(sim.TriggeredSpec{Costs: costs, Threads: skewThreads, Strategy: core.StrategyRandom, QueueOverhead: m.TriggeredQueueOverhead}, cfg)
		lpt := sim.Triggered(sim.TriggeredSpec{Costs: costs, Threads: skewThreads, Strategy: core.StrategyLPT, QueueOverhead: m.TriggeredQueueOverhead}, cfg)
		fixed := cfg.Startup(skewThreads, float64(skewDegree)*m.TriggeredQueueOverhead)
		v := sim.VBound(zipf.SkewRatio(skewDegree, theta), skewThreads, skewDegree)
		tworst := fixed + (1+v)*sum/float64(skewThreads)
		f.Series[0].Points = append(f.Series[0].Points, Point{theta, rand.Time})
		f.Series[1].Points = append(f.Series[1].Points, Point{theta, lpt.Time})
		f.Series[2].Points = append(f.Series[2].Points, Point{theta, tworst})
	}
	return f
}
