package experiments

import (
	"dbs3/internal/core"
	"dbs3/internal/sim"
	"dbs3/internal/zipf"
)

// Expt 3 (§5.6): vary the degree of partitioning, d from 20 to 1500, with 20
// threads. Figure 16 measures the pure queue overhead (no index, unskewed
// 100K/10K); Figure 17 the total time with a temporary index (500K/50K);
// Figures 18-19 the payoff of high d against skew (Zipf 0.6, LPT).

var partDegrees = []int{20, 100, 250, 500, 750, 1000, 1250, 1400, 1500}

const partThreads = 20

// idealTimeAt runs the triggered IdealJoin at one (d, theta) configuration.
func idealTimeAt(aCard, bCard, d int, theta float64, index bool, strat core.StrategyKind) float64 {
	m := calibrated
	cfg := m.Config(1)
	aSizes := zipf.Sizes(aCard, d, theta)
	bSizes := sim.UniformSizes(bCard, d)
	var costs []float64
	if index {
		costs = m.IndexTriggerCosts(aSizes, bSizes, bSizes)
	} else {
		costs = m.NestedLoopTriggerCosts(aSizes, bSizes, bSizes)
	}
	return sim.Triggered(sim.TriggeredSpec{
		Costs: costs, Threads: partThreads, Strategy: strat,
		QueueOverhead: m.TriggeredQueueOverhead,
	}, cfg).Time
}

// assocTimeAt runs the pipelined AssocJoin at one (d, theta) configuration.
func assocTimeAt(aCard, bCard, d int, theta float64, index bool) float64 {
	spec := calibrated.AssocJoin(zipf.Sizes(aCard, d, theta), sim.UniformSizes(bCard, d), index, partThreads)
	return sim.Pipeline(spec, calibrated.Config(1)).Time
}

// Fig16 reproduces Figure 16: the partitioning overhead of IdealJoin and
// AssocJoin without indexes (unskewed 100K/10K). Following the paper, the
// overhead is the measured time minus the theoretical time Td = T20 * 20/d
// of the nested-loop join; it grows linearly at ~0.45 ms/degree (IdealJoin:
// d triggered queues) and ~4 ms/degree (AssocJoin: d triggered + d pipelined
// queues).
func Fig16() *Figure {
	f := &Figure{
		ID:     "fig16",
		Title:  "Partitioning overhead for IdealJoin and AssocJoin (no index, 20 threads)",
		XLabel: "degree of partitioning",
		YLabel: "measured overhead (s)",
		Series: []Series{{Name: "Overhead for AssocJoin"}, {Name: "Overhead for IdealJoin"}},
	}
	idealT20 := idealTimeAt(skewACard, skewBCard, 20, 0, false, core.StrategyRandom)
	assocT20 := assocTimeAt(skewACard, skewBCard, 20, 0, false)
	for _, d := range partDegrees {
		// The paper's method (footnote of §5.6.1): theoretical time for
		// degree d extrapolates the d=20 measurement by the nested-loop
		// work scaling, Td = T20 * 20/d; the overhead is measured - Td.
		theoIdeal := idealT20 * 20 / float64(d)
		theoAssoc := assocT20 * 20 / float64(d)
		mi := idealTimeAt(skewACard, skewBCard, d, 0, false, core.StrategyRandom)
		ma := assocTimeAt(skewACard, skewBCard, d, 0, false)
		f.Series[0].Points = append(f.Series[0].Points, Point{float64(d), ma - theoAssoc})
		f.Series[1].Points = append(f.Series[1].Points, Point{float64(d), mi - theoIdeal})
	}
	return f
}

// Fig17 reproduces Figure 17: total execution time with a temporary index on
// the 500K/50K database. Times fall as fragments shrink (index build is
// superlinear and fragments start fitting the fast subcache) until the queue
// overhead dominates: past d ~ 1000 for AssocJoin (4 ms/degree) and d ~ 1400
// for IdealJoin (0.45 ms/degree).
func Fig17() *Figure {
	f := &Figure{
		ID:     "fig17",
		Title:  "Execution time for IdealJoin and AssocJoin (temporary index, 500K/50K, 20 threads)",
		XLabel: "degree of partitioning",
		YLabel: "execution time (s)",
		Series: []Series{{Name: "AssocJoin execution time"}, {Name: "IdealJoin execution time"}},
	}
	for _, d := range partDegrees {
		f.Series[0].Points = append(f.Series[0].Points, Point{float64(d), assocTimeAt(500_000, 50_000, d, 0, true)})
		f.Series[1].Points = append(f.Series[1].Points, Point{float64(d), idealTimeAt(500_000, 50_000, d, 0, true, core.StrategyRandom)})
	}
	return f
}

// Fig18 reproduces Figure 18: the skew overhead v0.6 = T0.6/T0 - 1 of
// IdealJoin (LPT, 20 threads, Zipf 0.6) against the degree of partitioning,
// for the nested-loop (100K/10K) and temp-index (500K/50K) variants, next to
// the analytical worst case. Higher d shrinks the sequential unit of work,
// so LPT balances better and v falls — the behaviour is independent of the
// join algorithm.
func Fig18() *Figure {
	f := &Figure{
		ID:     "fig18",
		Title:  "Skew overhead with IdealJoin (Zipf 0.6, LPT, 20 threads)",
		XLabel: "degree of partitioning",
		YLabel: "skew overhead (v)",
		Series: []Series{
			{Name: "Ideal Join (nested loop)"},
			{Name: "Ideal Join (temp. index)"},
			{Name: "vworst"},
		},
	}
	for _, d := range partDegrees {
		nl0 := idealTimeAt(skewACard, skewBCard, d, 0, false, core.StrategyLPT)
		nl6 := idealTimeAt(skewACard, skewBCard, d, 0.6, false, core.StrategyLPT)
		ix0 := idealTimeAt(500_000, 50_000, d, 0, true, core.StrategyLPT)
		ix6 := idealTimeAt(500_000, 50_000, d, 0.6, true, core.StrategyLPT)
		f.Series[0].Points = append(f.Series[0].Points, Point{float64(d), sim.VFromTimes(nl6, nl0)})
		f.Series[1].Points = append(f.Series[1].Points, Point{float64(d), sim.VFromTimes(ix6, ix0)})
		f.Series[2].Points = append(f.Series[2].Points, Point{float64(d), sim.VBound(zipf.SkewRatio(d, 0.6), partThreads, d)})
	}
	return f
}

// Fig19 reproduces Figure 19: the time saved on the skewed database by
// raising the degree of partitioning (temp-index IdealJoin, Zipf 0.6, LPT),
// compared with the unskewed execution time T0.
func Fig19() *Figure {
	f := &Figure{
		ID:     "fig19",
		Title:  "Saved time for IdealJoin with index (Zipf 0.6, LPT, 20 threads)",
		XLabel: "degree of partitioning",
		YLabel: "saved time (s)",
		Series: []Series{{Name: "Saved time, Ideal Join (temp. index)"}, {Name: "T0 (unskewed execution time)"}},
	}
	// Baseline: the low-partitioning configuration (d = 100, just below the
	// paper's plotted range) whose skew penalty the higher degrees claw
	// back.
	const baseDegree = 100
	base := idealTimeAt(500_000, 50_000, baseDegree, 0.6, true, core.StrategyLPT)
	// T0 reference: the unskewed time in the flat region of Figure 17.
	t0 := idealTimeAt(500_000, 50_000, 500, 0, true, core.StrategyLPT)
	for _, d := range partDegrees {
		if d < baseDegree {
			continue
		}
		saved := base - idealTimeAt(500_000, 50_000, d, 0.6, true, core.StrategyLPT)
		f.Series[0].Points = append(f.Series[0].Points, Point{float64(d), saved})
		f.Series[1].Points = append(f.Series[1].Points, Point{float64(d), t0})
	}
	return f
}
