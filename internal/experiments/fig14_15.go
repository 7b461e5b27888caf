package experiments

import (
	"dbs3/internal/core"
	"dbs3/internal/sim"
	"dbs3/internal/zipf"
)

// Expt 2 (§5.5): vary the degree of parallelism. Larger relations (A = 200K,
// B' = 20K, d = 200), threads from 1 to 100 on 70 processors.

const (
	spdACard  = 200_000
	spdBCard  = 20_000
	spdDegree = 200
)

var spdThreads = []int{1, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// Fig14 reproduces Figure 14: AssocJoin speed-up for unskewed and fully
// skewed (Zipf 1) data, with the theoretical linear speed-up (capped by the
// 70 processors). The pipelined operation's 20K activations absorb even full
// skew: the paper measures under 5% from ideal (the bound gives 11.7%).
func Fig14() *Figure {
	f := &Figure{
		ID:     "fig14",
		Title:  "AssocJoin speed-up (A=200K, B'=20K, d=200, 70 processors)",
		XLabel: "threads",
		YLabel: "speed-up",
		Series: []Series{
			{Name: "Unskewed data"},
			{Name: "Skewed data (Zipf = 1)"},
			{Name: "Theoretical speed-up"},
		},
	}
	cfg := calibrated.Config(1)
	bSizes := sim.UniformSizes(spdBCard, spdDegree)
	for si, theta := range []float64{0, 1} {
		aSizes := zipf.Sizes(spdACard, spdDegree, theta)
		seq := sim.PipelineSequential(calibrated.AssocJoin(aSizes, bSizes, false, 1), cfg)
		for _, n := range spdThreads {
			t := seq
			if n > 1 {
				t = sim.Pipeline(calibrated.AssocJoin(aSizes, bSizes, false, n), cfg).Time
			}
			f.Series[si].Points = append(f.Series[si].Points, Point{float64(n), seq / t})
		}
	}
	for _, n := range spdThreads {
		f.Series[2].Points = append(f.Series[2].Points, Point{float64(n), sim.SpeedupBound(n, calibrated.Machine.UsableProcessors, 1e18)})
	}
	return f
}

// Fig15 reproduces Figure 15: IdealJoin speed-up for Zipf 0, 0.4, 0.6 and 1.
// The triggered operation has only a = 200 activations, so speed-up ceilings
// at nmax = a*P/Pmax: about 40 (0.4), 19 (0.6) and 6 (1).
func Fig15() *Figure {
	f := &Figure{
		ID:     "fig15",
		Title:  "IdealJoin speed-up (A=200K, B'=20K, d=200, 70 processors)",
		XLabel: "threads",
		YLabel: "speed-up",
		Series: []Series{
			{Name: "Unskewed data"},
			{Name: "Zipf = 0.4"},
			{Name: "Zipf = 0.6"},
			{Name: "Zipf = 1"},
			{Name: "Theoretical speed-up"},
		},
	}
	m := calibrated
	cfg := m.Config(1)
	bSizes := sim.UniformSizes(spdBCard, spdDegree)
	for si, theta := range []float64{0, 0.4, 0.6, 1} {
		aSizes := zipf.Sizes(spdACard, spdDegree, theta)
		costs := m.NestedLoopTriggerCosts(aSizes, bSizes, bSizes)
		seq := sim.Triggered(sim.TriggeredSpec{Costs: costs, Threads: 1, QueueOverhead: m.TriggeredQueueOverhead}, cfg).Time
		for _, n := range spdThreads {
			r := sim.Triggered(sim.TriggeredSpec{Costs: costs, Threads: n, Strategy: core.StrategyLPT, QueueOverhead: m.TriggeredQueueOverhead}, cfg)
			f.Series[si].Points = append(f.Series[si].Points, Point{float64(n), seq / r.Time})
		}
	}
	for _, n := range spdThreads {
		f.Series[4].Points = append(f.Series[4].Points, Point{float64(n), sim.SpeedupBound(n, m.Machine.UsableProcessors, 1e18)})
	}
	return f
}
