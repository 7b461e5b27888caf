package experiments

import (
	"dbs3/internal/core"
	"dbs3/internal/sim"
	"dbs3/internal/zipf"
)

// ExtGrain is an extension experiment beyond the paper's figures,
// implementing its §6 future work: "allowing the choice of the grain of
// parallelism independent of the operation semantics". The Figure 15
// configuration (IdealJoin, Zipf 1, d = 200) is re-run with the triggered
// join split into partial triggers of g probe tuples. The whole-fragment
// grain ceilings at nmax ~ 6; finer grains multiply the activation count
// and lift the ceiling toward the processor count — without touching the
// degree of partitioning.
func ExtGrain() *Figure {
	f := &Figure{
		ID:     "ext-grain",
		Title:  "Grain of parallelism (IdealJoin, Zipf 1, d=200, 70 processors) — §6 future work",
		XLabel: "threads",
		YLabel: "speed-up",
		Series: []Series{
			{Name: "Whole-fragment triggers (paper)"},
			{Name: "Grain = 20 probe tuples"},
			{Name: "Grain = 2 probe tuples"},
		},
	}
	m := calibrated
	cfg := m.Config(1)
	aSizes := zipf.Sizes(spdACard, spdDegree, 1)
	bSizes := sim.UniformSizes(spdBCard, spdDegree)
	for si, grain := range []int{0, 20, 2} {
		costs := m.ChunkedNestedLoopTriggerCosts(aSizes, bSizes, grain)
		seq := sim.Triggered(sim.TriggeredSpec{Costs: costs, Threads: 1, QueueOverhead: m.TriggeredQueueOverhead}, cfg).Time
		for _, n := range spdThreads {
			r := sim.Triggered(sim.TriggeredSpec{Costs: costs, Threads: n, Strategy: core.StrategyLPT, QueueOverhead: m.TriggeredQueueOverhead}, cfg)
			f.Series[si].Points = append(f.Series[si].Points, Point{float64(n), seq / r.Time})
		}
	}
	return f
}
