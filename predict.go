package dbs3

import (
	"fmt"

	"dbs3/internal/core"
	"dbs3/internal/sim"
	"dbs3/internal/zipf"
)

// Prediction functions run the virtual-time simulator with the calibrated
// KSR1 cost model (the paper's 72-processor machine). They reproduce the
// evaluation's response-time behaviour deterministically, independent of the
// host's core count — on a laptop (or a 1-CPU container) the real engine
// cannot exhibit 70-way speed-ups, but the simulator can, which is how the
// figure harness (internal/experiments, cmd/dbs3-bench) regenerates the
// paper's results; DESIGN.md sketches the simulator column.

func simStrategy(strategy string) (sim.Kind, error) {
	switch strategy {
	case "", "auto", "random":
		return sim.Random, nil
	case "lpt":
		return sim.LPT, nil
	default:
		return 0, fmt.Errorf("dbs3: unknown strategy %q (random, lpt)", strategy)
	}
}

// PredictIdealJoin returns the simulated response time (in KSR1 seconds) of
// the triggered nested-loop IdealJoin: relations of aCard and bCard tuples
// in d fragments, A's fragment sizes following Zipf(theta), executed by
// `threads` threads under the given strategy.
func PredictIdealJoin(aCard, bCard, d, threads int, theta float64, strategy string) (float64, error) {
	if d <= 0 || aCard <= 0 || bCard <= 0 || threads <= 0 {
		return 0, fmt.Errorf("dbs3: cardinalities, degree and threads must be positive")
	}
	strat, err := simStrategy(strategy)
	if err != nil {
		return 0, err
	}
	m := sim.Calibrated()
	aSizes := zipf.Sizes(aCard, d, theta)
	bSizes := sim.UniformSizes(bCard, d)
	costs := m.NestedLoopTriggerCosts(aSizes, bSizes, bSizes)
	r := sim.Triggered(sim.TriggeredSpec{
		Costs: costs, Threads: threads, Strategy: strat,
		QueueOverhead: m.TriggeredQueueOverhead,
	}, m.Config(1))
	return r.Time, nil
}

// PredictAssocJoin returns the simulated response time (in KSR1 seconds) of
// the pipelined AssocJoin: B is redistributed at run time into a nested-loop
// join against A's fragments.
func PredictAssocJoin(aCard, bCard, d, threads int, theta float64, strategy string) (float64, error) {
	if d <= 0 || aCard <= 0 || bCard <= 0 || threads <= 0 {
		return 0, fmt.Errorf("dbs3: cardinalities, degree and threads must be positive")
	}
	strat, err := simStrategy(strategy)
	if err != nil {
		return 0, err
	}
	m := sim.Calibrated()
	cfg := m.Config(1)
	aSizes := zipf.Sizes(aCard, d, theta)
	bSizes := sim.UniformSizes(bCard, d)
	prod := m.TransmitTriggerCosts(bSizes)
	per := m.NestedLoopProbeCosts(aSizes)
	emis := make([][]int, d)
	for i := 0; i < d; i++ {
		for j := 0; j < bSizes[i]; j++ {
			emis[i] = append(emis[i], (i+j)%d)
		}
	}
	var prodWork, consWork float64
	for i := range prod {
		prodWork += prod[i]
		for _, tgt := range emis[i] {
			consWork += per[tgt]
		}
	}
	spec := sim.PipelineSpec{
		ProducerCosts: prod, Emissions: emis, ConsumerPerTuple: per,
		Strategy:              strat,
		QueueOverheadProducer: m.TriggeredQueueOverhead,
		QueueOverheadConsumer: m.PipelinedQueueOverhead,
	}
	if threads == 1 {
		return sim.PipelineSequential(spec, cfg), nil
	}
	split := core.Proportional(threads, []float64{prodWork, consWork})
	spec.ProducerThreads, spec.ConsumerThreads = split[0], split[1]
	return sim.Pipeline(spec, cfg).Time, nil
}
