package main

import (
	"context"
	"fmt"
	"time"

	"dbs3"
	"dbs3/internal/core"
	"dbs3/internal/lera"
	joindb "dbs3/internal/workload"
)

// skewWorkload is the paper's experiment on the real engine: IdealJoin and
// AssocJoin over unskewed (theta = 0) and skewed (theta = 1) operands, run
// straight through core with nothing in front of it.
type skewWorkload struct {
	env   runEnv
	dbs   [2]*joindb.JoinDB // theta 0, theta 1
	plans [4]*lera.Plan     // indexed by class
}

var skewClasses = []string{"ideal_uniform", "assoc_uniform", "ideal_skew", "assoc_skew"}

func (w *skewWorkload) classes() []string { return skewClasses }
func (w *skewWorkload) clients() int      { return 1 }
func (w *skewWorkload) rate() float64     { return 0 }
func (w *skewWorkload) load() managerLoad { return managerLoad{} }
func (w *skewWorkload) ledger() error     { return nil }

// The oracle is JoinDB's own: every A tuple matches exactly one B tuple.
func (w *skewWorkload) oracle(context.Context, runEnv) error { return nil }
func (w *skewWorkload) teardown()                            { *w = skewWorkload{} }

func (w *skewWorkload) setup(_ context.Context, env runEnv, lap func()) error {
	w.env = env
	for i, theta := range []float64{0, 1} {
		jdb, err := joindb.NewJoinDB(skewACard, skewBCard, skewDegree, theta)
		if err != nil {
			return err
		}
		lap()
		w.dbs[i] = jdb
		if w.plans[2*i], err = jdb.IdealJoinPlan(lera.HashJoin); err != nil {
			return err
		}
		if w.plans[2*i+1], err = jdb.AssocJoinPlan(lera.HashJoin); err != nil {
			return err
		}
	}
	return nil
}

func (w *skewWorkload) warm(ctx context.Context) error {
	for i := 0; i < 2*len(skewClasses); i++ {
		if res := w.op(ctx, 0, i, 0, nil); res.err != nil {
			return res.err
		}
	}
	return nil
}

func (w *skewWorkload) options(i int) core.Options {
	return core.Options{Threads: w.env.nproc, Seed: w.env.seed + int64(i)}
}

func (w *skewWorkload) op(ctx context.Context, _, i, _ int, root *liveSpan) opResult {
	class := i % len(skewClasses)
	jdb, plan, opts := w.dbs[class/2], w.plans[class], w.options(i)
	rels := core.DB(jdb.Relations())
	t0 := time.Now()
	// ExecuteContext is exactly these two calls; they are made separately so
	// a traced run can time each.
	sp := root.child("core.allocate")
	alloc, err := core.PlanAllocation(plan, rels, opts)
	sp.end()
	var res *core.Result
	if err == nil {
		sp = root.child("core.execute")
		res, err = core.ExecuteAllocated(ctx, plan, rels, opts, alloc)
		sp.end()
	}
	out := opResult{class: class, latency: time.Since(t0), threads: alloc.Total, err: err}
	if err != nil {
		return out
	}
	t1 := time.Now()
	joined := res.Outputs["Res"]
	out.rows = int64(joined.Cardinality())
	if out.rows != int64(jdb.ExpectedJoinCount()) {
		out.err = fmt.Errorf("engine-skew %s: %d rows, want %d", skewClasses[class], out.rows, jdb.ExpectedJoinCount())
	} else if i%checksumEach == 0 {
		out.err = jdb.VerifyJoinResult(joined)
	}
	out.verify = time.Since(t1)
	return out
}

// layers measures the engine from outside: the same four plans at one thread
// and at nproc, under both strategies and with batching and vectorization
// off, next to the simulator's prediction for the same shape.
func (w *skewWorkload) layers(ctx context.Context, _ *tracer, m metrics) error {
	const reps = 5
	var stats struct{ activations, batches, secondary, ops float64 }
	var balance []float64
	run := func(class int, tweak func(*core.Options)) (time.Duration, error) {
		jdb, plan := w.dbs[class/2], w.plans[class]
		return medianTime(reps, func() error {
			opts := w.options(0)
			if tweak != nil {
				tweak(&opts)
			}
			res, err := core.ExecuteContext(ctx, plan, core.DB(jdb.Relations()), opts)
			if err != nil {
				return err
			}
			if got := res.Outputs["Res"].Cardinality(); got != jdb.ExpectedJoinCount() {
				return fmt.Errorf("engine-skew probe: %d rows, want %d", got, jdb.ExpectedJoinCount())
			}
			if tweak == nil {
				stats.ops++
				for id, st := range res.Stats {
					stats.activations += float64(st.Activations.Load())
					stats.batches += float64(st.Batches.Load())
					stats.secondary += float64(st.SecondaryPicks.Load())
					if plan.Graph.Nodes[id].Kind == lera.OpJoin {
						balance = append(balance, st.BalanceRatio())
					}
				}
			}
			return nil
		})
	}
	var base [4]time.Duration
	for class := range skewClasses {
		d, err := run(class, nil)
		if err != nil {
			return err
		}
		base[class] = d
	}
	m["core.secondary_pick_share"] = stats.secondary / stats.activations
	m["core.activations_per_op"] = stats.activations / stats.ops
	m["core.activations_per_batch"] = stats.activations / stats.batches
	m["core.balance_ratio"] = mean(balance)

	predict := map[string]func(aCard, bCard, d, threads int, theta float64, strategy string) (float64, error){
		"ideal": dbs3.PredictIdealJoin, "assoc": dbs3.PredictAssocJoin,
	}
	for class, kind := range []string{"ideal", "assoc"} {
		one, err := run(class, func(o *core.Options) { o.Threads = 1 })
		if err != nil {
			return err
		}
		speedup := float64(one) / float64(base[class])
		p1, err := predict[kind](skewACard, skewBCard, skewDegree, 1, 0, "random")
		if err != nil {
			return err
		}
		pn, err := predict[kind](skewACard, skewBCard, skewDegree, w.env.nproc, 0, "random")
		if err != nil {
			return err
		}
		m["core.speedup."+kind] = speedup
		m["sim.predicted_speedup."+kind] = p1 / pn
		m["core.speedup_vs_predicted."+kind] = speedup / (p1 / pn)
		// The paper's v: the time skew adds, as a share of the unskewed time.
		m["core.skew_overhead."+kind] = float64(base[class+2])/float64(base[class]) - 1
	}

	random, err := run(2, func(o *core.Options) { o.Strategy = core.StrategyRandom })
	if err != nil {
		return err
	}
	lpt, err := run(2, func(o *core.Options) { o.Strategy = core.StrategyLPT })
	if err != nil {
		return err
	}
	m["core.lpt_gain.ideal_skew"] = float64(random) / float64(lpt)

	novec, err := run(1, func(o *core.Options) { o.NoVectorize = true })
	if err != nil {
		return err
	}
	grain1, err := run(1, func(o *core.Options) { o.NoVectorize = true; o.BatchGrain = 1 })
	if err != nil {
		return err
	}
	m["core.novectorize_slowdown"] = float64(novec) / float64(base[1])
	m["core.grain1_slowdown"] = float64(grain1) / float64(base[1])

	if err := probeCoreFixed(ctx, m); err != nil {
		return err
	}
	if err := probeOperators(ctx, m, "hash_join", "temp_index_join", "store"); err != nil {
		return err
	}
	return probePartition(m)
}
