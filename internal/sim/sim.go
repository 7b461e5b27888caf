// Package sim is a virtual-time discrete-event simulator of DBS3's parallel
// execution model. It reproduces the scheduling semantics of the real engine
// (package core) — per-instance activation queues, thread pools with main
// and secondary queues, Random and LPT consumption — on a virtual clock with
// per-activation costs from a calibrated KSR1 cost model. The paper's
// figures need up to 100 threads on 70 processors; the simulator makes those
// experiments reproducible on any host, which is the substitution documented
// in DESIGN.md.
package sim

import (
	"math"
	"math/rand"
)

// Kind selects the consumption strategy, mirroring core.StrategyKind.
type Kind int

const (
	// Random picks a random non-empty queue (the engine default).
	Random Kind = iota
	// LPT picks the non-empty queue with the most remaining estimated work.
	LPT
)

// Config holds machine-level simulation parameters.
type Config struct {
	// Processors caps real parallelism; more threads than processors time-
	// share (processor-sharing dilation), which is why the paper's speed-up
	// curves decline past 70 threads.
	Processors int
	// StartupPerThread is the sequential initialization cost per thread
	// (the "start-up time proportional to the degree of parallelism" of
	// §1).
	StartupPerThread float64
	// Seed drives the Random strategy.
	Seed int64
}

// dilation is the processor-sharing slowdown applied to all processing when
// more threads than processors are allocated.
func (c Config) dilation(totalThreads int) float64 {
	if c.Processors <= 0 || totalThreads <= c.Processors {
		return 1
	}
	return float64(totalThreads) / float64(c.Processors)
}

// Startup is the sequential initialization time: thread creation plus queue
// creation. Exposed so experiment drivers can split a simulated time into
// its fixed and parallel parts when overlaying analytical curves.
func (c Config) Startup(totalThreads int, queueOverheads float64) float64 {
	return float64(totalThreads)*c.StartupPerThread + queueOverheads
}

// Result reports one simulated execution.
type Result struct {
	// Time is the total response time: startup + makespan.
	Time float64
	// Makespan is the parallel processing time (excluding startup).
	Makespan float64
	// BusyTime is the summed processing time over all threads.
	BusyTime float64
	// SecondaryPicks counts consumptions from non-main queues.
	SecondaryPicks int
}

// TriggeredSpec describes a triggered operation: one activation per
// instance, all available at time zero (Figure 2).
type TriggeredSpec struct {
	// Costs[i] is instance i's activation processing time.
	Costs []float64
	// Threads is the pool size.
	Threads int
	// Strategy picks among secondary queues.
	Strategy Kind
	// QueueOverhead is the per-queue creation/management cost charged to
	// sequential startup (0.45 ms/queue for triggered queues, Figure 16).
	QueueOverhead float64
	// Estimates overrides the LPT per-queue cost estimates; defaults to
	// Costs (the engine estimates from fragment sizes, which here are the
	// costs themselves).
	Estimates []float64
}

// Triggered simulates a triggered operation: greedy list scheduling with the
// engine's main-queue preference.
func Triggered(spec TriggeredSpec, cfg Config) Result {
	n := spec.Threads
	if n < 1 {
		n = 1
	}
	a := len(spec.Costs)
	est := spec.Estimates
	if est == nil {
		est = spec.Costs
	}
	dil := cfg.dilation(n)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	free := make([]float64, n)
	taken := make([]bool, a)
	remaining := a
	res := Result{}

	for remaining > 0 {
		// Thread that frees earliest takes the next activation.
		w := 0
		for i := 1; i < n; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		qi := pickTriggered(spec.Strategy, rng, taken, est, w, n, &res)
		if qi < 0 {
			break
		}
		taken[qi] = true
		remaining--
		d := spec.Costs[qi] * dil
		free[w] += d
		res.BusyTime += d
	}
	for _, f := range free {
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	res.Time = cfg.Startup(n, float64(a)*spec.QueueOverhead) + res.Makespan
	return res
}

// PipelineSpec describes a two-stage pipelined chain (the paper's AssocJoin,
// Figure 11): a triggered producer stage (transmit reading its bound
// fragments) whose emitted tuples become the pipelined activations of a
// consumer stage (the join), one queue per consumer instance.
type PipelineSpec struct {
	// ProducerCosts[i] is producer instance i's trigger processing time; the
	// instance emits its tuples at a uniform rate across that time.
	ProducerCosts []float64
	// Emissions[i][j] is the consumer instance receiving the j-th tuple of
	// producer instance i.
	Emissions [][]int
	// ConsumerPerTuple[t] is the per-tuple processing cost at consumer
	// instance t (e.g. |A_t| * nested-loop pair cost).
	ConsumerPerTuple []float64
	// ProducerThreads and ConsumerThreads size the two pools.
	ProducerThreads, ConsumerThreads int
	// Strategy picks among secondary queues (both pools).
	Strategy Kind
	// QueueOverheadProducer/Consumer are the per-queue costs charged to
	// startup (0.45 ms triggered, ~3.55 ms pipelined; together the 4
	// ms/degree of Figure 16).
	QueueOverheadProducer, QueueOverheadConsumer float64
}

// arrival is one pipelined activation: release time and target queue.
type arrival struct {
	at     float64
	target int
}

// Pipeline simulates the two-stage chain. Producers and consumers have
// separate pools (the engine's per-operation thread pools), so the producer
// schedule is computed first and its emission times drive the consumer DES.
func Pipeline(spec PipelineSpec, cfg Config) Result {
	np, nc := spec.ProducerThreads, spec.ConsumerThreads
	if np < 1 {
		np = 1
	}
	if nc < 1 {
		nc = 1
	}
	total := np + nc
	dil := cfg.dilation(total)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	res := Result{}

	// Stage 1: producers via list scheduling, recording emission times.
	d := len(spec.ProducerCosts)
	prodFree := make([]float64, np)
	taken := make([]bool, d)
	nq := len(spec.ConsumerPerTuple)
	queues := make([][]arrival, nq)
	prodMakespan := 0.0
	for done := 0; done < d; done++ {
		w := 0
		for i := 1; i < np; i++ {
			if prodFree[i] < prodFree[w] {
				w = i
			}
		}
		qi := pickTriggered(spec.Strategy, rng, taken, spec.ProducerCosts, w, np, &res)
		if qi < 0 {
			break
		}
		taken[qi] = true
		start := prodFree[w]
		cost := spec.ProducerCosts[qi] * dil
		m := len(spec.Emissions[qi])
		perTuple := 0.0
		if m > 0 {
			perTuple = cost / float64(m)
		}
		for j, target := range spec.Emissions[qi] {
			queues[target] = append(queues[target], arrival{at: start + float64(j+1)*perTuple, target: target})
		}
		prodFree[w] = start + cost
		res.BusyTime += cost
		if prodFree[w] > prodMakespan {
			prodMakespan = prodFree[w]
		}
	}
	// FIFO order within each queue by arrival time.
	for _, q := range queues {
		sortArrivals(q)
	}

	// Stage 2: consumer DES.
	head := make([]int, nq)
	consFree := make([]float64, nc)
	remaining := 0
	for _, q := range queues {
		remaining += len(q)
	}
	for remaining > 0 {
		w := 0
		for i := 1; i < nc; i++ {
			if consFree[i] < consFree[w] {
				w = i
			}
		}
		t := consFree[w]
		qi := pickPipelined(spec.Strategy, rng, queues, head, spec.ConsumerPerTuple, w, nc, t, &res)
		if qi < 0 {
			// Nothing released yet: idle until the earliest future arrival.
			next := math.Inf(1)
			for q := range queues {
				if head[q] < len(queues[q]) && queues[q][head[q]].at < next {
					next = queues[q][head[q]].at
				}
			}
			if math.IsInf(next, 1) {
				break
			}
			consFree[w] = next
			continue
		}
		head[qi]++
		remaining--
		cost := spec.ConsumerPerTuple[qi] * dil
		consFree[w] = t + cost
		res.BusyTime += cost
	}
	res.Makespan = prodMakespan
	for _, f := range consFree {
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	overheads := float64(d)*spec.QueueOverheadProducer + float64(nq)*spec.QueueOverheadConsumer
	res.Time = cfg.Startup(total, overheads) + res.Makespan
	return res
}

// PipelineSequential is the one-thread execution: the sum of all work plus
// startup, the paper's Tseq baseline.
func PipelineSequential(spec PipelineSpec, cfg Config) float64 {
	var work float64
	for _, c := range spec.ProducerCosts {
		work += c
	}
	for i, q := range spec.Emissions {
		_ = i
		for _, target := range q {
			work += spec.ConsumerPerTuple[target]
		}
	}
	overheads := float64(len(spec.ProducerCosts))*spec.QueueOverheadProducer + float64(len(spec.ConsumerPerTuple))*spec.QueueOverheadConsumer
	return cfg.Startup(1, overheads) + work
}

// pickTriggered chooses an untaken triggered activation for thread w (main
// instances first, then strategy over the rest).
func pickTriggered(kind Kind, rng *rand.Rand, taken []bool, est []float64, w, n int, res *Result) int {
	a := len(taken)
	if kind == LPT {
		best, bestEst := -1, -1.0
		for i := w; i < a; i += n {
			if !taken[i] && est[i] > bestEst {
				best, bestEst = i, est[i]
			}
		}
		if best >= 0 {
			return best
		}
		for i := 0; i < a; i++ {
			if !taken[i] && est[i] > bestEst {
				best, bestEst = i, est[i]
			}
		}
		if best >= 0 {
			res.SecondaryPicks++
		}
		return best
	}
	var mains, all []int
	for i := w; i < a; i += n {
		if !taken[i] {
			mains = append(mains, i)
		}
	}
	if len(mains) > 0 {
		return mains[rng.Intn(len(mains))]
	}
	for i := 0; i < a; i++ {
		if !taken[i] {
			all = append(all, i)
		}
	}
	if len(all) == 0 {
		return -1
	}
	res.SecondaryPicks++
	return all[rng.Intn(len(all))]
}

// pickPipelined chooses a consumer queue with a released activation for
// thread w at time t.
func pickPipelined(kind Kind, rng *rand.Rand, queues [][]arrival, head []int, perTuple []float64, w, n int, t float64, res *Result) int {
	available := func(q int) bool {
		return head[q] < len(queues[q]) && queues[q][head[q]].at <= t
	}
	if kind == LPT {
		score := func(q int) float64 {
			released := 0
			for k := head[q]; k < len(queues[q]) && queues[q][k].at <= t; k++ {
				released++
			}
			return float64(released) * perTuple[q]
		}
		best, bestScore := -1, 0.0
		for q := w; q < len(queues); q += n {
			if available(q) {
				if s := score(q); s > bestScore {
					best, bestScore = q, s
				}
			}
		}
		if best >= 0 {
			return best
		}
		for q := 0; q < len(queues); q++ {
			if available(q) {
				if s := score(q); s > bestScore {
					best, bestScore = q, s
				}
			}
		}
		if best >= 0 {
			res.SecondaryPicks++
		}
		return best
	}
	var mains, all []int
	for q := w; q < len(queues); q += n {
		if available(q) {
			mains = append(mains, q)
		}
	}
	if len(mains) > 0 {
		return mains[rng.Intn(len(mains))]
	}
	for q := 0; q < len(queues); q++ {
		if available(q) {
			all = append(all, q)
		}
	}
	if len(all) == 0 {
		return -1
	}
	res.SecondaryPicks++
	return all[rng.Intn(len(all))]
}

// sortArrivals sorts in place by release time (insertion sort: queues are
// nearly sorted already since producers emit in order).
func sortArrivals(a []arrival) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].at < a[j-1].at; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
