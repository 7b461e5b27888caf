// Package sim is the one model of the paper: the machine, the cost model,
// the closed-form bounds and a virtual-time discrete-event simulator of
// DBS3's parallel execution model. The simulator schedules with the real
// engine's own code (package core): activations sit in per-instance
// core.Queues and every virtual thread of a pool chooses among its main and
// secondary queues with core.Pick under core's Random or LPT strategy — only
// the clock is virtual, with per-activation costs from the cost model
// calibrated on the KSR1 (Machine, CostModel; CostModel.AssocJoin builds the
// AssocJoin pipeline every caller runs). The §4.1 equations and
// the static models' makespans (bounds.go) are the references the
// simulator is tested against. The paper's figures need up to 100 threads on
// 70 processors; the simulator makes those experiments reproducible on any
// host, which is the substitution documented in DESIGN.md.
package sim

import (
	"cmp"
	"math/rand"
	"slices"

	"dbs3/internal/core"
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
	// Strategy picks among secondary queues; StrategyAuto runs Random.
	Strategy core.StrategyKind
	// QueueOverhead is the per-queue creation/management cost charged to
	// sequential startup (0.45 ms/queue for triggered queues, Figure 16).
	QueueOverhead float64
}

// Triggered simulates a triggered operation: greedy list scheduling with the
// engine's main-queue preference.
func Triggered(spec TriggeredSpec, cfg Config) Result {
	n := max(spec.Threads, 1)
	res := Result{}
	s := core.NewStrategy(spec.Strategy, rand.NewSource(cfg.Seed+1))
	res.Makespan = triggeredStage(spec.Costs, n, s, cfg.dilation(n), &res, nil)
	res.Time = cfg.Startup(n, float64(len(spec.Costs))*spec.QueueOverhead) + res.Makespan
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
	// Strategy picks among secondary queues (both pools); StrategyAuto runs
	// Random.
	Strategy core.StrategyKind
	// QueueOverheadProducer/Consumer are the per-queue costs charged to
	// startup (0.45 ms triggered, ~3.55 ms pipelined; together the 4
	// ms/degree of Figure 16).
	QueueOverheadProducer, QueueOverheadConsumer float64
}

// release is one activation: the virtual time it becomes available and the
// instance whose queue receives it.
type release struct {
	at     float64
	target int
}

// Pipeline simulates the two-stage chain. Producers and consumers have
// separate pools (the engine's per-operation thread pools), so the producer
// schedule is computed first and its emission times drive the consumer DES.
func Pipeline(spec PipelineSpec, cfg Config) Result {
	np, nc := max(spec.ProducerThreads, 1), max(spec.ConsumerThreads, 1)
	total := np + nc
	dil := cfg.dilation(total)
	s := core.NewStrategy(spec.Strategy, rand.NewSource(cfg.Seed+2))
	res := Result{}

	// Stage 1: the producers' triggered stage, recording emission times.
	var releases []release
	prodMakespan := triggeredStage(spec.ProducerCosts, np, s, dil, &res, func(qi int, start, cost float64) {
		perTuple := cost / float64(len(spec.Emissions[qi])) // unread if it emits nothing
		for j, target := range spec.Emissions[qi] {
			releases = append(releases, release{at: start + float64(j+1)*perTuple, target: target})
		}
	})

	// Stage 2: the consumer pool over the emissions in release order.
	slices.SortStableFunc(releases, func(a, b release) int { return cmp.Compare(a.at, b.at) })
	nq := len(spec.ConsumerPerTuple)
	counts := make([]int, nq)
	for _, r := range releases {
		counts[r.target]++
	}
	queues := make([]*core.Queue, nq)
	for q := range queues {
		// Sized to every release it receives: Push never blocks this
		// single-goroutine loop.
		queues[q] = core.NewQueue(counts[q])
		queues[q].SetPerTupleCost(spec.ConsumerPerTuple[q])
	}
	consMakespan := newPool(queues, nc).run(releases, spec.ConsumerPerTuple, s, dil, &res, nil)
	res.Makespan = max(prodMakespan, consMakespan)
	overheads := float64(len(spec.ProducerCosts))*spec.QueueOverheadProducer + float64(nq)*spec.QueueOverheadConsumer
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
	for _, q := range spec.Emissions {
		for _, target := range q {
			work += spec.ConsumerPerTuple[target]
		}
	}
	overheads := float64(len(spec.ProducerCosts))*spec.QueueOverheadProducer + float64(len(spec.ConsumerPerTuple))*spec.QueueOverheadConsumer
	return cfg.Startup(1, overheads) + work
}

// triggeredStage runs a triggered stage — one activation per queue, all
// released at time zero — on n threads. LPT ranks queue i by costs[i], as
// the engine ranks a triggered queue by its instance cost. It returns the
// stage's makespan.
func triggeredStage(costs []float64, n int, s core.Strategy, dil float64, res *Result, visit func(qi int, start, cost float64)) float64 {
	queues := make([]*core.Queue, len(costs))
	releases := make([]release, len(costs))
	for i := range queues {
		queues[i] = core.NewQueue(1)
		queues[i].SetEstimate(costs[i])
		releases[i] = release{target: i}
	}
	return newPool(queues, n).run(releases, costs, s, dil, res, visit)
}

// pool is one operation's thread pool on the virtual clock, over the
// operation's queues (initially empty): each thread's free time, and the
// lists core.Pick scans. Those hold only the non-empty queues — all of them,
// and each thread's main ones. The strategies skip empty queues and draw by
// position among the rest, so leaving the empty ones out changes no pick; it
// only saves the scan.
type pool struct {
	queues []*core.Queue
	owner  []int // owner[i] is the thread whose main queue instance i is
	free   []float64
	all    queueList
	main   []queueList
	buf    []core.Activation
}

func newPool(queues []*core.Queue, threads int) *pool {
	p := &pool{queues: queues, owner: make([]int, len(queues)), free: make([]float64, threads), main: make([]queueList, threads)}
	for w := range threads {
		_, mainIdx := core.MainQueues(queues, w, threads)
		for _, i := range mainIdx {
			p.owner[i] = w
		}
	}
	return p
}

// run is the simulator's one event loop. It executes releases, sorted by
// time, on the pool: the earliest-free thread first pushes every activation
// released by its clock (which never decreases), then takes the queue
// core.Pick chooses, or idles until the next release when nothing is queued.
// An activation of instance qi costs costs[qi] dilated by dil; visit, when
// non-nil, sees each one's queue, start time and dilated cost. It returns
// the pool's makespan.
func (p *pool) run(releases []release, costs []float64, s core.Strategy, dil float64, res *Result, visit func(qi int, start, cost float64)) float64 {
	next := 0
	for done := 0; done < len(releases); {
		w := p.earliest()
		t := p.free[w]
		for ; next < len(releases) && releases[next].at <= t; next++ {
			p.push(releases[next].target)
		}
		qi := p.pick(s, w, res)
		if qi < 0 {
			p.free[w] = releases[next].at
			continue
		}
		p.pop(qi)
		done++
		cost := costs[qi] * dil
		if visit != nil {
			visit(qi, t, cost)
		}
		p.free[w] = t + cost
		res.BusyTime += cost
	}
	return slices.Max(p.free)
}

// push adds one activation to instance qi's queue, listing the queue if it
// was empty.
func (p *pool) push(qi int) {
	if p.queues[qi].Len() == 0 {
		p.list(qi, true)
	}
	p.queues[qi].Push(core.Activation{})
}

// pop takes one activation from instance qi's queue, unlisting the queue if
// that empties it.
func (p *pool) pop(qi int) {
	p.buf = p.queues[qi].PopBatch(1, p.buf[:0])
	if p.queues[qi].Len() == 0 {
		p.list(qi, false)
	}
}

func (p *pool) list(qi int, listed bool) {
	p.all.set(p.queues[qi], qi, listed)
	p.main[p.owner[qi]].set(p.queues[qi], qi, listed)
}

// queueList is a list of queues in instance order; idx[k] is qs[k]'s
// instance.
type queueList struct {
	qs  []*core.Queue
	idx []int
}

// set lists or unlists queue q of instance qi, keeping the order.
func (l *queueList) set(q *core.Queue, qi int, listed bool) {
	k, _ := slices.BinarySearch(l.idx, qi)
	if listed {
		l.qs, l.idx = slices.Insert(l.qs, k, q), slices.Insert(l.idx, k, qi)
	} else {
		l.qs, l.idx = slices.Delete(l.qs, k, k+1), slices.Delete(l.idx, k, k+1)
	}
}

// earliest is the thread that frees first (the lowest index on ties): it
// takes the next activation.
func (p *pool) earliest() int {
	w := 0
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[w] {
			w = i
		}
	}
	return w
}

// pick is core.Pick for thread w, counting secondary picks in res: the
// instance whose queue to pop, -1 when every queue is empty.
func (p *pool) pick(s core.Strategy, w int, res *Result) int {
	qi, secondary := core.Pick(s, p.main[w].qs, p.main[w].idx, p.all.qs)
	if secondary {
		res.SecondaryPicks++
		qi = p.all.idx[qi]
	}
	return qi
}
