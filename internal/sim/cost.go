package sim

import (
	"math"

	"dbs3/internal/core"
)

// CostModel holds the virtual-time cost constants, calibrated against the
// paper's reported anchors (internal/experiments records paper-vs-measured anchors):
//
//   - NLPair: sequential IdealJoin (nested loop, 200K x 20K, d=200) took
//     Tseq = 956 s => 20M pair comparisons => 47.8 us/pair.
//   - TransmitTuple/StoreTuple: sequential AssocJoin took 1048 s, a 92 s
//     gap over the join work, spread over 20K transmitted + 20K stored
//     tuples.
//   - SelectTuple: the Figure 8 selection (200K tuples) at 5 threads runs
//     ~5.5 s => 137 us/tuple; the remote-access delta is ~4% of total.
//   - TriggeredQueueOverhead/PipelinedQueueOverhead: Figure 16 measures
//     0.45 ms/degree (IdealJoin: d triggered queues) and 4 ms/degree
//     (AssocJoin: d triggered + d pipelined queues), so a pipelined queue
//     costs 4 - 0.45 = 3.55 ms.
//   - Index constants: chosen so the Figure 17 execution-time minima land
//     near the paper's (d ~ 1000 for AssocJoin, ~ 1400 for IdealJoin, times
//     in the 4-12 s band at 20 threads on the 500K/50K database).
type CostModel struct {
	Machine Machine

	// SelectTuple is the per-tuple cost of a selection predicate.
	SelectTuple float64
	// TransmitTuple is the per-tuple redistribution cost.
	TransmitTuple float64
	// NLPair is the nested-loop per-pair comparison cost.
	NLPair float64
	// StoreTuple is the per-result materialization cost.
	StoreTuple float64

	// Temp-index join: build costs IdxBuildTuple + IdxBuildLog*log2(|A_i|)
	// per build tuple; probes cost IdxProbeTuple + IdxProbeLog*log2(|A_i|)
	// per probe. CacheMissTouch adds Machine.localityPenalty(fragment
	// bytes) * CacheMissTouch per touched tuple — the Allcache locality
	// effect that keeps high degrees of partitioning profitable (§5.2).
	IdxBuildTuple  float64
	IdxBuildLog    float64
	IdxProbeTuple  float64
	IdxProbeLog    float64
	CacheMissTouch float64

	// TupleBytes sizes fragments for the memory model (Wisconsin tuples are
	// ~208 bytes).
	TupleBytes int

	// StartupPerThread and the queue overheads feed Config/specs.
	StartupPerThread       float64
	TriggeredQueueOverhead float64
	PipelinedQueueOverhead float64
}

// Calibrated returns the KSR1-calibrated cost model.
func Calibrated() CostModel {
	return CostModel{
		Machine:                KSR1(),
		SelectTuple:            137e-6,
		TransmitTuple:          1.2e-3,
		NLPair:                 47.8e-6,
		StoreTuple:             0.05e-3,
		IdxBuildTuple:          2e-6,
		IdxBuildLog:            15e-6,
		IdxProbeTuple:          5e-6,
		IdxProbeLog:            24.6e-6,
		CacheMissTouch:         127e-6,
		TupleBytes:             208,
		StartupPerThread:       15e-3,
		TriggeredQueueOverhead: 0.45e-3,
		PipelinedQueueOverhead: 3.55e-3,
	}
}

// Config derives the simulator machine config.
func (m CostModel) Config(seed int64) Config {
	return Config{
		Processors:       m.Machine.UsableProcessors,
		StartupPerThread: m.StartupPerThread,
		Seed:             seed,
	}
}

// log2 of a fragment cardinality, floored at 1 tuple.
func log2Frag(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Log2(float64(n))
}

// NestedLoopTriggerCosts returns per-instance costs of a triggered nested-
// loop join: |A_i| x |B_i| pair comparisons plus storing matches_i results.
func (m CostModel) NestedLoopTriggerCosts(aSizes, bSizes, matches []int) []float64 {
	out := make([]float64, len(aSizes))
	for i := range out {
		out[i] = float64(aSizes[i])*float64(bSizes[i])*m.NLPair + float64(matches[i])*m.StoreTuple
	}
	return out
}

// ChunkedNestedLoopTriggerCosts splits each instance's probe side into
// partial triggers of at most grain tuples (the engine's TriggerGrain, the
// paper's §6 future work) and returns the flattened activation costs: each
// chunk scans the whole build fragment for its slice of probes.
func (m CostModel) ChunkedNestedLoopTriggerCosts(aSizes, bSizes []int, grain int) []float64 {
	if grain <= 0 {
		return m.NestedLoopTriggerCosts(aSizes, bSizes, bSizes)
	}
	var out []float64
	for i := range aSizes {
		span := bSizes[i]
		for lo := 0; lo < span; lo += grain {
			n := grain
			if lo+n > span {
				n = span - lo
			}
			out = append(out, float64(n)*float64(aSizes[i])*m.NLPair+float64(n)*m.StoreTuple)
		}
		if span == 0 {
			out = append(out, 0)
		}
	}
	return out
}

// IndexTriggerCosts returns per-instance costs of a triggered temp-index
// join: build an index on A_i, probe it with every B_i tuple, store the
// matches. Both build and probe touches pay the Allcache locality penalty
// when the fragment exceeds the fast subcache.
func (m CostModel) IndexTriggerCosts(aSizes, bSizes, matches []int) []float64 {
	out := make([]float64, len(aSizes))
	for i := range out {
		a, b := aSizes[i], bSizes[i]
		lg := log2Frag(a)
		miss := m.Machine.localityPenalty(int64(a) * int64(m.TupleBytes))
		build := float64(a) * (m.IdxBuildTuple + m.IdxBuildLog*lg + m.CacheMissTouch*miss)
		probe := float64(b) * (m.IdxProbeTuple + m.IdxProbeLog*lg + m.CacheMissTouch*miss)
		out[i] = build + probe + float64(matches[i])*m.StoreTuple
	}
	return out
}

// TransmitTriggerCosts returns per-instance costs of a triggered transmit
// over fragments of the given sizes.
func (m CostModel) TransmitTriggerCosts(sizes []int) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = float64(s) * m.TransmitTuple
	}
	return out
}

// NestedLoopProbeCosts returns per-consumer-instance per-tuple costs of a
// pipelined nested-loop join: each probe scans A_i (plus storing its match).
func (m CostModel) NestedLoopProbeCosts(aSizes []int) []float64 {
	out := make([]float64, len(aSizes))
	for i, a := range aSizes {
		out[i] = float64(a)*m.NLPair + m.StoreTuple
	}
	return out
}

// IndexProbeCosts returns per-consumer-instance per-tuple costs of a
// pipelined temp-index join (index on A_i built once; amortized into the
// per-tuple rate so the simulator's per-tuple activations carry it).
func (m CostModel) IndexProbeCosts(aSizes, probesPerInstance []int) []float64 {
	out := make([]float64, len(aSizes))
	for i, a := range aSizes {
		lg := log2Frag(a)
		miss := m.Machine.localityPenalty(int64(a) * int64(m.TupleBytes))
		build := float64(a) * (m.IdxBuildTuple + m.IdxBuildLog*lg + m.CacheMissTouch*miss)
		perProbe := m.IdxProbeTuple + m.IdxProbeLog*lg + m.CacheMissTouch*miss + m.StoreTuple
		probes := probesPerInstance[i]
		if probes > 0 {
			perProbe += build / float64(probes)
		}
		out[i] = perProbe
	}
	return out
}

// AssocJoin builds the paper's AssocJoin pipeline over fragments of A and B:
// a transmit reads B and redistributes the j-th tuple of fragment i to join
// instance (i+j) mod d — B is placed off the join key, so its keys cycle
// over the residues — where a nested-loop join (with index, a temp-index
// join) probes A's fragment. The threads are split between the two stages
// by the engine's step-3 rule, core.Proportional; the strategy is left to
// the caller.
func (m CostModel) AssocJoin(aSizes, bSizes []int, index bool, threads int) PipelineSpec {
	d := len(aSizes)
	emis := make([][]int, d)
	probes := make([]int, d)
	for i := range emis {
		emis[i] = make([]int, bSizes[i])
		for j := range emis[i] {
			emis[i][j] = (i + j) % d
			probes[emis[i][j]]++
		}
	}
	per := m.NestedLoopProbeCosts(aSizes)
	if index {
		per = m.IndexProbeCosts(aSizes, probes)
	}
	prod := m.TransmitTriggerCosts(bSizes)
	var prodWork, consWork float64
	for i := range prod {
		prodWork += prod[i]
		for _, tgt := range emis[i] {
			consWork += per[tgt]
		}
	}
	split := core.Proportional(threads, []float64{prodWork, consWork})
	return PipelineSpec{
		ProducerCosts: prod, Emissions: emis, ConsumerPerTuple: per,
		ProducerThreads: split[0], ConsumerThreads: split[1],
		QueueOverheadProducer: m.TriggeredQueueOverhead,
		QueueOverheadConsumer: m.PipelinedQueueOverhead,
	}
}

// SelectionCosts returns per-instance costs of a triggered selection over
// fragments of the given sizes. When remote is true, every tuple pays the
// Allcache remote-fetch penalty; when the per-thread working set exceeds the
// effective local cache, even the "local" execution pays it (the paper's
// under-5-threads regime where Tl = Tr).
func (m CostModel) SelectionCosts(sizes []int, remote bool, threads int) []float64 {
	totalBytes := int64(0)
	for _, s := range sizes {
		totalBytes += int64(s) * int64(m.TupleBytes)
	}
	if threads < 1 {
		threads = 1
	}
	forcedRemote := !m.Machine.localResident(totalBytes / int64(threads))
	per := m.SelectTuple
	if remote || forcedRemote {
		per += m.Machine.remoteExtra(m.TupleBytes)
	}
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = float64(s) * per
	}
	return out
}

// UniformSizes splits total tuples evenly over d fragments (remainder to the
// first fragments), the unskewed placements of the experiments.
func UniformSizes(total, d int) []int {
	out := make([]int, d)
	base, rem := total/d, total%d
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
