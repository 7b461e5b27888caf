package sim

import (
	"math"
	"testing"
	"testing/quick"

	"dbs3/internal/analytic"
	"dbs3/internal/core"
	"dbs3/internal/zipf"
)

func flatCfg() Config { return Config{Processors: 1 << 30} } // no startup, no dilation

func TestTriggeredSingleThreadIsSum(t *testing.T) {
	costs := []float64{3, 1, 4, 1, 5}
	r := Triggered(TriggeredSpec{Costs: costs, Threads: 1}, flatCfg())
	if math.Abs(r.Makespan-14) > 1e-9 {
		t.Errorf("makespan = %v, want 14", r.Makespan)
	}
	if math.Abs(r.BusyTime-14) > 1e-9 {
		t.Errorf("busy = %v", r.BusyTime)
	}
}

func TestTriggeredUniformNearIdeal(t *testing.T) {
	costs := make([]float64, 200)
	for i := range costs {
		costs[i] = 1
	}
	for _, n := range []int{2, 5, 10, 50} {
		r := Triggered(TriggeredSpec{Costs: costs, Threads: n}, flatCfg())
		ideal := 200.0 / float64(n)
		if r.Makespan < ideal-1e-9 {
			t.Fatalf("n=%d: makespan %v below ideal %v", n, r.Makespan, ideal)
		}
		if r.Makespan > ideal+1 { // at most one extra activation of slack
			t.Errorf("n=%d: makespan %v far above ideal %v", n, r.Makespan, ideal)
		}
	}
}

// Any list schedule respects the paper's equation (2):
// T <= (sum - Pmax)/n + Pmax.
func TestTriggeredRespectsTworstBound(t *testing.T) {
	for _, theta := range []float64{0, 0.4, 0.8, 1} {
		sizes := zipf.Sizes(100000, 200, theta)
		costs := make([]float64, len(sizes))
		var sum, pmax float64
		for i, s := range sizes {
			costs[i] = float64(s)
			sum += costs[i]
			if costs[i] > pmax {
				pmax = costs[i]
			}
		}
		for _, n := range []int{5, 10, 20} {
			for _, k := range []Kind{Random, LPT} {
				r := Triggered(TriggeredSpec{Costs: costs, Threads: n, Strategy: k}, flatCfg())
				bound := (sum-pmax)/float64(n) + pmax
				if r.Makespan > bound+1e-6 {
					t.Errorf("theta=%v n=%d %v: makespan %v > Tworst %v", theta, n, k, r.Makespan, bound)
				}
				if r.Makespan < sum/float64(n)-1e-6 {
					t.Errorf("theta=%v n=%d %v: makespan %v below ideal", theta, n, k, r.Makespan)
				}
				if r.Makespan < pmax-1e-6 {
					t.Errorf("makespan below longest activation")
				}
			}
		}
	}
}

// The paper's Figure 13 result: under skew, LPT beats Random on triggered
// operations.
func TestLPTBeatsRandomUnderSkew(t *testing.T) {
	sizes := zipf.Sizes(100000, 200, 1)
	costs := make([]float64, len(sizes))
	for i, s := range sizes {
		costs[i] = float64(s)
	}
	lpt := Triggered(TriggeredSpec{Costs: costs, Threads: 10, Strategy: LPT}, flatCfg())
	worst := 0.0
	for seed := int64(0); seed < 5; seed++ {
		cfg := flatCfg()
		cfg.Seed = seed
		r := Triggered(TriggeredSpec{Costs: costs, Threads: 10, Strategy: Random}, cfg)
		if r.Makespan > worst {
			worst = r.Makespan
		}
	}
	if lpt.Makespan > worst+1e-9 {
		t.Errorf("LPT %v worse than worst Random %v", lpt.Makespan, worst)
	}
}

func TestTriggeredStartupAndOverheadAccounted(t *testing.T) {
	cfg := Config{Processors: 100, StartupPerThread: 0.5}
	r := Triggered(TriggeredSpec{Costs: []float64{1, 1}, Threads: 2, QueueOverhead: 0.25}, cfg)
	// startup = 2*0.5 + 2*0.25 = 1.5; makespan = 1.
	if math.Abs(r.Time-2.5) > 1e-9 {
		t.Errorf("Time = %v, want 2.5", r.Time)
	}
}

func TestDilationBeyondProcessors(t *testing.T) {
	costs := make([]float64, 100)
	for i := range costs {
		costs[i] = 1
	}
	cfg := Config{Processors: 4}
	within := Triggered(TriggeredSpec{Costs: costs, Threads: 4}, cfg)
	beyond := Triggered(TriggeredSpec{Costs: costs, Threads: 8}, cfg)
	// 8 threads on 4 processors: same throughput, so no speedup...
	if beyond.Makespan < within.Makespan-1e-6 {
		t.Errorf("oversubscription sped things up: %v < %v", beyond.Makespan, within.Makespan)
	}
}

func TestPipelineSequentialIsTotalWork(t *testing.T) {
	spec := PipelineSpec{
		ProducerCosts:    []float64{2, 2},
		Emissions:        [][]int{{0, 1}, {0, 1}},
		ConsumerPerTuple: []float64{3, 5},
		ProducerThreads:  1,
		ConsumerThreads:  1,
	}
	got := PipelineSequential(spec, flatCfg())
	want := 4.0 + 2*3 + 2*5
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("sequential = %v, want %v", got, want)
	}
}

func TestPipelineRespectsArrivalOrder(t *testing.T) {
	// One producer instance emitting 4 tuples over 4s to one consumer
	// queue; consumer processes 1s each: last tuple arrives at t=4,
	// finishes at 5.
	spec := PipelineSpec{
		ProducerCosts:    []float64{4},
		Emissions:        [][]int{{0, 0, 0, 0}},
		ConsumerPerTuple: []float64{1},
		ProducerThreads:  1,
		ConsumerThreads:  1,
	}
	r := Pipeline(spec, flatCfg())
	if math.Abs(r.Makespan-5) > 1e-9 {
		t.Errorf("makespan = %v, want 5 (pipelined overlap)", r.Makespan)
	}
}

func TestPipelineParallelismHelps(t *testing.T) {
	d := 20
	prod := make([]float64, d)
	emis := make([][]int, d)
	per := make([]float64, d)
	for i := 0; i < d; i++ {
		prod[i] = 1
		for j := 0; j < 50; j++ {
			emis[i] = append(emis[i], (i+j)%d)
		}
		per[i] = 0.1
	}
	seq := PipelineSequential(PipelineSpec{ProducerCosts: prod, Emissions: emis, ConsumerPerTuple: per}, flatCfg())
	par := Pipeline(PipelineSpec{
		ProducerCosts: prod, Emissions: emis, ConsumerPerTuple: per,
		ProducerThreads: 2, ConsumerThreads: 8,
	}, flatCfg())
	if par.Time >= seq {
		t.Errorf("parallel %v not faster than sequential %v", par.Time, seq)
	}
	if speedup := seq / par.Time; speedup < 4 {
		t.Errorf("speedup = %v, want >= 4 with 10 threads", speedup)
	}
}

// The paper's §4.1 result: pipelined operations with many activations absorb
// skew — makespan within a few percent of ideal even at Zipf 1.
func TestPipelineAbsorbsSkew(t *testing.T) {
	d := 200
	aSizes := zipf.Sizes(100000, d, 1)
	bPer := 50 // 10K tuples over 200 instances
	prod := make([]float64, d)
	emis := make([][]int, d)
	per := make([]float64, d)
	for i := 0; i < d; i++ {
		prod[i] = float64(bPer) * 0.1e-3
		for j := 0; j < bPer; j++ {
			emis[i] = append(emis[i], (i+j*7)%d)
		}
		per[i] = float64(aSizes[i]) * 1e-6
	}
	var prodWork, consWork float64
	for i := range emis {
		prodWork += prod[i]
		for _, tgt := range emis[i] {
			consWork += per[tgt]
		}
	}
	np, nc := 2, 8
	r := Pipeline(PipelineSpec{
		ProducerCosts: prod, Emissions: emis, ConsumerPerTuple: per,
		ProducerThreads: np, ConsumerThreads: nc,
	}, flatCfg())
	// Per-stage pools: the bottleneck stage's ideal time floors the
	// makespan. Even at Zipf 1 the pipelined join stays near it.
	ideal := math.Max(prodWork/float64(np), consWork/float64(nc))
	if v := r.Makespan/ideal - 1; v > 0.30 {
		t.Errorf("pipelined skew overhead v = %v, expected well under the triggered case", v)
	}
}

// The producer/consumer thread split that the pipeline experiments feed to
// Pipeline is the engine's step-3 rule, core.Proportional.
func TestSplitThreads(t *testing.T) {
	s := core.Proportional(10, []float64{1, 9})
	if s[0] < 1 || s[0]+s[1] != 10 || s[1] <= s[0] {
		t.Errorf("split = %v", s)
	}
	s = core.Proportional(2, []float64{5, 5, 5})
	for _, v := range s {
		if v < 1 {
			t.Fatalf("split starves a stage: %v", s)
		}
	}
	s = core.Proportional(4, []float64{0, 0})
	if s[0] != 2 || s[1] != 2 {
		t.Errorf("zero-weight split = %v, want [2 2]", s)
	}
}

// Property: makespan of a triggered op never falls below max(sum/n, Pmax)
// and never exceeds the Graham bound, for random cost vectors.
func TestTriggeredBoundsProperty(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 100 {
			raw = raw[:100]
		}
		n := int(nRaw)%20 + 1
		costs := make([]float64, len(raw))
		var sum, pmax float64
		for i, v := range raw {
			costs[i] = float64(v%1000) + 1
			sum += costs[i]
			if costs[i] > pmax {
				pmax = costs[i]
			}
		}
		for _, k := range []Kind{Random, LPT} {
			r := Triggered(TriggeredSpec{Costs: costs, Threads: n, Strategy: k}, flatCfg())
			lower := math.Max(sum/float64(n), pmax)
			upper := (sum-pmax)/float64(n) + pmax
			if r.Makespan < lower-1e-6 || r.Makespan > upper+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Calibration anchors (paper anchors): sequential times of the Figure
// 14/15 database within a few percent of the paper's Tseq.
func TestCalibrationSequentialAnchors(t *testing.T) {
	m := Calibrated()
	cfg := m.Config(1)
	d := 200
	aSizes := UniformSizes(200_000, d)
	bSizes := UniformSizes(20_000, d)
	// IdealJoin: Tseq = 956 s.
	costs := m.NestedLoopTriggerCosts(aSizes, bSizes, bSizes)
	r := Triggered(TriggeredSpec{Costs: costs, Threads: 1, QueueOverhead: m.TriggeredQueueOverhead}, cfg)
	if rel := math.Abs(r.Time-956) / 956; rel > 0.01 {
		t.Errorf("IdealJoin Tseq = %v, paper 956 s (off %.1f%%)", r.Time, rel*100)
	}
	// AssocJoin: Tseq = 1048 s.
	prod := m.TransmitTriggerCosts(bSizes)
	per := m.NestedLoopProbeCosts(aSizes)
	emis := make([][]int, d)
	for i := 0; i < d; i++ {
		for j := 0; j < bSizes[i]; j++ {
			emis[i] = append(emis[i], (i+j)%d)
		}
	}
	seq := PipelineSequential(PipelineSpec{
		ProducerCosts: prod, Emissions: emis, ConsumerPerTuple: per,
		QueueOverheadProducer: m.TriggeredQueueOverhead, QueueOverheadConsumer: m.PipelinedQueueOverhead,
	}, cfg)
	// The 92 s gap between the paper's two sequential times cannot be fully
	// attributed to transmit CPU without breaking the Figure 17 shape, so
	// the transmit calibration favours the shape and
	// this anchor is held to 8%.
	if rel := math.Abs(seq-1048) / 1048; rel > 0.08 {
		t.Errorf("AssocJoin Tseq = %v, paper 1048 s (off %.1f%%)", seq, rel*100)
	}
}

// Speed-up anchor: unskewed IdealJoin reaches > 60 on 70 threads (§5.5).
func TestCalibrationSpeedupAnchor(t *testing.T) {
	m := Calibrated()
	cfg := m.Config(1)
	d := 200
	costs := m.NestedLoopTriggerCosts(UniformSizes(200_000, d), UniformSizes(20_000, d), UniformSizes(20_000, d))
	seq := Triggered(TriggeredSpec{Costs: costs, Threads: 1, QueueOverhead: m.TriggeredQueueOverhead}, cfg).Time
	par := Triggered(TriggeredSpec{Costs: costs, Threads: 70, QueueOverhead: m.TriggeredQueueOverhead}, cfg).Time
	if s := seq / par; s < 60 {
		t.Errorf("speed-up at 70 threads = %v, paper reports > 60", s)
	}
}

// nmax anchor: with Zipf = 1 the skewed IdealJoin speed-up ceilings at ~6
// (§5.5), because the longest activation bounds the response time.
func TestCalibrationNmaxCeiling(t *testing.T) {
	m := Calibrated()
	cfg := m.Config(1)
	d := 200
	aSizes := zipf.Sizes(200_000, d, 1)
	bSizes := UniformSizes(20_000, d)
	costs := m.NestedLoopTriggerCosts(aSizes, bSizes, bSizes)
	seq := Triggered(TriggeredSpec{Costs: costs, Threads: 1, QueueOverhead: m.TriggeredQueueOverhead}, cfg).Time
	for _, n := range []int{20, 70} {
		par := Triggered(TriggeredSpec{Costs: costs, Threads: n, Strategy: LPT, QueueOverhead: m.TriggeredQueueOverhead}, cfg).Time
		s := seq / par
		nmax := analytic.NmaxZipf(d, 1)
		if s > nmax+0.5 {
			t.Errorf("n=%d: speed-up %v exceeds nmax %v", n, s, nmax)
		}
		if s < nmax-1.5 {
			t.Errorf("n=%d: speed-up %v far below nmax %v", n, s, nmax)
		}
	}
}

// Remote-access anchor (§5.2): the Tr - Tl overhead is ~4% of execution time
// and decreases with the thread count; below 5 threads local execution is
// impossible so Tr = Tl.
func TestCalibrationRemoteAccessAnchor(t *testing.T) {
	m := Calibrated()
	cfg := m.Config(1)
	d := 200
	sizes := UniformSizes(200_000, d)
	var prev float64
	for _, n := range []int{5, 10, 20, 30} {
		local := Triggered(TriggeredSpec{Costs: m.SelectionCosts(sizes, false, n), Threads: n, QueueOverhead: m.TriggeredQueueOverhead}, cfg).Time
		remote := Triggered(TriggeredSpec{Costs: m.SelectionCosts(sizes, true, n), Threads: n, QueueOverhead: m.TriggeredQueueOverhead}, cfg).Time
		delta := remote - local
		if pct := delta / remote; pct < 0.02 || pct > 0.07 {
			t.Errorf("n=%d: remote overhead %.1f%%, paper reports ~4%%", n, pct*100)
		}
		if prev > 0 && delta > prev+1e-9 {
			t.Errorf("n=%d: Tr-Tl grew with threads (%v > %v)", n, delta, prev)
		}
		prev = delta
	}
	// Below 5 threads: forced remote, so Tr == Tl.
	l4 := Triggered(TriggeredSpec{Costs: m.SelectionCosts(sizes, false, 4), Threads: 4}, cfg).Time
	r4 := Triggered(TriggeredSpec{Costs: m.SelectionCosts(sizes, true, 4), Threads: 4}, cfg).Time
	if math.Abs(l4-r4) > 1e-9 {
		t.Errorf("n=4: Tl=%v Tr=%v, paper says they coincide below 5 threads", l4, r4)
	}
}

func TestPipelineWithLPTAndMultipleProducers(t *testing.T) {
	d := 40
	m := Calibrated()
	aSizes := zipf.Sizes(20_000, d, 0.9)
	bSizes := UniformSizes(2_000, d)
	prod := m.TransmitTriggerCosts(bSizes)
	per := m.NestedLoopProbeCosts(aSizes)
	emis := make([][]int, d)
	for i := 0; i < d; i++ {
		for j := 0; j < bSizes[i]; j++ {
			emis[i] = append(emis[i], (i+j)%d)
		}
	}
	spec := PipelineSpec{
		ProducerCosts: prod, Emissions: emis, ConsumerPerTuple: per,
		ProducerThreads: 3, ConsumerThreads: 5, Strategy: LPT,
	}
	lpt := Pipeline(spec, flatCfg())
	spec.Strategy = Random
	random := Pipeline(spec, flatCfg())
	// Both must account the same busy time (same work, different order).
	if math.Abs(lpt.BusyTime-random.BusyTime) > 1e-6 {
		t.Errorf("busy time differs: %v vs %v", lpt.BusyTime, random.BusyTime)
	}
	for _, r := range []Result{lpt, random} {
		if r.Makespan <= 0 || r.Time < r.Makespan {
			t.Errorf("inconsistent result %+v", r)
		}
	}
}

func TestChunkedCostsPreserveWorkAndMultiplyActivations(t *testing.T) {
	m := Calibrated()
	aSizes := zipf.Sizes(100_000, 50, 1)
	bSizes := UniformSizes(5_000, 50)
	whole := m.ChunkedNestedLoopTriggerCosts(aSizes, bSizes, 0)
	chunked := m.ChunkedNestedLoopTriggerCosts(aSizes, bSizes, 7)
	if len(whole) != 50 {
		t.Fatalf("grain 0 should fall back to per-instance costs, got %d", len(whole))
	}
	wantChunks := 50 * 15 // ceil(100/7) = 15 per instance
	if len(chunked) != wantChunks {
		t.Fatalf("chunk count = %d, want %d", len(chunked), wantChunks)
	}
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if math.Abs(sum(whole)-sum(chunked)) > 1e-6 {
		t.Errorf("chunking changed total work: %v vs %v", sum(whole), sum(chunked))
	}
	// Max activation shrinks with the grain.
	max := func(xs []float64) float64 {
		best := 0.0
		for _, x := range xs {
			if x > best {
				best = x
			}
		}
		return best
	}
	if max(chunked) >= max(whole) {
		t.Errorf("chunking should shrink the longest activation: %v vs %v", max(chunked), max(whole))
	}
	// Empty probe side still yields one (zero-cost) activation.
	z := m.ChunkedNestedLoopTriggerCosts([]int{10}, []int{0}, 4)
	if len(z) != 1 || z[0] != 0 {
		t.Errorf("empty instance chunking = %v", z)
	}
}

func TestIndexCostsShapes(t *testing.T) {
	m := Calibrated()
	// Index trigger costs decrease when fragments shrink (same data split
	// finer): compare total work at d=100 vs d=1000 for 500K/50K.
	coarse := m.IndexTriggerCosts(UniformSizes(500_000, 100), UniformSizes(50_000, 100), UniformSizes(50_000, 100))
	fine := m.IndexTriggerCosts(UniformSizes(500_000, 1000), UniformSizes(50_000, 1000), UniformSizes(50_000, 1000))
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(fine) >= sum(coarse) {
		t.Errorf("finer fragments should cut index work: %v vs %v", sum(fine), sum(coarse))
	}
	// Probe costs: per-tuple rate amortizes the build over the probes.
	per := m.IndexProbeCosts([]int{1000, 1000}, []int{10, 100})
	if per[0] <= per[1] {
		t.Errorf("fewer probes must carry more build cost each: %v", per)
	}
	// Zero probes: build cost is not amortized (rate stays finite).
	z := m.IndexProbeCosts([]int{1000}, []int{0})
	if z[0] <= 0 {
		t.Errorf("zero-probe rate = %v", z[0])
	}
	if log2Frag(1) != 0 || log2Frag(0) != 0 {
		t.Error("log2Frag must floor tiny fragments at 0")
	}
	if math.Abs(log2Frag(8)-3) > 1e-12 {
		t.Errorf("log2Frag(8) = %v", log2Frag(8))
	}
}

func TestTriggeredLPTSecondaryPicks(t *testing.T) {
	// More threads than activations per main set forces secondary picks
	// under LPT too.
	costs := []float64{5, 1, 1, 1, 1, 1, 1, 1}
	r := Triggered(TriggeredSpec{Costs: costs, Threads: 3, Strategy: LPT}, flatCfg())
	if r.SecondaryPicks == 0 {
		t.Log("no secondary picks; acceptable but unusual for this shape")
	}
	if r.Makespan < 5 {
		t.Errorf("makespan %v below longest activation", r.Makespan)
	}
}
