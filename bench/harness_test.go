package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, v := highestPercentile(xs)
		if !near(p, tc.want) {
			t.Errorf("%d samples: percentile %.3f, want %.3f", tc.n, p, tc.want)
		}
		if want := quantile(xs, p); v != want {
			t.Errorf("%d samples: value %v, want %v", tc.n, v, want)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{9, 1, 5, 7}); got != 6 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
	// One wild round out of five moves a mean by a fifth of its size and a
	// median not at all.
	if got := median([]float64{100, 101, 99, 100, 1000}); got != 100 {
		t.Errorf("median with an outlier = %v", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestIQRSpreadMatchesPythonQuantiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := iqrSpread(ten); !near(got, 5.5/5.5) {
		t.Errorf("spread of 1..10 = %v", got)
	}
	eight := []float64{3, 1, 4, 1, 5, 9, 2, 6} // quartiles 1.25, 3.5, 5.75
	if got := iqrSpread(eight); !near(got, 4.5/3.5) {
		t.Errorf("spread of 8 values = %v", got)
	}
	if got := iqrSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestBalancedMedianWeighsClassesEqually(t *testing.T) {
	fast := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	slow := []float64{10, 10, 10}
	if got := balancedMedian([][]float64{fast, slow, nil}); got != 5.5 {
		t.Errorf("balanced median = %v, want 5.5", got)
	}
	// Only the slow class got faster: a pooled median (1) would not move.
	if got := balancedMedian([][]float64{fast, {5, 5, 5}}); got != 3 {
		t.Errorf("balanced median = %v, want 3", got)
	}
}

func TestStageSumTakesEachStageAtItsFastest(t *testing.T) {
	laps := [][]float64{
		{5, 1, 9}, // stalled in the first and the last stage
		{2, 4, 3}, // stalled in the middle
		{3, 1, 6},
	}
	if got := stageSum(laps); got != 2+1+3 {
		t.Errorf("stage sum = %v, want 6", got)
	}
	if got := stageSum(laps[:1]); got != 15 {
		t.Errorf("stage sum of one set-up = %v, want its length 15", got)
	}
	if got := stageSum(nil); got != 0 {
		t.Errorf("stage sum of no set-up = %v", got)
	}
}

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Op: 1, ID: 1, StartUS: 0, EndUS: 100},
		{Name: "a", Op: 1, ID: 2, Parent: 1, StartUS: 10, EndUS: 30},
		{Name: "b", Op: 1, ID: 3, Parent: 1, StartUS: 20, EndUS: 50},  // overlaps a
		{Name: "c", Op: 1, ID: 4, Parent: 1, StartUS: 90, EndUS: 120}, // ends after the parent
		{Name: "d", Op: 1, ID: 5, Parent: 3, StartUS: 25, EndUS: 35},  // grandchild
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestLayerSumShare(t *testing.T) {
	spans := []span{
		// op 1: a primary call of 100 with a twin of 60 beside it.
		{Name: "bench.op", Op: 1, ID: 1, StartUS: 0, EndUS: 170},
		{Name: "server.stream", Op: 1, ID: 2, Parent: 1, StartUS: 0, EndUS: 100},
		{Name: "dbs3.stmt_query", Op: 1, ID: 3, Parent: 1, StartUS: 105, EndUS: 165},
		// op 2: no decomposition, so it does not count.
		{Name: "bench.op", Op: 2, ID: 4, StartUS: 200, EndUS: 300},
		{Name: "server.stream", Op: 2, ID: 5, Parent: 4, StartUS: 200, EndUS: 300},
		// op 3: concurrent shard twins, the slowest counts.
		{Name: "bench.op", Op: 3, ID: 6, StartUS: 400, EndUS: 600},
		{Name: "server.stream", Op: 3, ID: 7, Parent: 6, StartUS: 400, EndUS: 500},
		{Name: "server.shard_query", Op: 3, ID: 8, Parent: 6, StartUS: 500, EndUS: 540},
		{Name: "server.shard_query", Op: 3, ID: 9, Parent: 6, StartUS: 500, EndUS: 580},
	}
	if got := layerSumShare(spans, []string{"server.stream"}); !near(got, (60.0+80.0)/200.0) {
		t.Errorf("layer sum share = %v, want 0.7", got)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(7 * time.Millisecond)   // the generator ran late
	done := sent.Add(20 * time.Millisecond) // the operation itself
	latency, lag := openLatency(due, sent, done)
	if latency != 27*time.Millisecond || lag != 7*time.Millisecond {
		t.Errorf("latency %v lag %v, want 27ms and 7ms", latency, lag)
	}
}

func TestArrivalOffsetsFixTheCountPerRound(t *testing.T) {
	offs := arrivalOffsets(rand.New(rand.NewSource(3)), 40, time.Second)
	if len(offs) != 40 || !sort.SliceIsSorted(offs, func(i, j int) bool { return offs[i] < offs[j] }) {
		t.Fatalf("%d offsets, sorted %t", len(offs), sort.SliceIsSorted(offs, func(i, j int) bool { return offs[i] < offs[j] }))
	}
	if offs[0] < 0 || offs[39] >= time.Second {
		t.Errorf("offsets outside the round: %v .. %v", offs[0], offs[39])
	}
	again := arrivalOffsets(rand.New(rand.NewSource(3)), 40, time.Second)
	for i := range offs {
		if offs[i] != again[i] {
			t.Fatal("the same seed gave other arrival times")
		}
	}
}

func TestRoundOpsAreTheSameMultisetEveryRound(t *testing.T) {
	ops := roundOps(40)
	if len(ops) != 40 {
		t.Fatalf("%d ops in a round of 40", len(ops))
	}
	counts := make([]int, len(mixSQL))
	for _, op := range ops {
		counts[op.class]++
		if op.arg < clusterArgStep || op.arg > clusterArgRanks*clusterArgStep || op.arg%clusterArgStep != 0 {
			t.Errorf("argument %d is not a rank times the step", op.arg)
		}
	}
	// Zipf(0.5) over four statements: 36, 25, 21 and 18 percent.
	if want := []int{15, 10, 8, 7}; counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] || counts[3] != want[3] {
		t.Errorf("statement counts %v, want %v", counts, want)
	}
	w := &clusterWorkload{env: runEnv{seed: 7}, plans: make(map[int][]clusterOp)}
	for round := 0; round < 3; round++ {
		seen := make(map[clusterOp]int)
		for k := 0; k < 40; k++ {
			seen[w.opAt(round*40+k, 40)]++
		}
		for _, op := range ops {
			seen[op]--
		}
		for op, n := range seen {
			if n != 0 {
				t.Fatalf("round %d: op %+v off by %d", round, op, n)
			}
		}
	}
}

// BENCHMARK.json carries the metric tables for the driver; spec.go carries
// them for the program. They have to agree.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSecs {
		t.Errorf("run_seconds %d, spec says %d", file.RunSeconds, defaultSecs)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, spec has %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d is %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, spec has %d", len(got), kind, len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d is %+v, spec says %+v", kind, i, g, w)
			}
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if !d.demoted {
			gated = append(gated, d)
		}
	}
	check("end-to-end", file.EndToEnd, gated)
	check("per-layer", file.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("metric %q (unit %q) is repeated or too long", d.name, d.unit)
		}
		seen[d.name] = true
	}
}
