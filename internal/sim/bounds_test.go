package sim

import (
	"math"
	"testing"
	"testing/quick"

	"dbs3/internal/core"
	"dbs3/internal/zipf"
)

func TestTidealAndTworstConsistent(t *testing.T) {
	// Equation (1): Tworst = (1+v) * Tideal with v from equation (3) when
	// Pmax = skew * P.
	a, n := 200, 10
	p := 2.0
	skew := 34.0
	pmax := skew * p
	ti := tideal(a, p, n)
	tw := tworst(a, p, n, pmax)
	v := VBound(skew, n, a)
	if rel := math.Abs(tw-(1+v)*ti) / tw; rel > 1e-9 {
		t.Errorf("Tworst=%v != (1+v)*Tideal=%v", tw, (1+v)*ti)
	}
}

// The paper's footnote anchor: "With Zipf = 1 and a = 200 buckets, we have
// Pmax = 34 P. With 70 threads, we have v = 34 x 69 / 20000 = 0.117".
func TestAssocJoinWorstCaseAnchor(t *testing.T) {
	skew := zipf.SkewRatio(200, 1)
	if math.Abs(skew-34) > 0.1 {
		t.Fatalf("skew factor = %v, want ~34", skew)
	}
	v := VBound(34, 70, 20000)
	if math.Abs(v-0.117) > 0.001 {
		t.Errorf("v = %v, paper computes 0.117", v)
	}
}

// §5.5 anchors: nmax = 6 with Zipf 1, 19 with 0.6, 40 with 0.4 (a = 200).
func TestNmaxAnchors(t *testing.T) {
	cases := []struct {
		theta float64
		want  float64
		tol   float64
	}{{1, 6, 0.2}, {0.6, 19, 0.2}, {0.4, 40, 1.1}}
	for _, c := range cases {
		got := nmaxZipf(200, c.theta)
		if math.Abs(math.Ceil(got)-c.want) > c.tol {
			t.Errorf("theta=%v: nmax=%v, paper says %v", c.theta, got, c.want)
		}
	}
}

func TestNmaxEquivalence(t *testing.T) {
	// nmax(a, P, Pmax) with Pmax = skew*P must equal a/skew.
	a := 200
	p := 3.7
	skew := zipf.SkewRatio(a, 0.6)
	got := nmax(a, p, skew*p)
	want := nmaxZipf(a, 0.6)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("nmax=%v, nmaxZipf=%v", got, want)
	}
}

func TestSpeedupBound(t *testing.T) {
	if s := SpeedupBound(100, 70, 1e9); s != 70 {
		t.Errorf("processor-limited speedup = %v", s)
	}
	if s := SpeedupBound(30, 70, 1e9); s != 30 {
		t.Errorf("thread-limited speedup = %v", s)
	}
	if s := SpeedupBound(100, 70, 6); s != 6 {
		t.Errorf("nmax-limited speedup = %v", s)
	}
}

func TestTriggeredTimeLPT(t *testing.T) {
	// Balanced: floor is sum/n.
	costs := []float64{1, 1, 1, 1}
	if got := triggeredTimeLPT(costs, 2); got != 2 {
		t.Errorf("balanced LPT time = %v", got)
	}
	// One giant activation: floor is Pmax.
	costs = []float64{100, 1, 1, 1}
	if got := triggeredTimeLPT(costs, 8); got != 100 {
		t.Errorf("skewed LPT time = %v", got)
	}
}

func TestVFromTimes(t *testing.T) {
	if v := VFromTimes(12, 10); math.Abs(v-0.2) > 1e-12 {
		t.Errorf("v = %v", v)
	}
	if v := VFromTimes(10, 10); v != 0 {
		t.Errorf("v = %v", v)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"tideal":           func() { tideal(1, 1, 0) },
		"VBound":           func() { VBound(1, 1, 0) },
		"tworst":           func() { tworst(1, 1, 0, 1) },
		"nmax":             func() { nmax(1, 1, 0) },
		"triggeredTimeLPT": func() { triggeredTimeLPT(nil, 0) },
		"VFromTimes":       func() { VFromTimes(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on invalid input", name)
				}
			}()
			f()
		}()
	}
}

// Property: Tworst >= Tideal always (overhead is non-negative) and equals
// Tideal exactly when Pmax = P (no skew... Pmax = mean with a*P total).
func TestWorstNotBelowIdealProperty(t *testing.T) {
	f := func(aRaw uint8, nRaw uint8, skewRaw uint8) bool {
		a := int(aRaw)%500 + 1
		n := int(nRaw)%100 + 1
		p := 1.0
		skew := 1 + float64(skewRaw)/8 // Pmax/P >= 1
		pmax := skew * p
		if pmax > float64(a)*p {
			pmax = float64(a) * p // Pmax cannot exceed total work
		}
		return tworst(a, p, n, pmax) >= tideal(a, p, n)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: VBound decreases in a and increases in n — the paper's two
// levers: more activations absorb skew, more threads expose it.
func TestVBoundMonotonicityProperty(t *testing.T) {
	f := func(nRaw, aRaw uint8) bool {
		n := int(nRaw)%50 + 2
		a := int(aRaw)%1000 + 2
		s := 10.0
		return VBound(s, n, a) >= VBound(s, n, a+1)-1e-12 &&
			VBound(s, n+1, a) >= VBound(s, n, a)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// VBound with the Zipf skew factor for the paper's AssocJoin configuration
// stays under 12% (the "worst case is only 12% worse than ideal" claim of
// §5.5).
func TestAssocJoinWorstUnder12Percent(t *testing.T) {
	v := VBound(zipf.SkewRatio(200, 1), 70, 20000)
	if v > 0.12 {
		t.Errorf("v = %v, paper bounds it at ~0.117 < 0.12", v)
	}
}

func TestStaticMakespanPinnedThreads(t *testing.T) {
	// Four fragments on two processors: {10,1} on proc 0, {1,10} on proc 1
	// round-robin => per-proc sums {11, 11}.
	if got := staticMakespan([]float64{10, 1, 1, 10}, 2); got != 11 {
		t.Errorf("makespan = %v, want 11", got)
	}
	// Degenerate processor count clamps to 1: serial sum.
	if got := staticMakespan([]float64{1, 2, 3}, 0); got != 6 {
		t.Errorf("serial makespan = %v", got)
	}
}

// The paper's core claim, quantified: under skew, DBS3's shared-queue pool
// (simulated list scheduling) beats the static thread-per-instance model,
// because the static model cannot rebalance fragments across threads.
func TestDBS3BeatsStaticModelUnderSkew(t *testing.T) {
	d, processors := 200, 20
	sizes := zipf.Sizes(100_000, d, 0.8)
	costs := make([]float64, d)
	for i, s := range sizes {
		costs[i] = float64(s)
	}
	static := staticMakespan(costs, processors)
	pool := Triggered(TriggeredSpec{Costs: costs, Threads: processors, Strategy: core.StrategyLPT}, Config{Processors: processors})
	if pool.Makespan >= static {
		t.Errorf("DBS3 pool (%v) should beat static model (%v) under skew", pool.Makespan, static)
	}
	// And the static model's makespan is at least the biggest per-processor
	// pile, which under Zipf 0.8 is well above the ideal.
	ideal := 100_000.0 / float64(processors)
	if static < ideal*1.2 {
		t.Errorf("static model suspiciously good: %v vs ideal %v", static, ideal)
	}
}

func TestStaticMakespanNeverBelowMaxCost(t *testing.T) {
	costs := []float64{5, 1, 1, 1, 1, 1}
	for p := 1; p <= 6; p++ {
		if m := staticMakespan(costs, p); m < 5-1e-12 {
			t.Errorf("p=%d: makespan %v below longest fragment", p, m)
		}
	}
	if m := staticMakespan(costs, 6); math.Abs(m-5) > 1e-12 {
		t.Errorf("with one thread per fragment, makespan = longest = 5, got %v", m)
	}
}

func TestFirstFitDecreasing(t *testing.T) {
	// Classic FFD: {7,6,5,4} on 2 processors -> {7,4} and {6,5}: makespan 11.
	if got := firstFitDecreasingMakespan([]float64{5, 7, 4, 6}, 2); got != 11 {
		t.Errorf("FFD makespan = %v, want 11", got)
	}
	// One processor: serial sum.
	if got := firstFitDecreasingMakespan([]float64{1, 2, 3}, 0); got != 6 {
		t.Errorf("serial FFD = %v", got)
	}
	// FFD beats (or ties) naive round-robin placement on skewed costs.
	sizes := zipf.Sizes(100_000, 200, 0.8)
	costs := make([]float64, len(sizes))
	for i, s := range sizes {
		costs[i] = float64(s)
	}
	rr := staticMakespan(costs, 20)
	ffd := firstFitDecreasingMakespan(costs, 20)
	if ffd > rr {
		t.Errorf("FFD (%v) should beat round-robin placement (%v)", ffd, rr)
	}
	// And DBS3's dynamic LPT pool matches FFD with exact costs (both are
	// LPT schedules) — the difference in practice is robustness to
	// estimation error, which static assignment lacks.
	pool := Triggered(TriggeredSpec{Costs: costs, Threads: 20, Strategy: core.StrategyLPT}, Config{Processors: 20})
	if pool.Makespan > ffd*1.01 {
		t.Errorf("pool LPT (%v) should match FFD (%v) under exact costs", pool.Makespan, ffd)
	}
}
