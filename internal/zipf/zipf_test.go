package zipf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHarmonicKnownValues(t *testing.T) {
	if got := Harmonic(4, 0); got != 4 {
		t.Errorf("H(4,0) = %v, want 4", got)
	}
	want := 1 + 0.5 + 1.0/3 + 0.25
	if got := Harmonic(4, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("H(4,1) = %v, want %v", got, want)
	}
}

func TestHarmonicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	Harmonic(0, 1)
}

func TestWeightsSumToOne(t *testing.T) {
	for _, theta := range []float64{0, 0.4, 0.6, 0.8, 1} {
		w := Weights(200, theta)
		var sum float64
		for _, p := range w {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("theta=%v: weights sum to %v", theta, sum)
		}
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1]+1e-15 {
				t.Fatalf("theta=%v: weights not non-increasing at %d", theta, i)
			}
		}
	}
}

func TestWeightsUniformAtZero(t *testing.T) {
	w := Weights(10, 0)
	for _, p := range w {
		if math.Abs(p-0.1) > 1e-12 {
			t.Fatalf("theta=0 weight = %v, want 0.1", p)
		}
	}
}

// The paper's anchor: with Zipf = 1 and 200 buckets, Pmax = 34 P.
func TestSkewRatioPaperAnchor(t *testing.T) {
	r := SkewRatio(200, 1)
	if math.Abs(r-34) > 0.1 {
		t.Errorf("SkewRatio(200,1) = %v, paper says 34", r)
	}
}

// The paper's nmax anchors (§5.5): nmax = a*P/Pmax = a/SkewRatio, reported
// as 6 (Zipf 1), 19 (0.6) and 40 (0.4) for a = 200. The exact values are
// 5.88, 18.88 and 38.96 — the paper rounds the last one loosely, so we
// assert agreement within one thread.
func TestNmaxPaperAnchors(t *testing.T) {
	cases := []struct {
		theta float64
		want  float64
	}{{1, 6}, {0.6, 19}, {0.4, 40}}
	for _, c := range cases {
		nmax := 200 / SkewRatio(200, c.theta)
		if math.Abs(math.Ceil(nmax)-c.want) > 1 {
			t.Errorf("theta=%v: nmax = %v, paper says %v", c.theta, nmax, c.want)
		}
	}
}

func TestSizesExactTotal(t *testing.T) {
	for _, theta := range []float64{0, 0.3, 0.6, 1} {
		for _, total := range []int{0, 1, 99, 100_000} {
			s := Sizes(total, 200, theta)
			sum := 0
			for _, v := range s {
				sum += v
			}
			if sum != total {
				t.Errorf("theta=%v total=%d: sizes sum to %d", theta, total, sum)
			}
		}
	}
}

func TestSizesUniformWhenNoSkew(t *testing.T) {
	s := Sizes(10_000, 200, 0)
	for i, v := range s {
		if v != 50 {
			t.Fatalf("fragment %d = %d, want 50", i, v)
		}
	}
}

func TestSizesMonotoneForSkew(t *testing.T) {
	s := Sizes(100_000, 200, 1)
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			t.Fatalf("sizes not non-increasing at %d: %d > %d", i, s[i], s[i-1])
		}
	}
	if s[0] <= s[len(s)-1] {
		t.Error("skewed sizes should differ between head and tail")
	}
}

// Property: Sizes always sums to total and every bucket is non-negative.
func TestSizesProperty(t *testing.T) {
	f := func(totRaw uint16, nRaw uint8, thetaRaw uint8) bool {
		total := int(totRaw)
		n := int(nRaw%100) + 1
		theta := float64(thetaRaw%101) / 100
		s := Sizes(total, n, theta)
		sum := 0
		for _, v := range s {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
