package dbs3

import (
	"math"
	"testing"
)

func TestPredictIdealJoinShapes(t *testing.T) {
	// Skew hurts Random on the triggered join.
	flat, err := PredictIdealJoin(100_000, 10_000, 200, 10, 0, "random")
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := PredictIdealJoin(100_000, 10_000, 200, 10, 1, "random")
	if err != nil {
		t.Fatal(err)
	}
	if skewed < flat*1.5 {
		t.Errorf("Zipf 1 Random (%v) should be much slower than unskewed (%v)", skewed, flat)
	}
	// LPT rescues it.
	lpt, err := PredictIdealJoin(100_000, 10_000, 200, 10, 1, "lpt")
	if err != nil {
		t.Fatal(err)
	}
	if lpt > skewed {
		t.Errorf("LPT (%v) should beat Random (%v) under skew", lpt, skewed)
	}
}

// TestPredictIdealJoinGolden pins the triggered simulator's schedule: any
// change to its pick order, random stream or charging shows up as a value
// that is no longer bit-identical.
func TestPredictIdealJoinGolden(t *testing.T) {
	for _, c := range []struct {
		strategy string
		theta    float64
		threads  int
		want     float64
	}{
		{"random", 0, 1, 239.60499999999936},
		{"random", 0, 2, 119.8700000000002},
		{"random", 0, 8, 30.14750000000002},
		{"random", 0, 70, 4.7325},
		{"random", 1, 1, 239.60500000000002},
		{"random", 1, 2, 120.32179000000001},
		{"random", 1, 8, 51.47954000000001},
		{"random", 1, 70, 42.37728},
		{"lpt", 0, 1, 239.60499999999936},
		{"lpt", 0, 2, 119.8700000000002},
		{"lpt", 0, 8, 30.14750000000002},
		{"lpt", 0, 70, 4.7325},
		{"lpt", 1, 1, 239.605},
		{"lpt", 1, 2, 119.97217000000002},
		{"lpt", 1, 8, 40.87118},
		{"lpt", 1, 70, 41.80118},
	} {
		got, err := PredictIdealJoin(100_000, 10_000, 200, c.threads, c.theta, c.strategy)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("PredictIdealJoin(%s, theta %v, %d threads) = %v, want %v", c.strategy, c.theta, c.threads, got, c.want)
		}
	}
}

// TestPredictAssocJoinGolden pins the pipelined simulator's schedule the same
// way, LPT included: no figure runs a pipeline under LPT.
func TestPredictAssocJoinGolden(t *testing.T) {
	for _, c := range []struct {
		strategy string
		theta    float64
		threads  int
		want     float64
	}{
		{"random", 0, 1, 252.3150000000658},
		{"random", 0, 2, 240.33120000005894},
		{"random", 0, 8, 35.14934999999922},
		{"random", 0, 70, 5.893950000000004},
		{"random", 1, 1, 252.31500000000213},
		{"random", 1, 2, 240.331200000004},
		{"random", 1, 8, 35.46802979999997},
		{"random", 1, 70, 6.5033334000000025},
		{"lpt", 0, 1, 252.3150000000658},
		{"lpt", 0, 2, 240.33120000005894},
		{"lpt", 0, 8, 35.14934999999922},
		{"lpt", 0, 70, 5.893950000000004},
		{"lpt", 1, 1, 252.31500000000213},
		{"lpt", 1, 2, 240.3312000000109},
		{"lpt", 1, 8, 35.141162},
		{"lpt", 1, 70, 7.788779000000002},
	} {
		got, err := PredictAssocJoin(100_000, 10_000, 200, c.threads, c.theta, c.strategy)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("PredictAssocJoin(%s, theta %v, %d threads) = %v, want %v", c.strategy, c.theta, c.threads, got, c.want)
		}
	}
}

func TestPredictAssocJoinInsensitiveToSkew(t *testing.T) {
	flat, err := PredictAssocJoin(100_000, 10_000, 200, 10, 0, "random")
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := PredictAssocJoin(100_000, 10_000, 200, 10, 1, "random")
	if err != nil {
		t.Fatal(err)
	}
	if dev := skewed/flat - 1; dev > 0.05 {
		t.Errorf("pipelined join should absorb skew: %v vs %v (%.1f%%)", skewed, flat, dev*100)
	}
}

func TestPredictSpeedup(t *testing.T) {
	seq, err := PredictAssocJoin(200_000, 20_000, 200, 1, 0, "random")
	if err != nil {
		t.Fatal(err)
	}
	par, err := PredictAssocJoin(200_000, 20_000, 200, 70, 0, "random")
	if err != nil {
		t.Fatal(err)
	}
	if s := seq / par; s < 55 {
		t.Errorf("70-thread speed-up = %v, want near the paper's >60", s)
	}
}

func TestPredictValidation(t *testing.T) {
	predictors := map[string]func(aCard, bCard, d, threads int, theta float64, strategy string) (float64, error){
		"PredictIdealJoin": PredictIdealJoin, "PredictAssocJoin": PredictAssocJoin,
	}
	for _, c := range []struct {
		name                     string
		aCard, bCard, d, threads int
		theta                    float64
		strategy                 string
	}{
		{"zero cardinality", 0, 1, 1, 1, 0, "random"},
		{"zero threads", 10, 10, 2, 0, 0, "random"},
		{"bad strategy", 10, 10, 2, 1, 0, "bogus"},
		{"negative theta", 1000, 100, 10, 2, -1, "random"},
		{"NaN theta", 1000, 100, 10, 2, math.NaN(), "random"},
	} {
		for name, predict := range predictors {
			if _, err := predict(c.aCard, c.bCard, c.d, c.threads, c.theta, c.strategy); err == nil {
				t.Errorf("%s: %s accepted", name, c.name)
			}
		}
	}
}
