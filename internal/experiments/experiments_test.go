package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"strings"
	"testing"
)

// These tests pin the paper's qualitative claims — who wins, by what factor,
// where the crossovers fall — for every reproduced figure. Absolute numbers
// are calibration-dependent; shapes are the reproduction target.

func TestFig8RemoteAboveLocalAndDecreasing(t *testing.T) {
	f := Fig8()
	remote, local := f.Find("Remote execution"), f.Find("Local execution")
	if remote == nil || local == nil {
		t.Fatal("missing series")
	}
	for i := range remote.Points {
		r, l := remote.Points[i].Y, local.Points[i].Y
		if r < l {
			t.Errorf("n=%v: remote %v below local %v", remote.Points[i].X, r, l)
		}
		// The paper reports the remote overhead at ~4% of execution time.
		if pct := (r - l) / r; pct < 0.02 || pct > 0.07 {
			t.Errorf("n=%v: overhead %.1f%%, paper says ~4%%", remote.Points[i].X, pct*100)
		}
		if i > 0 && remote.Points[i].Y > remote.Points[i-1].Y {
			t.Errorf("remote time increased with threads at n=%v", remote.Points[i].X)
		}
	}
}

func TestFig9DeltaDecreasesWithThreads(t *testing.T) {
	f := Fig9()
	s := f.Series[0]
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y > s.Points[i-1].Y+1e-9 {
			t.Errorf("Tr-Tl grew from n=%v to n=%v", s.Points[i-1].X, s.Points[i].X)
		}
	}
	// Roughly 4x shrink from 5 to 30 threads (remote fetches parallelize).
	first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
	if first/last < 3 {
		t.Errorf("Tr-Tl shrank only %vx across the sweep", first/last)
	}
}

func TestFig12AssocJoinInsensitiveToSkew(t *testing.T) {
	f := Fig12()
	measured := f.Find("Measured execution time (Random)")
	tworst := f.Find("Tworst")
	base := measured.Points[0].Y
	for i, p := range measured.Points {
		// The paper: "The execution time measured is constant whatever the
		// skew" — allow 3% wiggle.
		if dev := math.Abs(p.Y-base) / base; dev > 0.03 {
			t.Errorf("theta=%v: measured deviates %.1f%% from flat", p.X, dev*100)
		}
		// Tworst must upper-bound the measurement, within measurement noise.
		if p.Y > tworst.Points[i].Y*1.005 {
			t.Errorf("theta=%v: measured %v above Tworst %v", p.X, p.Y, tworst.Points[i].Y)
		}
	}
	// "Even in the worst case, the maximum deviation is small (3%)".
	worstDev := 0.0
	for _, p := range tworst.Points {
		if dev := (p.Y - base) / base; dev > worstDev {
			worstDev = dev
		}
	}
	if worstDev > 0.035 {
		t.Errorf("Tworst deviates %.1f%% from base, paper says ~3%%", worstDev*100)
	}
}

func TestFig13LPTBeatsRandomUnderSkew(t *testing.T) {
	f := Fig13()
	random, lpt, tworst := f.Find("Random consumption strategy"), f.Find("LPT consumption strategy"), f.Find("Tworst")
	ideal := lpt.Points[0].Y
	for i := range random.Points {
		theta := random.Points[i].X
		if lpt.Points[i].Y > random.Points[i].Y+1e-9 {
			t.Errorf("theta=%v: LPT %v worse than Random %v", theta, lpt.Points[i].Y, random.Points[i].Y)
		}
		if random.Points[i].Y > tworst.Points[i].Y*1.005 {
			t.Errorf("theta=%v: Random above Tworst", theta)
		}
		// "LPT ... remains insensitive to skew up to a skew factor of 0.8
		// (less than 2% overhead with respect to the ideal time)".
		if theta <= 0.8 {
			if dev := lpt.Points[i].Y/ideal - 1; dev > 0.02 {
				t.Errorf("theta=%v: LPT deviates %.1f%% from ideal, paper says <2%%", theta, dev*100)
			}
		}
	}
	// "The inflection after 0.8" — at Zipf 1 the longest activation bounds
	// the time well above ideal.
	lptAt1, _ := lpt.Y(1)
	if lptAt1 < ideal*1.4 {
		t.Errorf("no inflection: LPT at Zipf 1 = %v vs ideal %v", lptAt1, ideal)
	}
	// Random at Zipf 1 lands roughly at the paper's ~2.2x ideal.
	randAt1, _ := random.Y(1)
	if randAt1 < ideal*1.6 {
		t.Errorf("Random at Zipf 1 = %v, expected heavy degradation", randAt1)
	}
}

func TestFig14AssocJoinSpeedup(t *testing.T) {
	f := Fig14()
	un, sk := f.Find("Unskewed data"), f.Find("Skewed data (Zipf = 1)")
	// ">60 with 70 processors".
	u70, _ := un.Y(70)
	if u70 < 60 {
		t.Errorf("unskewed speed-up at 70 = %v, paper reports > 60", u70)
	}
	// Skew costs at most the analytical 11.7% (measured < 5% in the paper;
	// the simulator's pipeline stays within the bound).
	for i := range un.Points {
		ratio := un.Points[i].Y / sk.Points[i].Y
		if ratio > 1.125 {
			t.Errorf("n=%v: skew cost %.1f%%, bound is 11.7%%", un.Points[i].X, (ratio-1)*100)
		}
	}
	// "Speed-up is decreasing after 70".
	u100, _ := un.Y(100)
	if u100 >= u70 {
		t.Errorf("speed-up should decline past 70 processors: %v at 100 vs %v at 70", u100, u70)
	}
}

func TestFig15IdealJoinCeilings(t *testing.T) {
	f := Fig15()
	ceilings := []struct {
		series string
		nmax   float64
	}{
		{"Zipf = 0.4", 40},
		{"Zipf = 0.6", 19},
		{"Zipf = 1", 6},
	}
	for _, c := range ceilings {
		s := f.Find(c.series)
		if s == nil {
			t.Fatalf("missing series %q", c.series)
		}
		peak := 0.0
		for _, p := range s.Points {
			if p.Y > peak {
				peak = p.Y
			}
		}
		// The ceiling is nmax (a small tolerance for rounding): "the
		// speed-up reaches a ceiling ... nmax = 6 with Zipf = 1, 19 with
		// 0.6 and 40 with 0.4".
		if peak > c.nmax+1 {
			t.Errorf("%s: peak speed-up %v exceeds nmax %v", c.series, peak, c.nmax)
		}
		if peak < c.nmax*0.85 {
			t.Errorf("%s: peak speed-up %v never approaches nmax %v", c.series, peak, c.nmax)
		}
		// Past the ceiling the curve must not keep climbing: compare the
		// value at 100 threads with the peak.
		at100, _ := s.Y(100)
		if at100 > peak {
			t.Errorf("%s: still climbing at 100 threads", c.series)
		}
	}
	un := f.Find("Unskewed data")
	u70, _ := un.Y(70)
	if u70 < 60 {
		t.Errorf("unskewed speed-up at 70 = %v, paper reports > 60", u70)
	}
}

func TestFig16OverheadSlopes(t *testing.T) {
	f := Fig16()
	slope := func(s *Series, x1, x2 float64) float64 {
		y1, ok1 := s.Y(x1)
		y2, ok2 := s.Y(x2)
		if !ok1 || !ok2 {
			t.Fatalf("missing points at %v/%v", x1, x2)
		}
		return (y2 - y1) / (x2 - x1)
	}
	// "0.45 ms/degree for IdealJoin and 4 ms/degree for AssocJoin". Measure
	// the secant over the d-multiples of 20 (no quantization noise).
	ideal := slope(f.Find("Overhead for IdealJoin"), 100, 1500)
	if ideal < 0.45e-3*0.5 || ideal > 0.45e-3*1.6 {
		t.Errorf("IdealJoin overhead slope = %.3g s/degree, paper says 0.45 ms", ideal)
	}
	assoc := slope(f.Find("Overhead for AssocJoin"), 100, 1500)
	if assoc < 4e-3*0.6 || assoc > 4e-3*1.5 {
		t.Errorf("AssocJoin overhead slope = %.3g s/degree, paper says 4 ms", assoc)
	}
	if assoc < 4*ideal {
		t.Errorf("AssocJoin slope %.3g should dwarf IdealJoin slope %.3g", assoc, ideal)
	}
}

func TestFig17MinimaWhereOverheadDominates(t *testing.T) {
	f := Fig17()
	argmin := func(s *Series) float64 {
		best, bestY := 0.0, math.Inf(1)
		for _, p := range s.Points {
			if p.Y < bestY {
				best, bestY = p.X, p.Y
			}
		}
		return best
	}
	// "The overhead dominates the gain when d > 1000 for AssocJoin and
	// d > 1400 for IdealJoin."
	assocMin := argmin(f.Find("AssocJoin execution time"))
	idealMin := argmin(f.Find("IdealJoin execution time"))
	if assocMin < 500 || assocMin > 1250 {
		t.Errorf("AssocJoin minimum at d=%v, paper says ~1000", assocMin)
	}
	if idealMin < 1250 {
		t.Errorf("IdealJoin minimum at d=%v, paper says ~1400", idealMin)
	}
	if assocMin >= idealMin {
		t.Errorf("AssocJoin minimum (d=%v) must precede IdealJoin's (d=%v)", assocMin, idealMin)
	}
	// Execution times stay in the paper's band (4-12 s axis, small
	// calibration slack).
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Y < 3 || p.Y > 16 {
				t.Errorf("%s at d=%v: %v s outside the expected band", s.Name, p.X, p.Y)
			}
		}
	}
}

func TestFig18SkewOverheadFallsWithPartitioning(t *testing.T) {
	f := Fig18()
	nl, idx, worst := f.Find("Ideal Join (nested loop)"), f.Find("Ideal Join (temp. index)"), f.Find("vworst")
	for i := range nl.Points {
		d := nl.Points[i].X
		// Measurements must respect the analytical bound.
		if nl.Points[i].Y > worst.Points[i].Y+0.02 {
			t.Errorf("d=%v: nested-loop v %v above vworst %v", d, nl.Points[i].Y, worst.Points[i].Y)
		}
		if idx.Points[i].Y > worst.Points[i].Y+0.02 {
			t.Errorf("d=%v: temp-index v %v above vworst %v", d, idx.Points[i].Y, worst.Points[i].Y)
		}
		// "The two curves are almost identical ... independent of the join
		// algorithm."
		if math.Abs(nl.Points[i].Y-idx.Points[i].Y) > 0.35 {
			t.Errorf("d=%v: algorithms diverge (nl=%v idx=%v)", d, nl.Points[i].Y, idx.Points[i].Y)
		}
	}
	// High partitioning defeats the skew: v at d=20 is large, v at d>=500
	// is small.
	first, _ := nl.Y(20)
	late, _ := nl.Y(500)
	if first < 1 {
		t.Errorf("v at d=20 = %v; triggered skew penalty should be severe", first)
	}
	if late > 0.1 {
		t.Errorf("v at d=500 = %v; high partitioning should absorb the skew", late)
	}
	// vworst itself decreases in d.
	for i := 1; i < len(worst.Points); i++ {
		if worst.Points[i].Y > worst.Points[i-1].Y {
			t.Errorf("vworst not decreasing at d=%v", worst.Points[i].X)
		}
	}
}

func TestFig19SavedTimeGrows(t *testing.T) {
	f := Fig19()
	saved := f.Find("Saved time, Ideal Join (temp. index)")
	t0 := f.Find("T0 (unskewed execution time)")
	if saved.Points[0].Y != 0 {
		t.Errorf("saved time at the base degree = %v, want 0", saved.Points[0].Y)
	}
	for i := 1; i < len(saved.Points); i++ {
		if saved.Points[i].Y < saved.Points[i-1].Y-0.3 {
			t.Errorf("saved time fell at d=%v", saved.Points[i].X)
		}
	}
	final := saved.Points[len(saved.Points)-1].Y
	if final < 3 {
		t.Errorf("final saved time = %v s, paper saves several seconds", final)
	}
	// T0 is a constant reference near the paper's 7.34 s.
	for _, p := range t0.Points {
		if p.Y != t0.Points[0].Y {
			t.Error("T0 reference must be constant")
		}
	}
	if t0.Points[0].Y < 4 || t0.Points[0].Y > 11 {
		t.Errorf("T0 = %v, paper reports 7.34 s", t0.Points[0].Y)
	}
}

func TestAllAndByID(t *testing.T) {
	figs := All()
	if len(figs) != 11 {
		t.Fatalf("All returned %d figures", len(figs))
	}
	for _, f := range figs {
		id := strings.TrimPrefix(f.ID, "fig")
		got, err := ByID(id)
		if err != nil {
			t.Errorf("ByID(%s): %v", id, err)
			continue
		}
		if got.ID != f.ID {
			t.Errorf("ByID(%s) = %s", id, got.ID)
		}
		if len(f.Series) == 0 {
			t.Errorf("%s has no series", f.ID)
		}
		table := f.Table()
		if !strings.Contains(table, f.ID) {
			t.Errorf("%s table missing id header", f.ID)
		}
	}
	if _, err := ByID("99"); err == nil {
		t.Error("unknown figure accepted")
	}
	if got := figureDigest(figs); got != figureDigestWant {
		t.Errorf("figure digest = %s, want %s: a figure value moved", got, figureDigestWant)
	}
}

// figureDigestWant pins every point of every figure bit for bit. The shape
// tests above check who wins and where curves cross; this catches a
// refactor that moves any number at all. Update it only with a change that
// means to move a figure, and say which one.
const figureDigestWant = "19b86d18306f7c7b5cc2bbe17e1be119c7cadb317ef309dbddbeef0b856f9b01"

// figureDigest hashes every figure's id, series names and the exact bits of
// every point.
func figureDigest(figs []*Figure) string {
	h := sha256.New()
	var buf [8]byte
	for _, f := range figs {
		io.WriteString(h, f.ID)
		for _, s := range f.Series {
			io.WriteString(h, s.Name)
			for _, p := range s.Points {
				for _, v := range [2]float64{p.X, p.Y} {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{1, 10}, {2, 20}}}
	if y, ok := s.Y(2); !ok || y != 20 {
		t.Errorf("Y(2) = %v,%v", y, ok)
	}
	if _, ok := s.Y(3); ok {
		t.Error("Y(3) should miss")
	}
	f := &Figure{Series: []Series{s}}
	if f.Find("x") == nil || f.Find("nope") != nil {
		t.Error("Find broken")
	}
}

// The §6 future-work extension: finer trigger grains lift the skewed
// triggered join's speed-up ceiling far above nmax ~ 6.
func TestExtGrainLiftsSkewCeiling(t *testing.T) {
	f := ExtGrain()
	peak := func(name string) float64 {
		s := f.Find(name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		best := 0.0
		for _, p := range s.Points {
			if p.Y > best {
				best = p.Y
			}
		}
		return best
	}
	whole := peak("Whole-fragment triggers (paper)")
	g20 := peak("Grain = 20 probe tuples")
	g2 := peak("Grain = 2 probe tuples")
	if whole > 7 {
		t.Errorf("whole-fragment ceiling = %v, expected ~nmax 6", whole)
	}
	if g20 < 3*whole {
		t.Errorf("grain 20 ceiling = %v, expected several times the whole-fragment %v", g20, whole)
	}
	if g2 < g20 {
		t.Errorf("finer grain should not hurt: g2=%v g20=%v", g2, g20)
	}
	if g2 < 40 {
		t.Errorf("grain 2 ceiling = %v, expected near-linear scaling", g2)
	}
}
