package sim

import (
	"math"
	"testing"
)

func TestKSR1Constants(t *testing.T) {
	m := KSR1()
	if m.UsableProcessors != 70 {
		t.Errorf("usable processors = %d, paper reserves 70 of 72", m.UsableProcessors)
	}
	if m.RemoteFactor != 6 {
		t.Errorf("remote factor = %v, paper says 6x", m.RemoteFactor)
	}
}

func TestLinesFor(t *testing.T) {
	m := KSR1()
	cases := []struct{ bytes, want int }{
		{0, 0}, {-1, 0}, {1, 1}, {128, 1}, {129, 2}, {208, 2}, {256, 2}, {257, 3},
	}
	for _, c := range cases {
		if got := m.linesFor(c.bytes); got != c.want {
			t.Errorf("linesFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestRemoteExtraScalesWithFactor(t *testing.T) {
	m := KSR1()
	base := m.remoteExtra(208) // a Wisconsin tuple spans 2 lines
	want := 2 * m.LocalLineAccess * 5
	if math.Abs(base-want) > 1e-12 {
		t.Errorf("remoteExtra(208) = %v, want %v", base, want)
	}
	m.RemoteFactor = 1 // no remote penalty
	if m.remoteExtra(208) != 0 {
		t.Error("factor 1 should cost nothing extra")
	}
}

func TestLocalResidentThreshold(t *testing.T) {
	m := KSR1()
	// The paper's 200K-tuple selection (~41.6 MB of tuples): local
	// execution obtainable from 5 threads up, not with fewer.
	relBytes := int64(200_000 * 208)
	for n := int64(1); n <= 30; n++ {
		resident := m.localResident(relBytes / n)
		if n < 5 && resident {
			t.Errorf("n=%d: unexpectedly local-resident", n)
		}
		if n >= 5 && !resident {
			t.Errorf("n=%d: should be local-resident", n)
		}
	}
}

func TestLocalityPenaltyMonotone(t *testing.T) {
	m := KSR1()
	if p := m.localityPenalty(50 << 10); p != 0 {
		t.Errorf("small fragment penalty = %v", p)
	}
	small := m.localityPenalty(200 << 10)
	big := m.localityPenalty(2 << 20)
	if !(small > 0 && big > small && big < 1) {
		t.Errorf("penalties: 200KB=%v 2MB=%v; want increasing in (0,1)", small, big)
	}
}
