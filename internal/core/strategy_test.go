package core

import (
	"slices"
	"testing"
)

func queuesWithLens(lens ...int) []*Queue {
	qs := make([]*Queue, len(lens))
	for i, n := range lens {
		qs[i] = NewQueue(max(n, 1))
		for j := 0; j < n; j++ {
			qs[i].Push(tupleAct(int64(j)))
		}
	}
	return qs
}

func TestRandomPicksOnlyNonEmpty(t *testing.T) {
	qs := queuesWithLens(0, 3, 0, 2, 0)
	s := NewStrategy(StrategyRandom, newSplitMix(42))
	for i := 0; i < 100; i++ {
		k := s.pick(qs)
		if k != 1 && k != 3 {
			t.Fatalf("picked empty queue %d", k)
		}
	}
}

func TestRandomAllEmpty(t *testing.T) {
	qs := queuesWithLens(0, 0)
	if k := NewStrategy(StrategyRandom, newSplitMix(1)).pick(qs); k != -1 {
		t.Errorf("pick = %d, want -1", k)
	}
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	qs := queuesWithLens(1, 1, 1, 1)
	a, b := NewStrategy(StrategyRandom, newSplitMix(7)), NewStrategy(StrategyRandom, newSplitMix(7))
	for i := 0; i < 50; i++ {
		if a.pick(qs) != b.pick(qs) {
			t.Fatal("same seed diverged")
		}
	}
}

// TestSplitMixReference: an engine worker's source is splitmix64: seeded 0,
// it yields the reference generator's first three words, and Int63 is their
// top 63 bits. Seed(s) restarts a used source at newSplitMix(s)'s first word.
func TestSplitMixReference(t *testing.T) {
	s, s63 := newSplitMix(0), newSplitMix(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Errorf("word %d = %#x, want %#x", i, got, want)
		}
		if got := s63.Int63(); got != int64(want>>1) {
			t.Errorf("Int63 %d = %#x, want %#x", i, got, want>>1)
		}
	}
	for _, seed := range []int64{0, 7} {
		s.Seed(seed)
		if got, want := s.Uint64(), newSplitMix(seed).Uint64(); got != want {
			t.Errorf("after Seed(%d): word %#x, want newSplitMix(%d)'s first %#x", seed, got, seed, want)
		}
	}
}

func TestRandomCoversAllNonEmpty(t *testing.T) {
	qs := queuesWithLens(1, 1, 1)
	s := NewStrategy(StrategyRandom, newSplitMix(3))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[s.pick(qs)] = true
	}
	if len(seen) != 3 {
		t.Errorf("random strategy never visited some queues: %v", seen)
	}
}

func TestLPTPicksMostExpensive(t *testing.T) {
	qs := queuesWithLens(1, 1, 1)
	qs[0].SetEstimate(10)
	qs[1].SetEstimate(99)
	qs[2].SetEstimate(50)
	if k := (lptStrategy{}).pick(qs); k != 1 {
		t.Errorf("LPT picked %d, want 1", k)
	}
	// Drain queue 1; next pick is queue 2.
	qs[1].PopBatch(1, nil)
	if k := (lptStrategy{}).pick(qs); k != 2 {
		t.Errorf("LPT picked %d, want 2", k)
	}
}

func TestLPTAllEmpty(t *testing.T) {
	qs := queuesWithLens(0, 0, 0)
	if k := (lptStrategy{}).pick(qs); k != -1 {
		t.Errorf("pick = %d, want -1", k)
	}
}

// A non-empty queue whose score is 0 (per-tuple cost 0: a probe queue of an
// empty build fragment) is still work: LPT must pick it, not report -1.
func TestLPTPicksZeroScoreQueue(t *testing.T) {
	qs := queuesWithLens(0, 2, 0)
	qs[1].SetPerTupleCost(0)
	if k := (lptStrategy{}).pick(qs); k != 1 {
		t.Errorf("LPT picked %d, want 1", k)
	}
}

func TestLPTDynamicPipelinedScore(t *testing.T) {
	qs := queuesWithLens(3, 1)
	qs[0].SetPerTupleCost(1)
	qs[1].SetPerTupleCost(100)
	if k := (lptStrategy{}).pick(qs); k != 1 {
		t.Errorf("LPT should weight per-tuple cost, picked %d", k)
	}
}

func TestNewStrategyFactory(t *testing.T) {
	if _, ok := NewStrategy(StrategyLPT, newSplitMix(1)).(lptStrategy); !ok {
		t.Error("StrategyLPT should build lptStrategy")
	}
	if _, ok := NewStrategy(StrategyRandom, newSplitMix(1)).(*randomStrategy); !ok {
		t.Error("StrategyRandom should build randomStrategy")
	}
	if _, ok := NewStrategy(StrategyAuto, newSplitMix(1)).(*randomStrategy); !ok {
		t.Error("StrategyAuto should default to randomStrategy at pool level")
	}
}

// TestPickMainThenSecondary is the §3 consumption rule both the engine's
// workers and the simulator apply: a thread's own non-empty queue first, any
// other non-empty queue as a counted secondary pick, -1 when all are empty.
func TestPickMainThenSecondary(t *testing.T) {
	for _, c := range []struct {
		name          string
		lens          []int
		w, threads    int
		mains         []int // thread w's main queues
		wantQi        []int // any of these
		wantSecondary bool
	}{
		{"main wins over a longer secondary", []int{9, 1, 9, 0}, 1, 2, []int{1, 3}, []int{1}, false},
		{"either main queue", []int{1, 0, 1, 0, 1}, 0, 2, []int{0, 2, 4}, []int{0, 2, 4}, false},
		{"secondary when the mains are empty", []int{0, 3, 0, 0}, 0, 2, []int{0, 2}, []int{1}, true},
		{"all empty", []int{0, 0, 0}, 2, 3, []int{2}, []int{-1}, false},
		{"a thread beyond the queues owns no main", []int{2, 0}, 3, 4, nil, []int{0}, true},
	} {
		for _, kind := range []StrategyKind{StrategyRandom, StrategyLPT} {
			qs := queuesWithLens(c.lens...)
			main, mainIdx := MainQueues(qs, c.w, c.threads)
			if !slices.Equal(mainIdx, c.mains) {
				t.Fatalf("%s: MainQueues(w=%d, threads=%d) = %v, want %v", c.name, c.w, c.threads, mainIdx, c.mains)
			}
			for k, i := range mainIdx {
				if main[k] != qs[i] {
					t.Fatalf("%s: main queue %d is not queue %d", c.name, k, i)
				}
			}
			s := NewStrategy(kind, newSplitMix(5))
			for range 20 {
				qi, secondary := Pick(s, main, mainIdx, qs)
				if !slices.Contains(c.wantQi, qi) || secondary != c.wantSecondary {
					t.Errorf("%s, %v: Pick = (%d, %v), want one of %v and secondary %v", c.name, kind, qi, secondary, c.wantQi, c.wantSecondary)
				}
			}
		}
	}
}

// fillBetweenScans is a strategy that, after its first scan, pushes an
// activation into a queue, as a producer can between Pick's scan of the main
// queues and its scan of all of them.
type fillBetweenScans struct {
	Strategy
	fill  *Queue
	scans int
}

func (f *fillBetweenScans) pick(queues []*Queue) int {
	k := f.Strategy.pick(queues)
	if f.scans++; f.scans == 1 {
		f.fill.Push(tupleAct(1))
	}
	return k
}

// TestPickMainFilledBetweenScans: a main queue that a producer fills after
// Pick found the main queues empty is found by the second scan, and the pick
// is a main one, not a secondary: with one worker every queue is main, and
// no pick of it may ever count as load redistribution. The pick returns the
// queue's mainIdx entry also when all lists the queues in another order, as
// the simulator's list of non-empty queues does.
func TestPickMainFilledBetweenScans(t *testing.T) {
	for _, c := range []struct {
		name       string
		w, threads int
	}{
		{"one worker, every queue main", 0, 1},
		{"two workers, a main among others", 1, 2},
	} {
		for _, kind := range []StrategyKind{StrategyRandom, StrategyLPT} {
			for _, reversed := range []bool{false, true} {
				qs := queuesWithLens(0, 0, 0, 0)
				main, mainIdx := MainQueues(qs, c.w, c.threads)
				all := slices.Clone(qs)
				if reversed {
					slices.Reverse(all)
				}
				s := &fillBetweenScans{Strategy: NewStrategy(kind, newSplitMix(5)), fill: main[len(main)-1]}
				qi, secondary := Pick(s, main, mainIdx, all)
				if want := mainIdx[len(mainIdx)-1]; qi != want || secondary {
					t.Errorf("%s, %v, all reversed %v: Pick = (%d, %v), want (%d, false)", c.name, kind, reversed, qi, secondary, want)
				}
				if s.scans != 2 {
					t.Errorf("%s, %v: %d scans, want the main queues then all", c.name, kind, s.scans)
				}
			}
		}
	}
}

func TestStrategyKindString(t *testing.T) {
	cases := map[StrategyKind]string{
		StrategyAuto:     "auto",
		StrategyRandom:   "random",
		StrategyLPT:      "lpt",
		StrategyKind(99): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
