package core

import (
	"math/rand"
	"slices"
)

// StrategyKind selects the consumption strategy of an operation's thread
// pool (§3 step 4). Main queues are always preferred; the strategy decides
// among non-empty secondary queues.
type StrategyKind int

const (
	// StrategyAuto lets the scheduler pick: LPT for triggered operations on
	// skewed fragments, Random otherwise.
	StrategyAuto StrategyKind = iota
	// StrategyRandom picks a random non-empty queue — the paper's default.
	StrategyRandom
	// StrategyLPT (Longest Processing Time first [Graham69]) picks the
	// non-empty queue with the most expensive remaining work; the paper's
	// answer to skew on triggered operations.
	StrategyLPT
)

// String names the strategy.
func (s StrategyKind) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyRandom:
		return "random"
	case StrategyLPT:
		return "lpt"
	default:
		return "unknown"
	}
}

// Strategy picks a queue index among the non-empty ones; -1 when all empty.
// Implementations need not be goroutine-safe: each engine worker owns one,
// and the simulator (package sim) shares one per run on its single
// goroutine.
type Strategy interface {
	pick(queues []*Queue) int
}

// randomStrategy is the paper's default: a uniformly random non-empty queue.
type randomStrategy struct {
	rng *rand.Rand
	idx []int
}

// splitMix is the one-word splitmix64 generator [Steele14], a rand.Source64
// for engine workers: seeding it stores a word, where rand.NewSource seeds
// 607 of them, and every pool worker of every execution seeds one.
type splitMix struct{ x uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{uint64(seed)} }

func (s *splitMix) Seed(seed int64) { s.x = uint64(seed) }

func (s *splitMix) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (r *randomStrategy) pick(queues []*Queue) int {
	r.idx = r.idx[:0]
	for i, q := range queues {
		if q.Len() > 0 {
			r.idx = append(r.idx, i)
		}
	}
	if len(r.idx) == 0 {
		return -1
	}
	return r.idx[r.rng.Intn(len(r.idx))]
}

// lptStrategy picks the non-empty queue with the highest remaining cost.
// The paper implements LPT without estimating each activation's execution
// time: operation instances are ranked by static fragment-size information,
// which is exactly what Queue.lptScore exposes. A non-empty queue scoring 0
// (per-tuple cost 0) still has to be picked, so the scan starts below 0.
type lptStrategy struct{}

func (lptStrategy) pick(queues []*Queue) int {
	best, bestScore := -1, -1.0
	for i, q := range queues {
		n := q.Len()
		if n == 0 {
			continue
		}
		if s := q.lptScore(n); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// NewStrategy builds the strategy of the given kind; StrategyAuto, resolved
// per operation by the scheduler, falls back to Random here. The Random
// strategy draws from src, which the caller supplies: the simulator a
// rand.NewSource, whose stream the figures are computed from, and engine
// workers a cheap splitMix; LPT ignores it.
func NewStrategy(kind StrategyKind, src rand.Source) Strategy {
	if kind == StrategyLPT {
		return lptStrategy{}
	}
	return &randomStrategy{rng: rand.New(src)}
}

// MainQueues returns thread w's main queues and their indices in all: queue
// i is main for thread i % threads, so every queue is the main queue of
// exactly one thread but a thread may own several, or none when threads
// outnumber queues (§3: "each queue is the main queue of only one thread but
// each thread can have several main queues").
func MainQueues(all []*Queue, w, threads int) (main []*Queue, mainIdx []int) {
	for i := w; i < len(all); i += threads {
		main = append(main, all[i])
		mainIdx = append(mainIdx, i)
	}
	return main, mainIdx
}

// Pick is the §3 consumption rule, shared by the engine's workers and the
// simulator: a non-empty main queue first, chosen by s; otherwise s chooses
// among all non-empty queues and secondary reports the load redistribution.
// A main pick returns its mainIdx entry, a secondary pick its index in all;
// qi is -1 when every queue is empty. The second scan may land on a main
// queue a producer filled after the first one looked: that pick is still a
// main one.
func Pick(s Strategy, main []*Queue, mainIdx []int, all []*Queue) (qi int, secondary bool) {
	if k := s.pick(main); k >= 0 {
		return mainIdx[k], false
	}
	if k := s.pick(all); k >= 0 {
		if j := slices.Index(main, all[k]); j >= 0 {
			return mainIdx[j], false
		}
		return k, true
	}
	return -1, false
}
