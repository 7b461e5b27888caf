// Package baseline implements the two execution models the paper positions
// DBS3 against (§1):
//
//   - ThreadPerInstance: the conventional static model (Gamma, Bubba,
//     Volcano and most products), where the degree of parallelism is
//     dictated by the degree of partitioning — one execution thread per
//     operator instance, no queue sharing, so skewed fragments directly
//     stretch the response time and start-up grows with d.
//   - DynamicJoin: the dynamic model (XPRS, Oracle), where relations are
//     not stored with a parallel storage model; workers grab pages of both
//     relations from shared counters (the interference point) and join
//     through a shared hash table.
//
// Both are full executors over the same data model, used by the ablation
// benches to quantify what DBS3's hybrid model buys.
package baseline

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dbs3/internal/partition"
	"dbs3/internal/relation"
)

// joinFragments nested-loop joins one co-located fragment pair.
func joinFragments(build, probe []relation.Tuple, buildKey, probeKey int, out *[]relation.Tuple) {
	for _, p := range probe {
		for _, b := range build {
			if b[buildKey].Equal(p[probeKey]) {
				*out = append(*out, append(append(make(relation.Tuple, 0, len(b)+len(p)), b...), p...))
			}
		}
	}
}

// ThreadPerInstanceJoin executes a co-partitioned equi-join with the static
// model: exactly one goroutine per fragment pair, each bound to its own
// fragment (no work sharing). The result schema concatenates build and probe
// columns like the DBS3 join.
func ThreadPerInstanceJoin(build, probe *partition.Partitioned, buildKey, probeKey string) (*partition.Partitioned, error) {
	if build.Degree() != probe.Degree() {
		return nil, fmt.Errorf("baseline: degrees differ (%d vs %d)", build.Degree(), probe.Degree())
	}
	bi, ok := build.Schema.Index(buildKey)
	if !ok {
		return nil, fmt.Errorf("baseline: no column %q in %s", buildKey, build.Schema)
	}
	pi, ok := probe.Schema.Index(probeKey)
	if !ok {
		return nil, fmt.Errorf("baseline: no column %q in %s", probeKey, probe.Schema)
	}
	d := build.Degree()
	results := make([][]relation.Tuple, d)
	var wg sync.WaitGroup
	for i := 0; i < d; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			joinFragments(build.Fragments[i], probe.Fragments[i], bi, pi, &results[i])
		}(i)
	}
	wg.Wait()
	schema := build.Schema.Concat(probe.Schema, build.Name+".", probe.Name+".")
	return partition.FromFragments("Res", schema, nil, results, 1)
}

// StaticMakespan is the virtual-time response of the static model for
// per-fragment costs: each instance runs on its own thread, threads are
// placed round-robin on processors, and a processor serializes its threads.
// Without queue sharing the longest processor queue is the response time —
// this is the curve the ablation benches compare against the DBS3 pool
// model.
func StaticMakespan(costs []float64, processors int) float64 {
	if processors < 1 {
		processors = 1
	}
	perProc := make([]float64, processors)
	for i, c := range costs {
		perProc[i%processors] += c
	}
	max := 0.0
	for _, v := range perProc {
		if v > max {
			max = v
		}
	}
	return max
}

// FirstFitDecreasingMakespan is the bucket-to-processor assignment of
// [Omiecinski91], the shared-memory skew handling §4 contrasts with: buckets
// are sorted by decreasing cost and each is placed on the currently
// least-loaded processor, *statically*, before execution. Unlike DBS3's
// shared queues the assignment cannot react to estimation error at run time,
// but with exact costs it equals LPT list scheduling — the ablation benches
// compare both against the naive round-robin static model.
func FirstFitDecreasingMakespan(costs []float64, processors int) float64 {
	if processors < 1 {
		processors = 1
	}
	sorted := append([]float64(nil), costs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	load := make([]float64, processors)
	for _, c := range sorted {
		min := 0
		for i := 1; i < processors; i++ {
			if load[i] < load[min] {
				min = i
			}
		}
		load[min] += c
	}
	max := 0.0
	for _, v := range load {
		if v > max {
			max = v
		}
	}
	return max
}

// DynamicJoin executes an equi-join in the dynamic page-based model: both
// relations live as unpartitioned page lists; `threads` workers first drain
// a shared build-page counter to populate a shared (sharded) hash table,
// then drain a shared probe-page counter probing it. Every worker touches
// the same shared structures — the interference the paper's hybrid model
// avoids by static partitioning.
type DynamicJoin struct {
	PageSize int
	Threads  int
}

// shardCount for the shared hash table; small on purpose so contention is
// measurable in benches.
const shardCount = 16

type hashShard struct {
	mu sync.Mutex
	m  map[string][]relation.Tuple
}

// Run executes the join and returns the result relation.
func (dj DynamicJoin) Run(build, probe *relation.Relation, buildKey, probeKey string) (*relation.Relation, error) {
	bi, ok := build.Schema.Index(buildKey)
	if !ok {
		return nil, fmt.Errorf("baseline: no column %q in %s", buildKey, build.Schema)
	}
	pi, ok := probe.Schema.Index(probeKey)
	if !ok {
		return nil, fmt.Errorf("baseline: no column %q in %s", probeKey, probe.Schema)
	}
	pageSize := dj.PageSize
	if pageSize <= 0 {
		pageSize = 64
	}
	threads := dj.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}

	shards := make([]*hashShard, shardCount)
	for i := range shards {
		shards[i] = &hashShard{m: make(map[string][]relation.Tuple)}
	}
	shardOf := func(v relation.Value) *hashShard { return shards[v.Hash()%shardCount] }

	// Build phase: workers grab pages from a shared counter.
	var buildCursor atomic.Int64
	pages := func(n int) int { return (n + pageSize - 1) / pageSize }
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(buildCursor.Add(1)) - 1
				if p >= pages(len(build.Tuples)) {
					return
				}
				lo, hi := p*pageSize, (p+1)*pageSize
				if hi > len(build.Tuples) {
					hi = len(build.Tuples)
				}
				for _, t := range build.Tuples[lo:hi] {
					sh := shardOf(t[bi])
					k := relation.Tuple{t[bi]}.Key()
					sh.mu.Lock()
					sh.m[k] = append(sh.m[k], t)
					sh.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Probe phase: same shared-counter pattern.
	var probeCursor atomic.Int64
	results := make([][]relation.Tuple, threads)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				p := int(probeCursor.Add(1)) - 1
				if p >= pages(len(probe.Tuples)) {
					return
				}
				lo, hi := p*pageSize, (p+1)*pageSize
				if hi > len(probe.Tuples) {
					hi = len(probe.Tuples)
				}
				for _, t := range probe.Tuples[lo:hi] {
					sh := shardOf(t[pi])
					k := relation.Tuple{t[pi]}.Key()
					sh.mu.Lock()
					matches := sh.m[k]
					sh.mu.Unlock()
					for _, b := range matches {
						results[w] = append(results[w], append(append(make(relation.Tuple, 0, len(b)+len(t)), b...), t...))
					}
				}
			}
		}(w)
	}
	wg.Wait()

	schema := build.Schema.Concat(probe.Schema, build.Name+".", probe.Name+".")
	out := relation.New("Res", schema)
	for _, rs := range results {
		out.Tuples = append(out.Tuples, rs...)
	}
	return out, nil
}
