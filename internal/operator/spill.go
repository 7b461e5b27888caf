package operator

import (
	"sort"
	"sync"
	"sync/atomic"

	"dbs3/internal/relation"
	"dbs3/internal/storage"
)

// Larger-than-memory execution for the blocking operators. Each spilling
// operator shares the query's storage.SpillEnv: one accountant enforcing the
// admission-granted memory budget, one temp-file set, one read-back buffer
// pool. The accountant never blocks — exceeding the grant means "go to
// disk", so memory pressure cannot deadlock against the thread scheduler.

// spillCounters is embedded by spilling operators and exposes per-operator
// spill totals to the engine's OpStats harvest.
type spillCounters struct {
	spilledBytes atomic.Int64
	spillPasses  atomic.Int64
}

// SpillStats returns cumulative (bytes written to spill files, passes).
func (c *spillCounters) SpillStats() (bytes, passes int64) {
	return c.spilledBytes.Load(), c.spillPasses.Load()
}

// notePass records one spill sweep of run.Bytes() on both the per-operator
// counters and the query-wide accountant.
func (c *spillCounters) notePass(bytes int64, env *storage.SpillEnv) {
	c.spilledBytes.Add(bytes)
	c.spillPasses.Add(1)
	env.Mem.NotePass()
}

// aggStateOverhead approximates the bytes of one aggState beyond its group
// key: the struct, the map bucket share, and the chain slice entry.
const aggStateOverhead = 96

// indexOverhead approximates the per-tuple bytes a join build structure
// adds on top of the retained tuples: hash/key slots or the sorted arrays.
const indexOverhead = 24

// buildFootprint estimates the resident bytes of an in-memory build side:
// the tuples plus the index built over them.
func buildFootprint(build []relation.Tuple) int64 {
	var n int64
	for _, b := range build {
		n += storage.TupleFootprint(b) + indexOverhead
	}
	return n
}

// maxGraceDepth bounds recursive repartitioning. A partition that still
// exceeds the grant at the bottom (e.g. one giant duplicate key, which no
// salt can split) is joined in memory best-effort rather than recursing
// forever.
const maxGraceDepth = 4

// maxGraceParts caps a partitioning fan-out; each open partition holds one
// build and one probe page buffer.
const maxGraceParts = 32

// partIndex maps a join-key hash to its partition. The hash is remixed with
// the recursion salt so every level cuts along fresh bits — the raw hash's
// low bits stay reserved for the in-memory table slots.
func partIndex(h, salt uint64, parts int) int {
	return int(mix64(h^salt)>>32) & (parts - 1)
}

// childSalt derives the next recursion level's salt.
func childSalt(salt uint64, depth int) uint64 {
	return mix64(salt + uint64(depth+1)*0x9e3779b97f4a7c15)
}

// graceState replaces the in-memory build index when the build side exceeds
// the grant: build tuples are partitioned to disk in Setup, probe tuples
// are routed to matching partitions as they arrive, and OnClose joins the
// pairs partition by partition.
type graceState struct {
	mu    sync.Mutex
	salt  uint64
	parts []gracePart
}

type gracePart struct {
	build *storage.RunWriter
	probe *storage.RunWriter
}

// graceFanout sizes the partition count so each partition's build side is
// expected to fit in about half the grant (probing needs headroom).
func graceFanout(bytes, grant int64) int {
	p := 2
	if grant <= 0 {
		return p
	}
	for p < maxGraceParts && bytes/int64(p) > grant/2 {
		p *= 2
	}
	return p
}

// newGraceState partitions the build tuples to disk. Each call is one spill
// pass; the run bytes are counted when partitions are finished in joinPart.
func (j *Join) newGraceState(build []relation.Tuple, salt uint64) (*graceState, error) {
	fan := graceFanout(buildFootprint(build), j.Spill.Mem.Grant())
	g := &graceState{salt: salt, parts: make([]gracePart, fan)}
	for _, b := range build {
		p := &g.parts[partIndex(hashKey(b, j.BuildKey), salt, fan)]
		if p.build == nil {
			p.build = j.Spill.NewRun()
		}
		if err := p.build.Add(b); err != nil {
			return nil, err
		}
	}
	j.spillPasses.Add(1)
	j.Spill.Mem.NotePass()
	return g, nil
}

// addProbeBatch routes a run of probe tuples under one lock epoch.
func (g *graceState) addProbeBatch(j *Join, ts []relation.Tuple) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, t := range ts {
		if err := g.addProbeLocked(j, t); err != nil {
			return err
		}
	}
	return nil
}

func (g *graceState) addProbeLocked(j *Join, t relation.Tuple) error {
	p := &g.parts[partIndex(hashKey(t, j.ProbeKey), g.salt, len(g.parts))]
	if p.probe == nil {
		p.probe = j.Spill.NewRun()
	}
	return p.probe.Add(t)
}

// closeGrace joins every partition pair of a grace state.
func (j *Join) closeGrace(g *graceState, emit Emit, depth int) error {
	for i := range g.parts {
		if err := j.joinPart(&g.parts[i], emit, g.salt, depth); err != nil {
			return err
		}
	}
	return nil
}

// joinPart loads one partition's build side; if it fits the grant (or
// recursion bottomed out) it builds the in-memory structure and streams the
// probe run through it, otherwise it repartitions both runs one level down.
func (j *Join) joinPart(p *gracePart, emit Emit, salt uint64, depth int) error {
	if p.build == nil || p.probe == nil {
		return nil // an empty side of an equi-join produces nothing
	}
	buildRun, err := p.build.Finish()
	if err != nil {
		return err
	}
	probeRun, err := p.probe.Finish()
	if err != nil {
		return err
	}
	j.spilledBytes.Add(buildRun.Bytes() + probeRun.Bytes())
	if buildRun.Empty() || probeRun.Empty() {
		return nil
	}
	build, err := buildRun.All()
	if err != nil {
		return err
	}
	need := buildFootprint(build)
	if !j.Spill.Mem.Reserve(need) && depth < maxGraceDepth {
		j.Spill.Mem.Release(need)
		return j.repartition(build, probeRun, emit, childSalt(salt, depth), depth)
	}
	// Fits (or bottomed out): join this pair in memory.
	ctx := &Context{Build: build}
	if err := j.buildState(ctx); err != nil {
		j.Spill.Mem.Release(need)
		return err
	}
	sc := scratchPool.Get().(*batchScratch)
	err = probeRun.Each(func(t relation.Tuple) error {
		one := [1]relation.Tuple{t}
		j.probeRun(ctx, sc, one[:], emit)
		return nil
	})
	scratchPool.Put(sc)
	j.Spill.Mem.Release(need)
	return err
}

// repartition pushes one oversized partition a recursion level down: the
// build tuples and the probe run are re-split under a fresh salt, then the
// sub-partitions are joined.
func (j *Join) repartition(build []relation.Tuple, probeRun storage.Run, emit Emit, salt uint64, depth int) error {
	sub, err := j.newGraceState(build, salt)
	if err != nil {
		return err
	}
	err = probeRun.Each(func(t relation.Tuple) error {
		return sub.addProbeLocked(j, t)
	})
	if err != nil {
		return err
	}
	return j.closeGrace(sub, emit, depth+1)
}

// --- Aggregate spill ---------------------------------------------------------

// An aggregate accumulator spills as its group key concatenated with five
// fixed accumulator columns; agg runs are written in group order so OnClose
// can stream-merge them.
const aggSuffix = 5

// encodeAgg renders an accumulator as a spillable tuple in row, which it
// returns regrown: the run writer encodes the tuple at once, so one buffer
// serves a whole run.
func encodeAgg(row relation.Tuple, st *aggState) relation.Tuple {
	min, max := st.min, st.max
	if !st.seen {
		min, max = relation.Int(0), relation.Int(0)
	}
	seen := int64(0)
	if st.seen {
		seen = 1
	}
	row = append(row[:0], st.group...)
	return append(row, relation.Int(st.count), relation.Int(st.sum), relation.Int(seen), min, max)
}

// decodeAgg rebuilds an accumulator from its spilled form.
func decodeAgg(t relation.Tuple) *aggState {
	n := len(t) - aggSuffix
	st := &aggState{
		group: t[:n:n],
		count: t[n].AsInt(),
		sum:   t[n+1].AsInt(),
		seen:  t[n+2].AsInt() != 0,
	}
	if st.seen {
		st.min, st.max = t[n+3], t[n+4]
	}
	return st
}

// combine folds another accumulator for the same group into st.
func (st *aggState) combine(o *aggState) {
	st.count += o.count
	st.sum += o.sum
	if o.seen {
		if !st.seen || o.min.Compare(st.min) < 0 {
			st.min = o.min
		}
		if !st.seen || o.max.Compare(st.max) > 0 {
			st.max = o.max
		}
		st.seen = true
	}
}

// sortedStates flattens a group table into group-key order.
func sortedStates(groups map[uint64][]*aggState) []*aggState {
	out := make([]*aggState, 0, len(groups))
	for _, bucket := range groups {
		out = append(out, bucket...)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].group.Compare(out[k].group) < 0 })
	return out
}

// spillLocked writes the instance's live group table as one sorted run and
// resets it; the caller holds ctx.Mu.
func (a *Aggregate) spillLocked(inst *aggInst) error {
	states := sortedStates(inst.groups)
	if len(states) == 0 {
		return nil
	}
	w := a.Spill.NewRun()
	var row relation.Tuple
	for _, st := range states {
		row = encodeAgg(row, st)
		if err := w.Add(row); err != nil {
			return err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	inst.runs = append(inst.runs, run)
	a.notePass(run.Bytes(), a.Spill)
	a.Spill.Mem.Release(inst.bytes)
	inst.bytes = 0
	inst.groups = make(map[uint64][]*aggState)
	inst.slab = relation.Slab{}
	return nil
}

// aggSource streams accumulators in group order, from either a spilled run
// or the final in-memory table.
type aggSource struct {
	cur    *aggState
	cursor *storage.RunCursor
	mem    []*aggState
	pos    int
}

func (s *aggSource) advance() error {
	if s.cursor != nil {
		t, ok, err := s.cursor.Next()
		if err != nil {
			return err
		}
		if !ok {
			s.cur = nil
			return nil
		}
		s.cur = decodeAgg(t)
		return nil
	}
	if s.pos >= len(s.mem) {
		s.cur = nil
		return nil
	}
	s.cur = s.mem[s.pos]
	s.pos++
	return nil
}

// mergeRunsLocked k-way merges the spilled runs with the in-memory table,
// combining accumulators for equal groups and emitting results in group
// order; the caller holds ctx.Mu.
func (a *Aggregate) mergeRunsLocked(inst *aggInst, slab *relation.Slab, emit Emit) error {
	sources := make([]*aggSource, 0, len(inst.runs)+1)
	for _, r := range inst.runs {
		sources = append(sources, &aggSource{cursor: r.Cursor()})
	}
	sources = append(sources, &aggSource{mem: sortedStates(inst.groups)})
	for _, s := range sources {
		if err := s.advance(); err != nil {
			return err
		}
	}
	for {
		var lead *aggSource
		for _, s := range sources {
			if s.cur != nil && (lead == nil || s.cur.group.Compare(lead.cur.group) < 0) {
				lead = s
			}
		}
		if lead == nil {
			return nil
		}
		merged := &aggState{group: lead.cur.group}
		for _, s := range sources {
			for s.cur != nil && s.cur.group.Compare(merged.group) == 0 {
				merged.combine(s.cur)
				if err := s.advance(); err != nil {
					return err
				}
			}
		}
		emit(a.final(slab, merged))
	}
}
