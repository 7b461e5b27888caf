package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// value is one reported metric: the median over the rounds (set-up
// metrics: over the set-ups) with their inter-quartile spread, so -compare
// can tell a shift from noise.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"` // inter-quartile range / median
	Count  int     `json:"samples,omitempty"`
}

// result is everything one workload produced in one run.
type result struct {
	Why       string           `json:"why"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Error     string           `json:"error,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	Rounds    []roundStats     `json:"rounds,omitempty"` // what the end-to-end medians were taken over
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

func (r *result) fail(err error) {
	r.Correct = false
	if r.Error == "" && err != nil {
		r.Error = err.Error()
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	roundLen time.Duration
	nproc    int
	scratch  string // bench/.bench_build/tmp/<pid>
	outDir   string // bench/out
}

func (c runConfig) env(name string) (runEnv, error) {
	dir := filepath.Join(c.scratch, "spill-"+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return runEnv{}, err
	}
	return runEnv{seed: c.seed, nproc: c.nproc, spillDir: dir}, nil
}

// pass sets the workload up (reps times), warms it and hands it to body;
// afterwards it checks the ledger and tears the workload down.
func pass(ctx context.Context, name string, cfg runConfig, reps int, body func(w workload, laps [][]float64, heap, warmS float64) error) error {
	env, err := cfg.env(name)
	if err != nil {
		return err
	}
	base := runtime.NumGoroutine()
	w := newWorkload(name)
	laps, heap, err := setUp(ctx, w, env, reps)
	if err != nil {
		w.teardown()
		return err
	}
	t0 := time.Now()
	if err := w.warm(ctx); err != nil {
		w.teardown()
		return fmt.Errorf("warm-up: %w", err)
	}
	warmS := time.Since(t0).Seconds()
	if err := body(w, laps, heap, warmS); err != nil {
		w.teardown()
		return err
	}
	return checkLedger(w, env, base)
}

func column(rs []roundStats, f func(roundStats) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func medianValue(unit string, xs []float64) value {
	return value{Value: median(xs), Unit: unit, Spread: iqrSpread(xs), Count: len(xs)}
}

// roundColumn maps an end-to-end metric measured per round to its field.
var roundColumn = map[string]func(roundStats) float64{
	"ops_per_s":          func(r roundStats) float64 { return r.OpsPerS },
	"rows_per_s":         func(r roundStats) float64 { return r.RowsPerS },
	"latency_p50_ms":     func(r roundStats) float64 { return r.P50ms },
	"within_limit_share": func(r roundStats) float64 { return r.Within },
	"cpu_ms_per_op":      func(r roundStats) float64 { return r.CPUPerOp },
}

// endToEndValues reduces the measured rounds to the end-to-end metrics: each
// is the plain median over the rounds. Set-up heap is the median over the
// passes; set-up time is the stageSum over every set-up of the run, with the
// spread of the passes' own stage sums beside it.
func endToEndValues(rounds []roundStats, laps [][]float64, passSecs, heaps []float64) map[string]value {
	out := make(map[string]value, len(endToEnd))
	for _, d := range endToEnd {
		switch f := roundColumn[d.name]; {
		case f != nil:
			out[d.name] = medianValue(d.unit, column(rounds, f))
		case d.name == "setup_s":
			v := medianValue(d.unit, passSecs)
			v.Value = stageSum(laps)
			out[d.name] = v
		case d.name == "setup_heap_mb":
			out[d.name] = medianValue(d.unit, heaps)
		}
	}
	return out
}

// runUntraced is a --trace 0 run: passes x rounds untraced rounds, the only
// source of end-to-end metrics.
func runUntraced(ctx context.Context, name string, cfg runConfig) *result {
	res := &result{Why: workloadWhy[name], Correct: true}
	all := &section{}
	var (
		laps            [][]float64
		passSecs, heaps []float64
	)
	for p := 0; p < passes; p++ {
		err := pass(ctx, name, cfg, setupReps, func(w workload, passLaps [][]float64, heap, _ float64) error {
			laps = append(laps, passLaps...)
			passSecs = append(passSecs, stageSum(passLaps))
			heaps = append(heaps, heap)
			next := make([]int, max(1, w.clients()))
			all.merge(measure(ctx, w, name, rounds, cfg.roundLen, cfg.seed+int64(p), next, nil))
			return nil
		})
		if err != nil {
			res.fail(err)
			break
		}
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	if all.firstErr != nil {
		res.fail(all.firstErr)
	}
	if !res.Correct && res.Failed == 0 {
		// A ledger or set-up violation taints every operation of the run.
		res.Failed = max(res.Attempted, 1)
	}
	res.Attempted = max(res.Attempted, 1)
	res.Rounds = all.rounds
	res.EndToEnd = endToEndValues(all.rounds, laps, passSecs, heaps)
	return res
}

// loadSampler polls the workload's managers while the traced section runs.
type loadSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []managerLoad
}

func startSampler(w workload) *loadSampler {
	s := &loadSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.samples = append(s.samples, w.load())
			}
		}
	}()
	return s
}

func (s *loadSampler) finish() []managerLoad {
	close(s.stop)
	s.done.Wait()
	return s.samples
}

// runTraced is a --trace 1 run: one pass with `rounds` untraced reference
// rounds, a traced section of the same length under the same load, then the
// workload's unloaded twins and layer probes. It is the only source of per-layer metrics.
func runTraced(ctx context.Context, name string, cfg runConfig) (*result, []span) {
	res := &result{Why: workloadWhy[name], Correct: true}
	m := metrics{}
	tr := newTracer()
	steal0, total0 := cpuSteal()
	var ref, traced *section
	err := pass(ctx, name, cfg, 1, func(w workload, _ [][]float64, _, warmS float64) error {
		m["bench.warmup_s"] = warmS
		next := make([]int, max(1, w.clients()))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ref = measure(ctx, w, name, rounds, cfg.roundLen, cfg.seed, next, nil)
		runtime.ReadMemStats(&ms1)
		if ok := float64(ref.attempted - ref.failed); ok > 0 {
			m["bench.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ok
			m["bench.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ok
		}
		m["bench.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

		before := w.load()
		sampler := startSampler(w)
		t0 := time.Now()
		traced = measure(ctx, w, name, rounds, cfg.roundLen, cfg.seed+1, next, tr)
		elapsed := time.Since(t0)
		loadMetrics(m, sampler.finish(), before, w.load(), elapsed)
		return w.layers(ctx, tr, m)
	})
	if err != nil {
		res.fail(err)
	}
	spans := tr.snapshot()
	if ref != nil && traced != nil {
		sectionMetrics(m, name, ref, traced)
		res.Attempted = ref.attempted + traced.attempted
		res.Failed = ref.failed + traced.failed
		for _, s := range []*section{ref, traced} {
			if s.firstErr != nil {
				res.fail(s.firstErr)
			}
		}
	}
	if !res.Correct && res.Failed == 0 {
		res.Failed = max(res.Attempted, 1)
	}
	res.Attempted = max(res.Attempted, 1)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		m["bench.cpu_steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	if _, ok := m["bench.layer_sum_share"]; !ok {
		m["bench.layer_sum_share"] = layerSumShare(spans, primarySpans[name])
	}
	res.PerLayer = make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		res.PerLayer[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	for k := range m {
		if _, ok := res.PerLayer[k]; !ok {
			res.fail(fmt.Errorf("metric %q is not in the per-layer table", k))
		}
	}
	return res, spans
}

// loadMetrics turns the sampled manager snapshots into the runtime.* layer.
func loadMetrics(m metrics, samples []managerLoad, before, after managerLoad, elapsed time.Duration) {
	if after.managers == 0 || len(samples) == 0 {
		return
	}
	var threads, queued, smoothed, memPerActive []float64
	for _, s := range samples {
		threads = append(threads, float64(s.threads))
		queued = append(queued, float64(s.queued))
		smoothed = append(smoothed, s.smoothed)
		if s.active > 0 && s.mem > 0 {
			memPerActive = append(memPerActive, float64(s.mem)/float64(s.active)/1024)
		}
	}
	m["runtime.threads_in_flight_mean"] = mean(threads)
	m["runtime.budget_utilization"] = mean(threads) / float64(after.budget)
	m["runtime.peak_threads"] = float64(after.peak)
	m["runtime.queued_mean"] = mean(queued)
	m["runtime.smoothed_utilization_mean"] = mean(smoothed)
	m["runtime.rejected"] = float64(after.rejected - before.rejected)
	m["runtime.readmissions"] = float64(after.readmissions - before.readmissions)
	m["runtime.mem_grant_mean_kb"] = mean(memPerActive)
	if admitted := after.admitted - before.admitted; admitted > 0 {
		// Little's law: mean wait = mean queue length / arrival rate.
		m["runtime.admission_wait_ms_est"] = mean(queued) / (float64(admitted) / elapsed.Seconds()) * 1000
	}
	if look := (after.cacheHits - before.cacheHits) + (after.cacheMisses - before.cacheMisses); look > 0 {
		m["dbs3.plan_cache_hit_share"] = float64(after.cacheHits-before.cacheHits) / float64(look)
	}
	if reads := (after.poolHits - before.poolHits) + (after.poolMisses - before.poolMisses); reads > 0 {
		m["storage.buffer_pool_hit_share"] = float64(after.poolHits-before.poolHits) / float64(reads)
	}
}

// sectionMetrics fills the client.* and bench.* layers from the reference
// (untraced) and the traced section of a traced run.
func sectionMetrics(m metrics, name string, ref, traced *section) {
	classes := newWorkload(name).classes()
	byClass := make([][]float64, len(classes))
	streamed := make([][]float64, len(classes)) // response header -> footer
	var all, first, lag, threads, header []float64
	var rows, wire int64
	for _, s := range traced.samples {
		if !s.ok {
			continue
		}
		byClass[s.class] = append(byClass[s.class], s.ms)
		all = append(all, s.ms)
		if s.headMS > 0 {
			header = append(header, s.headMS)
			streamed[s.class] = append(streamed[s.class], s.ms-s.headMS)
		}
		if s.firstMS > 0 {
			first = append(first, s.firstMS)
		}
		if s.threads > 0 {
			threads = append(threads, float64(s.threads))
		}
		lag = append(lag, s.lagMS)
		rows += s.rows
		wire += s.wire
	}
	m["client.latency_p95_ms"] = p95(all)
	// End-to-end metrics that were demoted, from the untraced reference rounds.
	for _, d := range endToEnd {
		if d.demoted {
			m["client."+d.name] = median(column(ref.rounds, roundColumn[d.name]))
		}
	}
	m["client.first_row_p50_ms"] = median(first)
	m["runtime.threads_granted_mean"] = mean(threads)
	if rows > 0 {
		m["client.wire_bytes_per_row"] = float64(wire) / float64(rows)
	}
	for c, cls := range classes {
		if name == "engine-skew" {
			m["core.execute_ms."+cls] = median(byClass[c])
			continue
		}
		m["client.p50_ms."+cls] = median(byClass[c])
		m["client.p95_ms."+cls] = p95(byClass[c])
		if name == "serve-wide" {
			m["server.stream_p50_ms."+cls] = median(streamed[c])
		}
	}
	m["server.ttfb_p50_ms"] = median(header)
	m["bench.generator_lag_p95_ms"] = p95(lag)
	m["bench.dropped"] = float64(ref.dropped + traced.dropped)
	m["bench.rounds"] = float64(len(ref.rounds))
	m["bench.samples"] = float64(len(ref.samples) + len(traced.samples))
	m["bench.round_spread.ops_per_s"] = iqrSpread(column(ref.rounds, roundColumn["ops_per_s"]))
	m["bench.round_spread.latency_p50_ms"] = iqrSpread(column(ref.rounds, roundColumn["latency_p50_ms"]))
	refP50 := median(column(ref.rounds, roundColumn["latency_p50_ms"]))
	if refP50 > 0 {
		m["bench.trace_overhead_share"] = median(column(traced.rounds, roundColumn["latency_p50_ms"]))/refP50 - 1
	}
}

// primarySpans names, per workload, the spans that are the operation as its
// caller sees it. The other children of a bench.op root are the outside
// view's decomposition of it (staged replays and twins run beside it).
var primarySpans = map[string][]string{
	"engine-skew":  {"bench.op"},
	"engine-spill": {"dbs3.query"},
	"serve-short":  {"server.ttfb", "server.stream"},
	"serve-wide":   {"server.ttfb", "server.stream"},
	"cluster-open": {"cluster.query"},
}

// layerSumShare is how much of the traced operations' time the outside view
// explains: over the operations that have a decomposition, the self time of
// the decomposing spans divided by the duration of the primary spans. On
// cluster-open the shard twins run concurrently, so the slowest one counts.
func layerSumShare(spans []span, primary []string) float64 {
	isPrimary := make(map[string]bool)
	for _, p := range primary {
		isPrimary[p] = true
	}
	self := selfTimes(spans)
	type acc struct{ primary, layers, slowestTwin int64 }
	ops := make(map[int64]*acc)
	for _, s := range spans {
		a := ops[s.Op]
		if a == nil {
			a = &acc{}
			ops[s.Op] = a
		}
		switch {
		case isPrimary[s.Name]:
			a.primary += s.EndUS - s.StartUS
		case s.Name == "server.shard_query":
			a.slowestTwin = max(a.slowestTwin, s.EndUS-s.StartUS)
		case s.Parent != 0:
			a.layers += self[s.ID]
		}
	}
	var primarySum, layerSum int64
	for _, a := range ops {
		if a.primary > 0 && a.layers+a.slowestTwin > 0 {
			primarySum += a.primary
			layerSum += a.layers + a.slowestTwin
		}
	}
	if primarySum == 0 {
		return 0
	}
	return float64(layerSum) / float64(primarySum)
}
