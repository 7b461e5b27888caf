package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opResult is what one operation reports back to the harness.
type opResult struct {
	class    int
	rows     int64
	latency  time.Duration // request issued -> last row or footer consumed
	header   time.Duration // request issued -> response header, wire workloads only
	firstRow time.Duration // request issued -> first row, 0 when not observed
	wire     int64         // response body bytes, 0 without a wire
	threads  int           // threads the scheduler granted, 0 when unknown
	verify   time.Duration // time spent checking the answer, outside latency
	err      error         // a failed, shed or wrong operation
}

// runEnv is what a workload gets from the run.
type runEnv struct {
	seed     int64
	nproc    int
	spillDir string // empty directory owned by the run, removed on exit
}

// workload is one set of inputs the benchmark runs. The harness drives it
// from outside: set-up, warm-up, operations, ledger check, tear-down.
type workload interface {
	classes() []string
	// clients is the number of closed-loop callers; 0 makes the workload an
	// open loop at rate() arrivals per second.
	clients() int
	rate() float64
	// oracle computes (once per process) the answers operations are checked
	// against; it is not part of the timed set-up.
	oracle(ctx context.Context, env runEnv) error
	// setup builds the workload from scratch and calls lap after each of its
	// stages, the same stages in the same order every time (see stageSum).
	setup(ctx context.Context, env runEnv, lap func()) error
	// warm runs a fixed number of operations per class, untimed.
	warm(ctx context.Context) error
	// op runs the i-th operation of a client (open loop: the i-th arrival of
	// the pass, with perRound arrivals per round) and checks its answer. root
	// is the operation's trace root, nil in untraced rounds; the caller ends it.
	op(ctx context.Context, client, i, perRound int, root *liveSpan) opResult
	// load is a snapshot of the workload's query managers, zero without one.
	load() managerLoad
	// ledger reports resources the program still holds after a pass.
	ledger() error
	teardown()
	// layers runs the traced run's unloaded part: twins and layer probes.
	layers(ctx context.Context, tr *tracer, m metrics) error
}

// managerLoad aggregates Manager.Stats() over a workload's managers.
type managerLoad struct {
	managers                         int
	budget, threads, peak            int
	queued, active                   int
	mem                              int64
	admitted, rejected, readmissions int64
	smoothed                         float64
	cacheHits, cacheMisses           int64
	poolHits, poolMisses             int64
}

type metrics map[string]float64

// roundStats are the end-to-end figures of one measured round, as
// result.json keeps them.
type roundStats struct {
	OpsPerS  float64 `json:"ops_per_s"`
	RowsPerS float64 `json:"rows_per_s"`
	P50ms    float64 `json:"latency_p50_ms"`
	Within   float64 `json:"within_limit_share"`
	CPUPerOp float64 `json:"cpu_ms_per_op"`
	// Steal is the share of the machine's CPU time the hypervisor took during
	// the round (/proc/stat): a diagnostic, no value is adjusted by it.
	Steal float64 `json:"cpu_steal_share"`
}

// sample is one operation as kept for percentiles.
type sample struct {
	class   int
	ms      float64
	headMS  float64
	firstMS float64
	rows    int64
	wire    int64
	threads int
	lagMS   float64
	ok      bool
	// dropped marks an open-loop arrival that was never sent because the
	// in-flight cap was reached: it misses the latency limit and adds no
	// goodput, but it is no failed operation - the program answered nothing
	// wrongly, the load was more than it (or the machine that minute) took.
	dropped bool
}

// section is a stretch of rounds measured the same way.
type section struct {
	rounds    []roundStats
	samples   []sample
	attempted int64
	failed    int64
	dropped   int64
	firstErr  error
}

func (s *section) merge(o *section) {
	s.rounds = append(s.rounds, o.rounds...)
	s.samples = append(s.samples, o.samples...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.dropped += o.dropped
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// summarize turns one round's samples into its end-to-end figures. wall is
// the round's clock per client, already net of verification pauses.
func summarize(w workload, name string, samples []sample, clientWall []time.Duration, clientOK, clientRows []int64, cpu time.Duration) roundStats {
	var rs roundStats
	var okOps int64
	for c, wall := range clientWall {
		if wall > 0 {
			rs.OpsPerS += float64(clientOK[c]) / wall.Seconds()
			rs.RowsPerS += float64(clientRows[c]) / wall.Seconds()
		}
		okOps += clientOK[c]
	}
	byClass := make([][]float64, len(w.classes()))
	limit := float64(latencyLimit[name]) / float64(time.Millisecond)
	within := 0
	for _, s := range samples {
		if !s.ok {
			continue
		}
		byClass[s.class] = append(byClass[s.class], s.ms)
		if s.ms <= limit {
			within++
		}
	}
	rs.P50ms = balancedMedian(byClass)
	if len(samples) > 0 {
		rs.Within = float64(within) / float64(len(samples))
	}
	if okOps > 0 {
		rs.CPUPerOp = float64(cpu) / float64(time.Millisecond) / float64(okOps)
	}
	return rs
}

// runClosed measures n rounds of roundLen with w.clients() callers, each
// sending its next operation when the previous one completed. A round ends
// for a client at the first class-cycle boundary after roundLen, so every
// round carries the same class mix.
func runClosed(ctx context.Context, w workload, name string, n int, roundLen time.Duration, next []int, tr *tracer) *section {
	sec := &section{}
	clients := w.clients()
	cycle := len(w.classes())
	for r := 0; r < n; r++ {
		var (
			mu      sync.Mutex
			wg      sync.WaitGroup
			samples []sample
		)
		wall := make([]time.Duration, clients)
		okOps := make([]int64, clients)
		rows := make([]int64, clients)
		cpu0 := cpuTime()
		st0, tot0 := cpuSteal()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var local []sample
				var paused time.Duration
				start := time.Now()
				for done := 0; ; done++ {
					if done%cycle == 0 && time.Since(start)-paused >= roundLen {
						break
					}
					root := tr.op()
					res := w.op(ctx, c, next[c], 0, root)
					root.end()
					next[c]++
					paused += res.verify
					local = append(local, toSample(res, 0))
					if res.err == nil {
						okOps[c]++
						rows[c] += res.rows
					} else {
						mu.Lock()
						if sec.firstErr == nil {
							sec.firstErr = res.err
						}
						mu.Unlock()
					}
				}
				wall[c] = time.Since(start) - paused
				mu.Lock()
				samples = append(samples, local...)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		cpu := cpuTime() - cpu0
		st1, tot1 := cpuSteal()
		sec.rounds = append(sec.rounds, summarize(w, name, samples, wall, okOps, rows, cpu))
		sec.rounds[len(sec.rounds)-1].Steal = stealShare(st0, tot0, st1, tot1)
		sec.add(samples)
	}
	return sec
}

func (s *section) add(samples []sample) {
	s.samples = append(s.samples, samples...)
	for _, sm := range samples {
		s.attempted++
		if !sm.ok && !sm.dropped {
			s.failed++
		}
	}
}

func toSample(res opResult, lag time.Duration) sample {
	return sample{class: res.class, ms: ms(res.latency), headMS: ms(res.header), firstMS: ms(res.firstRow), rows: res.rows,
		wire: res.wire, threads: res.threads, lagMS: ms(lag), ok: res.err == nil}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// arrivalOffsets places n arrivals in one round: a Poisson process
// conditioned on its count, so the offsets are sorted uniform draws. Fixing
// the count per round keeps goodput and rows per second comparable between
// seeds; the gaps stay exponential-like.
func arrivalOffsets(rng *rand.Rand, n int, roundLen time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(roundLen))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLatency is the latency of an open-loop operation: from the instant it
// was due, not from when the generator got round to sending it.
func openLatency(due, sent, done time.Time) (latency, lag time.Duration) {
	return done.Sub(due), sent.Sub(due)
}

// runOpen measures n back-to-back rounds of an open loop: perRound arrivals
// per round on a schedule that does not wait for completions. At most
// clusterInFlight operations are outstanding; an arrival beyond that is
// dropped and counts as a miss of the latency limit, not as a failure.
func runOpen(ctx context.Context, w workload, name string, n int, roundLen time.Duration, rate float64, seed int64, first int, tr *tracer) *section {
	sec := &section{}
	perRound := int(rate*roundLen.Seconds() + 0.5)
	if perRound < 1 {
		perRound = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		byRound  = make([][]sample, n)
		inFlight = make(chan struct{}, clusterInFlight)
	)
	cpuMarks := make([]time.Duration, n+1)
	stealMarks := make([][2]float64, n+1)
	clockMarks := make([]time.Time, n+1)
	start := time.Now()
	clockMarks[0] = start
	cpuMarks[0] = cpuTime()
	stealMarks[0][0], stealMarks[0][1] = cpuSteal()
	for r := 0; r < n; r++ {
		roundStart := start.Add(time.Duration(r) * roundLen)
		for k, off := range arrivalOffsets(rng, perRound, roundLen) {
			due := roundStart.Add(off)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
			i := first + r*perRound + k
			select {
			case inFlight <- struct{}{}:
			default:
				mu.Lock()
				byRound[r] = append(byRound[r], sample{dropped: true})
				sec.dropped++
				mu.Unlock()
				continue
			}
			wg.Add(1)
			go func(r, i int, due time.Time) {
				defer wg.Done()
				sent := time.Now()
				root := tr.op()
				res := w.op(ctx, 0, i, perRound, root)
				root.end()
				var lag time.Duration
				res.latency, lag = openLatency(due, sent, sent.Add(res.latency))
				<-inFlight
				mu.Lock()
				byRound[r] = append(byRound[r], toSample(res, lag))
				if res.err != nil && sec.firstErr == nil {
					sec.firstErr = res.err
				}
				mu.Unlock()
			}(r, i, due)
		}
		if d := time.Until(roundStart.Add(roundLen)); d > 0 {
			time.Sleep(d)
		}
		clockMarks[r+1] = time.Now()
		cpuMarks[r+1] = cpuTime()
		stealMarks[r+1][0], stealMarks[r+1][1] = cpuSteal()
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		var okOps, rows int64
		for _, s := range byRound[r] {
			if s.ok {
				okOps++
				rows += s.rows
			}
		}
		// Goodput is per second of the round as the clock measured it, not of
		// its nominal length.
		sec.rounds = append(sec.rounds, summarize(w, name, byRound[r], []time.Duration{clockMarks[r+1].Sub(clockMarks[r])},
			[]int64{okOps}, []int64{rows}, cpuMarks[r+1]-cpuMarks[r]))
		sec.rounds[r].Steal = stealShare(stealMarks[r][0], stealMarks[r][1], stealMarks[r+1][0], stealMarks[r+1][1])
		sec.add(byRound[r])
	}
	return sec
}

// measure runs n rounds of the workload's own loop kind. next carries each
// closed-loop client's operation index (open loop: next[0] is the arrival
// index) across sections of one pass.
func measure(ctx context.Context, w workload, name string, n int, roundLen time.Duration, seed int64, next []int, tr *tracer) *section {
	if w.clients() > 0 {
		return runClosed(ctx, w, name, n, roundLen, next, tr)
	}
	sec := runOpen(ctx, w, name, n, roundLen, w.rate(), seed, next[0], tr)
	next[0] += n * int(w.rate()*roundLen.Seconds()+0.5)
	return sec
}

// heapMB forces a collection and returns the live heap. It collects twice:
// what a torn-down earlier set-up left behind finalizers is only freed by the
// collection after the one that ran them.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// waitFor polls cond for up to two seconds: a server handler returns its
// threads a moment after the client saw the footer.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// checkLedger asserts that a finished pass gave everything back: manager
// ledgers at zero, no spill files, goroutines back at the baseline.
func checkLedger(w workload, env runEnv, baseGoroutines int) error {
	var lastErr error
	if !waitFor(func() bool { lastErr = w.ledger(); return lastErr == nil }) {
		return fmt.Errorf("ledger: %w", lastErr)
	}
	w.teardown()
	if entries, err := os.ReadDir(env.spillDir); err != nil {
		return fmt.Errorf("ledger: %w", err)
	} else if len(entries) > 0 {
		return fmt.Errorf("ledger: %d spill files left in %s", len(entries), env.spillDir)
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= baseGoroutines }) {
		return fmt.Errorf("ledger: %d goroutines after tear-down, %d before set-up", runtime.NumGoroutine(), baseGoroutines)
	}
	return nil
}

// setUp runs the workload's set-up reps times, keeping the last, and returns
// the seconds each stage of each set-up took and the live heap after the
// last one.
func setUp(ctx context.Context, w workload, env runEnv, reps int) (laps [][]float64, heap float64, err error) {
	if err := w.oracle(ctx, env); err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		var stages []float64
		last := time.Now()
		lap := func() {
			now := time.Now()
			stages = append(stages, now.Sub(last).Seconds())
			last = now
		}
		if err := w.setup(ctx, env, lap); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		lap() // what followed the last stage the workload marked
		if i > 0 && len(stages) != len(laps[0]) {
			return nil, 0, fmt.Errorf("set-up %d had %d stages, the first had %d", i, len(stages), len(laps[0]))
		}
		laps = append(laps, stages)
	}
	return laps, heapMB(), nil
}

// stageSum is the set-up time drawn from repeated set-ups: for every stage
// the fastest it took in any repetition, summed over the stages. A set-up
// lasts 5 to 80 ms and the hypervisor takes the CPU away for a millisecond or
// two every few milliseconds, so stalls only ever add time and in a bad
// minute no whole set-up out of 24 escapes them (the fastest of 24 was then
// 1.2 to 2.4 times the quiet one); a stage of a few milliseconds does.
func stageSum(laps [][]float64) float64 {
	if len(laps) == 0 {
		return 0
	}
	var sum float64
	for stage := range laps[0] {
		fastest := laps[0][stage]
		for _, rep := range laps[1:] {
			fastest = min(fastest, rep[stage])
		}
		sum += fastest
	}
	return sum
}

func stealShare(steal0, total0, steal1, total1 float64) float64 {
	if total1 <= total0 {
		return 0
	}
	return (steal1 - steal0) / (total1 - total0)
}

// cpuSteal reads the machine's cumulative (steal, total) jiffies; zeros
// where /proc/stat is not available.
func cpuSteal() (steal, total float64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
