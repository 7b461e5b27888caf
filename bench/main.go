// Command dbs3bench is the repo's benchmark: five workloads measured end to
// end, and layer by layer from outside. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"engine-skew", "engine-spill", "serve-short", "serve-wide", "cluster-open"}

// workloadWhy records why each workload is in the benchmark.
var workloadWhy = map[string]string{
	"engine-skew":  "the paper's IdealJoin/AssocJoin at theta 0 and 1 straight on core: only queues, pools, scheduler and join operators work, so data-plane changes show here and front-end changes must not",
	"engine-spill": "a hash join and a high-cardinality GROUP BY through the facade under a 256 KiB grant: the same operators used the other way, so an in-memory gain that costs the spill path shows",
	"serve-short":  "point queries over HTTP as prepared, cached and never-seen text: decode, plan cache, compile, admission, allocation and pool start-up are nearly all of the latency",
	"serve-wide":   "4000 wide rows per query streamed alternately as NDJSON and columnar: sink backpressure, both encoders and the client decoder dominate, planning is noise",
	"cluster-open": "open loop at a fixed rate through a coordinator over 3 shards: the only workload with queueing, scatter/merge and the slowest-shard effect, so throughput bought with longer tails shows",
}

func newWorkload(name string) workload {
	switch name {
	case "engine-skew":
		return &skewWorkload{}
	case "engine-spill":
		return &spillWorkload{}
	case "serve-short":
		return &serveWorkload{}
	case "serve-wide":
		return &serveWorkload{wide: true}
	case "cluster-open":
		return &clusterWorkload{arrivals: clusterRate}
	}
	panic("unknown workload " + name)
}

// report is bench/out/result.json.
type report struct {
	Meta struct {
		Seed      int64   `json:"seed"`
		Seconds   float64 `json:"seconds"`
		Passes    int     `json:"passes"`
		Rounds    int     `json:"rounds"`
		Nproc     int     `json:"nproc"`
		GoVersion string  `json:"go_version"`
	} `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		only    = flag.String("workload", "", "run one workload (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of data generation, argument sampling and arrival times")
		seconds = flag.Float64("seconds", defaultSecs, "measured seconds per workload; scales the round length")
		trace   = flag.Int("trace", 2, "0: end-to-end metrics only, 1: per-layer metrics only, 2: both")
		repeat  = flag.Int("repeat", 0, "run N times and print each end-to-end metric's run-to-run range")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		sweep   = flag.Bool("sweep", false, "cluster-open at 0.5x/1x/2x/4x the frozen rate")
		out     = flag.String("out", "out", "directory for result.json and the traces")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare base.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	names := workloadNames
	if *only != "" {
		if _, ok := workloadWhy[*only]; !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *only, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*only}
	}
	if *seconds <= 0 || *trace < 0 || *trace > 2 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive and -trace 0, 1 or 2")
		return 2
	}

	// One process sized to the machine; spill files and results stay under
	// the benchmark's own directory (the working directory, set by run.sh).
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	scratch := filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{
		seed:     *seed,
		roundLen: time.Duration(*seconds / float64(passes*rounds) * float64(time.Second)),
		nproc:    nproc,
		scratch:  scratch,
		outDir:   *out,
	}
	ctx := context.Background()

	switch {
	case *sweep:
		return runSweep(ctx, cfg)
	case *repeat > 0:
		return runRepeat(ctx, cfg, names, *repeat)
	}

	rep := &report{Workloads: make(map[string]*result)}
	rep.Meta.Seed, rep.Meta.Seconds, rep.Meta.Passes, rep.Meta.Rounds = *seed, *seconds, passes, rounds
	rep.Meta.Nproc, rep.Meta.GoVersion = nproc, runtime.Version()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ok := true
	for _, name := range names {
		res := &result{Why: workloadWhy[name], Correct: true}
		if *trace != 1 {
			res = runUntraced(ctx, name, cfg)
		}
		if *trace != 0 {
			traced, spans := runTraced(ctx, name, cfg)
			if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+name+".json"), spans); err != nil {
				traced.fail(err)
			}
			res.PerLayer = traced.PerLayer
			res.Attempted += traced.Attempted
			res.Failed += traced.Failed
			if !traced.Correct {
				res.fail(errors.New(traced.Error))
			}
		}
		rep.Workloads[name] = res
		printResult(name, res)
		ok = ok && res.Correct && res.Failed == 0
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		ok = false
	}
	if len(names) == 1 && *trace != 2 {
		printDriverLine(rep.Workloads[names[0]], *trace)
	}
	if !ok {
		return 1
	}
	return 0
}

// printResult prints every metric of a workload by name, with its unit.
func printResult(name string, res *result) {
	fmt.Printf("== %s: attempted %d, failed %d, correct %t\n", name, res.Attempted, res.Failed, res.Correct)
	if res.Error != "" {
		fmt.Printf("   error: %s\n", res.Error)
	}
	for _, d := range endToEnd {
		if v, ok := res.EndToEnd[d.name]; ok {
			gate := fmt.Sprintf("bound %.2f", d.bound)
			if d.demoted {
				gate = "demoted, gates nothing"
			}
			fmt.Printf("   %-44s %14.4f %-6s spread %.3f over %d samples (%s)\n", d.name, v.Value, v.Unit, v.Spread, v.Count, gate)
		}
	}
	names := make([]string, 0, len(res.PerLayer))
	for n := range res.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-44s %14.4f %s\n", n, res.PerLayer[n].Value, res.PerLayer[n].Unit)
	}
}

// printDriverLine prints the one-line JSON summary a single-workload run
// ends with: the end-to-end metrics of BENCHMARK.json (the ones not demoted)
// with -trace 0, the per-layer metrics with -trace 1.
func printDriverLine(res *result, trace int) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.PerLayer
	if trace == 0 {
		src = make(map[string]value)
		for _, d := range endToEnd {
			if !d.demoted {
				src[d.name] = res.EndToEnd[d.name]
			}
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct && res.Failed == 0, res.Attempted, res.Failed, make(map[string]metric, len(src))}
	for name, v := range src {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Println(string(buf))
}
