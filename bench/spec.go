package main

import "time"

// The run shape. One invocation measures `passes` passes of one workload;
// each pass sets the workload up from scratch (setupReps times), warms it,
// measures `rounds` rounds and tears it down. An end-to-end value is the
// median over all passes*rounds rounds, so a burst of CPU steal (this box: a
// fixed CPU loop ran 0.8-1.4 s back to back) has to cover half the rounds to
// move it.
const (
	passes       = 3
	rounds       = 3
	defaultSecs  = 18 // passes*rounds rounds of 2 s: what the driver's time cap leaves (README)
	setupReps    = 8  // set-ups per pass; setup_s is the stageSum over all passes*setupReps
	checksumEach = 16 // every op checks its row count; every 16th its checksum
)

// Frozen workload sizes. They are part of the benchmark's definition: a
// change to any of them starts a new baseline.
const (
	// engine-skew: the paper's experimental database (section 5.4).
	skewACard  = 100_000
	skewBCard  = 10_240 // a multiple of the degree, as NewJoinDB requires
	skewDegree = 64

	// engine-spill: a join and a GROUP BY whose state is far above the grant.
	spillACard   = 6_000
	spillBCard   = 6_000
	spillDegree  = 8
	spillWisc    = 8_000
	spillMemory  = 256 << 10 // machine-wide memory budget = the per-query grant
	spillJoinSQL = "SELECT A.id, B.id FROM A JOIN B ON A.k = B.k"
	spillAggSQL  = "SELECT unique1, COUNT(*) FROM wisc GROUP BY unique1"

	// serve-short and serve-wide share one catalog.
	shortCard   = 2_000
	shortDegree = 8
	wideCard    = 20_000
	wideDegree  = 16
	wideRows    = 4_000 // rows per serve-wide operation
	serveConns  = 2     // keep-alive closed-loop clients (= nproc on the reference box)

	// cluster-open.
	clusterNodes    = 3
	clusterWisc     = 20_000
	clusterJoinCard = 5_000
	clusterDegree   = 8
	clusterTheta    = 0.5
	clusterArgRanks = 64   // distinct argument values, Zipf-ranked
	clusterArgStep  = 31   // argument = rank * step, so at most 1984 rows
	clusterRate     = 40.0 // arrivals per second, never re-calibrated
	clusterInFlight = 32
	clusterToken    = "bench-token"
)

// Latency limits for within_limit_share and the sweep, fixed once on
// the seed commit so that the share lands between 0.90 and 0.99 on a quiet
// machine.
var latencyLimit = map[string]time.Duration{
	"engine-skew":  60 * time.Millisecond,
	"engine-spill": 35 * time.Millisecond,
	"serve-short":  2500 * time.Microsecond,
	"serve-wide":   60 * time.Millisecond,
	"cluster-open": 25 * time.Millisecond,
}

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	// demoted marks an end-to-end metric that did not repeat within its bound
	// on the reference box. It is still measured and printed, but it is not in
	// BENCHMARK.json's end_to_end list and gates nothing; a traced run reports
	// it as the per-layer metric client.<name>.
	demoted bool
}

// endToEnd lists the metrics a user of the system would see, the same seven
// on every workload. BENCHMARK.json carries the ones that are not demoted.
//
// Every metric timed while the workload runs is demoted. The issue's rule is
// that a metric which does not repeat within a tenth is first given more
// rounds and then demoted, never a wider bound. At the issue's own shape (9
// rounds of 2.33 s, plain medians) ten seeds spread, as inter-quartile range
// over median per workload: ops_per_s and rows_per_s 0.32-0.51 (0.000 on
// cluster-open, where they are the arrival rate), latency_p50_ms 0.07-0.90,
// within_limit_share 0.11-0.48, cpu_ms_per_op 0.06-0.23. The hypervisor took
// 3 to 45 % of the CPU time of whole runs, a few milliseconds at a time, so
// no choice of rounds inside one run escapes it (README, "noise").
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.10, demoted: true},
	{name: "rows_per_s", unit: "1/s", better: "higher", bound: 0.10, demoted: true},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.10, demoted: true},
	{name: "within_limit_share", unit: "share", better: "higher", bound: 0.10, demoted: true},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.10, demoted: true},
	// The builder's contract gives set-up time the largest bound it allows.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_heap_mb", unit: "MiB", better: "lower", bound: 0.10},
}

// clientClasses are the operation classes reported as client.p50_ms.<class>
// and client.p95_ms.<class>, zero for the classes a workload does not have.
// engine-skew's four classes are core.execute_ms.* instead.
var clientClasses = []string{"spill_join", "spill_agg", "prepared", "cached", "unseen",
	"ndjson", "columnar", "select", "agg", "filter_agg", "join"}

// perLayer lists every per-layer metric. A traced run reports all of them;
// a layer the workload does not cross reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	add("us", "lower", "esql.parse_us", "esql.compile_us", "esql.scatter_plan_us",
		"lera.bind_us", "lera.estimate_us", "dbs3.prepare_hit_us", "dbs3.prepare_miss_us")
	add("share", "higher", "dbs3.plan_cache_hit_share")
	add("us", "lower", "dbs3.facade_overhead_us")
	add("ns", "lower", "dbs3.cursor_ns_per_row")
	add("us", "lower", "core.plan_allocation_us", "core.pool_startup_us")
	add("ms", "lower", "core.execute_ms.ideal_uniform", "core.execute_ms.ideal_skew",
		"core.execute_ms.assoc_uniform", "core.execute_ms.assoc_skew")
	add("ratio", "higher", "core.speedup.ideal", "core.speedup.assoc",
		"sim.predicted_speedup.ideal", "sim.predicted_speedup.assoc",
		"core.speedup_vs_predicted.ideal", "core.speedup_vs_predicted.assoc")
	add("ratio", "lower", "core.skew_overhead.ideal", "core.skew_overhead.assoc")
	add("ratio", "higher", "core.lpt_gain.ideal_skew")
	add("share", "lower", "core.secondary_pick_share")
	add("ratio", "lower", "core.balance_ratio")
	add("count", "lower", "core.activations_per_op")
	add("count", "higher", "core.activations_per_batch")
	add("ratio", "higher", "core.grain1_slowdown", "core.novectorize_slowdown")
	add("ns", "lower", "operator.ns_per_tuple.filter", "operator.ns_per_tuple.hash_join",
		"operator.ns_per_tuple.temp_index_join", "operator.ns_per_tuple.aggregate",
		"operator.ns_per_tuple.store")
	add("ratio", "lower", "operator.spill_slowdown.join", "operator.spill_slowdown.aggregate")
	add("B", "lower", "operator.spilled_bytes_per_op")
	add("count", "lower", "operator.spill_passes_per_op")
	add("ns", "lower", "partition.ns_per_tuple")
	add("MB/s", "higher", "storage.run_write_mb_per_s", "storage.run_read_mb_per_s")
	add("share", "higher", "storage.buffer_pool_hit_share")
	add("ratio", "lower", "storage.spill_bytes_per_input_byte")
	add("us", "lower", "runtime.admit_finish_us")
	add("count", "higher", "runtime.threads_granted_mean", "runtime.threads_in_flight_mean")
	add("share", "higher", "runtime.budget_utilization")
	add("count", "higher", "runtime.peak_threads")
	add("count", "lower", "runtime.queued_mean")
	add("ms", "lower", "runtime.admission_wait_ms_est")
	add("share", "lower", "runtime.smoothed_utilization_mean")
	add("count", "lower", "runtime.rejected", "runtime.readmissions")
	add("KiB", "higher", "runtime.mem_grant_mean_kb")
	add("ms", "lower", "server.ttfb_p50_ms", "server.stream_p50_ms.ndjson", "server.stream_p50_ms.columnar")
	add("ns", "lower", "server.encode_ns_per_row.ndjson", "server.encode_ns_per_row.columnar",
		"server.decode_ns_per_row.ndjson", "server.decode_ns_per_row.columnar")
	add("B", "lower", "server.bytes_per_row.ndjson", "server.bytes_per_row.columnar")
	add("us", "lower", "server.fixed_overhead_us")
	add("ratio", "lower", "server.exec_vs_query_ratio")
	add("ms", "lower", "cluster.fanout_overhead_ms", "cluster.merge_ms.aggregate")
	add("ratio", "lower", "cluster.shard_rows_imbalance")
	add("share", "higher", "cluster.utilization_mean")
	add("count", "higher", "cluster.threads_per_query_mean")
	add("count", "lower", "cluster.failures", "cluster.failovers", "cluster.repreparations")
	for _, d := range endToEnd {
		if d.demoted {
			add(d.unit, d.better, "client."+d.name)
		}
	}
	add("ms", "lower", "client.latency_p95_ms", "client.first_row_p50_ms")
	add("B", "lower", "client.wire_bytes_per_row")
	for _, c := range clientClasses {
		add("ms", "lower", "client.p50_ms."+c)
	}
	for _, c := range clientClasses {
		add("ms", "lower", "client.p95_ms."+c)
	}
	add("count", "higher", "bench.rounds", "bench.samples")
	add("share", "lower", "bench.round_spread.ops_per_s", "bench.round_spread.latency_p50_ms")
	add("ms", "lower", "bench.generator_lag_p95_ms")
	add("count", "lower", "bench.dropped")
	add("share", "lower", "bench.trace_overhead_share")
	add("share", "higher", "bench.layer_sum_share")
	add("count", "lower", "bench.allocs_per_op")
	add("KiB", "lower", "bench.alloc_kb_per_op")
	add("ms", "lower", "bench.gc_pause_ms_total")
	add("share", "lower", "bench.cpu_steal_share")
	add("s", "lower", "bench.warmup_s")
	return out
}
