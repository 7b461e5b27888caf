// Command dbs3 runs ESQL queries against a generated demo database on the
// adaptive parallel execution engine, printing results and per-operator
// scheduling statistics. Results stream through the cursor API: the first
// rows print while the query is still executing, and -limit stops printing
// (but keeps counting) once reached.
//
// The demo database holds:
//
//	wisc        Wisconsin benchmark relation (-wisc tuples, -degree fragments)
//	A, B, Br    the paper's join pair (-acard/-bcard tuples, Zipf -skew);
//	            A and B are co-partitioned on k, Br is placed on id
//
// Usage:
//
//	dbs3 -q "SELECT * FROM A JOIN B ON A.k = B.k" -threads 8 -strategy lpt
//	dbs3 -q "SELECT ten, COUNT(*) FROM wisc GROUP BY ten"
//	dbs3 -q "SELECT * FROM A JOIN Br ON A.k = Br.k" -explain
//
// Batch mode fires many statements concurrently through a QueryManager,
// demonstrating the shared thread budget, the measured-utilization feedback
// into each query's scheduler ([Rahm93]), and the plan cache amortizing
// compilation across repeated statements:
//
//	dbs3 -q "SELECT * FROM A JOIN B ON A.k = B.k; SELECT ten, COUNT(*) FROM wisc GROUP BY ten" \
//	     -concurrency 8 -repeat 20 -budget 16 -priority batch
//
// WHERE comparisons accept `?` placeholders bound per execution through the
// library API and the serve-mode wire protocol.
//
// Subcommands:
//
//	dbs3 serve -addr 127.0.0.1:8080 -budget 16 -queue 64
//	    Serve the database over HTTP (JSON wire protocol): POST /query
//	    streams rows as NDJSON while the engine produces them, POST
//	    /prepare + POST /stmt/{id}/exec reuse one compiled plan across
//	    executions (with `?` placeholder args), GET /stats reports the
//	    manager counters, and a client disconnect cancels its query and
//	    returns the threads to the budget. Data comes from the generated
//	    demo relations and/or CSV files (-csv data.csv -csvkey col).
//
//	dbs3 coord -addr 127.0.0.1:8090 -nodes http://h1:8080,http://h2:8080 -token s3cret
//	    Run the scatter-gather query coordinator over serve nodes started
//	    with -shards N -shard i (and the same -token): the same wire
//	    protocol as one node, but queries compile once, fan out to every
//	    shard, and the partial streams merge at the coordinator — union
//	    for selections/joins, group-wise merge aggregation for GROUP BY.
//	    The coordinator polls each node's /stats and folds the other
//	    nodes' measured load into every fan-out subquery's utilization,
//	    extending the [Rahm93] feedback loop across machines.
//
//	dbs3 dump -rel wisc -o wisc.csv
//	    Write a demo relation as typed CSV — the format -csv loads back.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbs3"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "coord":
			coordMain(os.Args[2:])
			return
		case "dump":
			dumpMain(os.Args[2:])
			return
		}
	}
	var (
		query       = flag.String("q", "", "ESQL statement(s) to execute; ';' separates statements in batch mode")
		threads     = flag.Int("threads", 0, "degree of parallelism (0 = scheduler decides)")
		strategy    = flag.String("strategy", "auto", "consumption strategy: auto, random, lpt")
		joinAlgo    = flag.String("join", "hash", "join algorithm: hash, nested-loop, temp-index")
		priority    = flag.String("priority", "interactive", "admission class under the manager: interactive, batch")
		materialize = flag.Bool("materialize", false, "insert a materialization point before aggregation/projection (two chains; the manager renegotiates threads at the boundary)")
		explain     = flag.Bool("explain", false, "print the parallel plan (DOT) instead of executing")
		limit       = flag.Int("limit", 20, "maximum rows to print (the rest are drained and counted, not shown)")
		wisc        = flag.Int("wisc", 10_000, "wisconsin relation cardinality")
		aCard       = flag.Int("acard", 10_000, "join relation A cardinality")
		bCard       = flag.Int("bcard", 1_000, "join relation B cardinality")
		degree      = flag.Int("degree", 20, "degree of partitioning")
		skew        = flag.Float64("skew", 0, "Zipf skew of A's fragment sizes (0..1)")
		mem         = flag.Int64("mem", 0, "working-memory budget in bytes: blocking operators spill to disk beyond it (0 = unlimited); in batch mode it is the manager's machine-wide memory budget")
		concurrency = flag.Int("concurrency", 1, "batch mode: workers firing statements through the QueryManager")
		repeat      = flag.Int("repeat", 10, "batch mode: executions of each statement per worker")
		budget      = flag.Int("budget", 0, "batch mode: manager thread budget (0 = GOMAXPROCS)")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage:\n")
		fmt.Fprintf(out, "  dbs3 -q <statement> [flags]   run statements against the demo database\n")
		fmt.Fprintf(out, "  dbs3 serve [flags]            serve the database over HTTP (see 'dbs3 serve -h')\n")
		fmt.Fprintf(out, "  dbs3 coord [flags]            scatter-gather coordinator over serve nodes (see 'dbs3 coord -h')\n")
		fmt.Fprintf(out, "  dbs3 dump [flags]             write a demo relation as typed CSV (see 'dbs3 dump -h')\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *query == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *mem < 0 {
		fatal(fmt.Errorf("-mem %d is negative (0 = unlimited)", *mem))
	}

	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", *wisc, *degree, "unique2", 42); err != nil {
		fatal(err)
	}
	if err := db.CreateJoinPair("", *aCard, *bCard, *degree, *skew); err != nil {
		fatal(err)
	}

	opt := &dbs3.Options{Threads: *threads, Strategy: *strategy, JoinAlgo: *joinAlgo, Priority: *priority, Materialize: *materialize}
	if *concurrency <= 1 {
		// Single-statement mode: -mem bounds this query directly. Batch mode
		// instead hands it to the manager as the machine-wide budget, and
		// admission grants each query its share.
		opt.MemoryBudget = *mem
	}
	if *explain {
		if *concurrency > 1 {
			fatal(fmt.Errorf("-explain and -concurrency are mutually exclusive"))
		}
		dot, err := db.Explain(*query, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(dot)
		return
	}
	if *concurrency > 1 {
		runBatch(db, *query, opt, *concurrency, *repeat, *budget, *mem)
		return
	}

	runStreaming(db, *query, opt, *limit)
}

// runStreaming executes one statement through the cursor API: rows print as
// the engine produces them, the tail beyond -limit is only counted, and the
// per-operator footer prints once the stream is drained.
func runStreaming(db *dbs3.Database, query string, opt *dbs3.Options, limit int) {
	stmt, err := db.Prepare(query, opt)
	if err != nil {
		fatal(err)
	}
	rows, err := stmt.Query()
	if err != nil {
		fatal(err)
	}
	defer rows.Close()

	cols := rows.Columns()
	fmt.Println(strings.Join(cols, " | "))
	printed, total := 0, 0
	for rows.Next() {
		total++
		if printed >= limit {
			continue
		}
		var vals []string
		row := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			fatal(err)
		}
		for _, v := range row {
			vals = append(vals, fmt.Sprint(v))
		}
		fmt.Println(strings.Join(vals, " | "))
		printed++
	}
	if err := rows.Err(); err != nil {
		fatal(err)
	}
	if total > printed {
		fmt.Printf("... (%d rows not shown)\n", total-printed)
	}
	fmt.Print(dbs3.FormatStats(total, rows.Threads(), rows.ChainThreads(), rows.Operators()))
}

// runBatch is the concurrent driver: workers prepare the ';'-separated
// statements once and fire them round-robin through a QueryManager. The
// summary shows the feedback loop at work — mean threads per query shrink as
// concurrency saturates the budget, total allocation never exceeds it — and
// the plan cache amortizing compilation across repeats.
func runBatch(db *dbs3.Database, query string, opt *dbs3.Options, workers, repeat, budget int, mem int64) {
	var raw []string
	for _, s := range strings.Split(query, ";") {
		if s = strings.TrimSpace(s); s != "" {
			raw = append(raw, s)
		}
	}
	if len(raw) == 0 {
		fatal(fmt.Errorf("no statements in -q"))
	}
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: budget, MemoryBudget: mem})

	stmts := make([]*dbs3.Stmt, len(raw))
	for i, s := range raw {
		var err error
		if stmts[i], err = db.Prepare(s, opt); err != nil {
			fatal(err)
		}
	}

	var queries, rowsOut, threadSum, failures atomic.Int64
	var utilSum atomic.Int64 // utilization * 1e6, summed
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < repeat*len(stmts); i++ {
				stmt := stmts[(w+i)%len(stmts)]
				rows, err := stmt.Query()
				if err != nil {
					fmt.Fprintf(os.Stderr, "dbs3: worker %d: %v\n", w, err)
					failures.Add(1)
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					fmt.Fprintf(os.Stderr, "dbs3: worker %d: %v\n", w, err)
					failures.Add(1)
					return
				}
				queries.Add(1)
				rowsOut.Add(int64(n))
				threadSum.Add(int64(rows.Threads()))
				utilSum.Add(int64(rows.Utilization() * 1e6))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := m.Stats()
	fmt.Printf("batch: %d workers x %d executions over %d statement(s), budget %d threads, %s priority\n",
		workers, repeat*len(stmts), len(stmts), budget, opt.Priority)
	fmt.Printf("  queries:        %d (%.1f queries/s)\n", queries.Load(), float64(queries.Load())/elapsed.Seconds())
	fmt.Printf("  elapsed:        %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  rows returned:  %d\n", rowsOut.Load())
	if queries.Load() > 0 {
		fmt.Printf("  mean threads:   %.2f per query (effective utilization %.2f mean, EWMA %.2f)\n",
			float64(threadSum.Load())/float64(queries.Load()), float64(utilSum.Load())/1e6/float64(queries.Load()), st.SmoothedUtilization)
	}
	fmt.Printf("  manager:        admitted %d, completed %d, failed %d, cancelled %d, rejected %d, peak threads %d/%d\n",
		st.Admitted, st.Completed, st.Failed, st.Cancelled, st.Rejected, st.PeakThreads, budget)
	if st.Readmissions > 0 {
		fmt.Printf("  readmissions:   %d at chain boundaries (%d threads returned early, %d grown mid-flight)\n",
			st.Readmissions, st.ThreadsReturnedEarly, st.ThreadsGrownMidFlight)
	}
	if st.MemBudget > 0 {
		fmt.Printf("  memory:         budget %d bytes, peak reserved %d, spilled %d bytes over %d pass(es)\n",
			st.MemBudget, st.PeakMem, st.SpilledBytes, st.SpillPasses)
	}
	fmt.Printf("  plan cache:     %d hits, %d misses\n", st.PlanCacheHits, st.PlanCacheMisses)
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbs3:", err)
	os.Exit(1)
}
