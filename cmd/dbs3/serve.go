package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dbs3"
	"dbs3/internal/server"
)

// serveMain is the `dbs3 serve` subcommand: the network front end over the
// concurrent runtime. It populates a database (the generated demo relations
// and/or CSV files), installs a QueryManager sized by -budget/-queue, and
// serves the JSON wire protocol until SIGINT/SIGTERM.
func serveMain(args []string) {
	fs := flag.NewFlagSet("dbs3 serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		budget   = fs.Int("budget", 0, "manager thread budget shared by all clients (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 0, "admission queue depth; beyond it queries are shed with 503 (0 = 4x budget)")
		mem      = fs.Int64("mem", 0, "manager working-memory budget in bytes, reserved per query at admission; blocking operators spill to disk beyond their grant (0 = memory admission off)")
		priority = fs.String("priority", "interactive", "default admission class for requests that set none: interactive, batch")
		stmtTTL  = fs.Duration("stmt-ttl", 0, "idle lifetime of server-side prepared statements (0 = 15m, negative = never expire)")
		token    = fs.String("token", "", "bearer token required on every request (empty = no auth)")
		shards   = fs.Int("shards", 1, "cluster width: restrict relations to this node's hash shard (1 = whole relations)")
		shard    = fs.Int("shard", 0, "this node's shard index in [0,-shards) (with -shards > 1)")
		demo     = fs.Bool("demo", true, "generate the demo relations (wisc, A, B, Br)")
		wisc     = fs.Int("wisc", 10_000, "wisconsin relation cardinality (with -demo)")
		aCard    = fs.Int("acard", 10_000, "join relation A cardinality (with -demo)")
		bCard    = fs.Int("bcard", 1_000, "join relation B cardinality (with -demo)")
		degree   = fs.Int("degree", 20, "degree of partitioning (demo and CSV relations)")
		skew     = fs.Float64("skew", 0, "Zipf skew of A's fragment sizes (with -demo)")
		csvKey   = fs.String("csvkey", "", "partitioning key column for -csv relations")
		csvFiles []string
	)
	fs.Func("csv", "load a CSV `file` as a relation named after it (repeatable; needs -csvkey)", func(v string) error {
		csvFiles = append(csvFiles, v)
		return nil
	})
	fs.Parse(args)

	db := dbs3.New()
	if *demo {
		if err := db.CreateWisconsin("wisc", *wisc, *degree, "unique2", 42); err != nil {
			fatal(err)
		}
		if err := db.CreateJoinPair("", *aCard, *bCard, *degree, *skew); err != nil {
			fatal(err)
		}
	}
	for _, path := range csvFiles {
		if *csvKey == "" {
			fatal(fmt.Errorf("-csv needs -csvkey"))
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = db.LoadCSV(name, f, *csvKey, *degree)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", path, err))
		}
	}
	if len(db.Relations()) == 0 {
		fatal(fmt.Errorf("nothing to serve: -demo=false and no -csv relations"))
	}

	// Cluster membership: keep only this node's hash shard of every
	// relation. Demo relations distribute on their join/filter keys (wisc on
	// unique2; A, B, Br on k, the join attribute, so joins stay node-local);
	// CSV relations distribute on their partitioning key.
	if *shards > 1 {
		dist := map[string]string{"wisc": "unique2", "A": "k", "B": "k", "Br": "k"}
		for _, rel := range db.Relations() {
			col, ok := dist[rel]
			if !ok {
				col = *csvKey
			}
			if err := db.ShardRelation(rel, col, *shard, *shards); err != nil {
				fatal(fmt.Errorf("sharding %s: %w", rel, err))
			}
		}
	} else if *shard != 0 {
		fatal(fmt.Errorf("-shard %d without -shards", *shard))
	}

	m := db.Manager(dbs3.ManagerConfig{Budget: *budget, MaxQueued: *queue, MemoryBudget: *mem})
	handler := server.New(db, m, server.Config{
		DefaultOptions: dbs3.Options{Priority: *priority},
		StmtTTL:        *stmtTTL,
		AuthToken:      *token,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	shardNote := ""
	if *shards > 1 {
		shardNote = fmt.Sprintf(", shard %d/%d", *shard, *shards)
	}
	fmt.Printf("dbs3: serving %s on http://%s (budget %d threads%s)\n",
		strings.Join(db.Relations(), ", "), ln.Addr(), m.Budget(), shardNote)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveHTTP(ctx, ln, handler)
	st := m.Stats()
	fmt.Printf("dbs3: served %d queries (%d completed, %d cancelled, %d failed, %d shed), peak threads %d/%d\n",
		st.Admitted, st.Completed, st.Cancelled, st.Failed, st.Rejected, st.PeakThreads, m.Budget())
}

// serveHTTP serves h on ln until ctx is cancelled (SIGINT/SIGTERM for both
// subcommands that host a front end), then drains gracefully: in-flight
// streams get a grace period; their request contexts cancel on shutdown
// timeout, which aborts the queries and returns their threads.
func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler) {
	httpSrv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// ctx is already dead; the drain gets its own deadline.
	shCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		httpSrv.Close()
	}
}

// dumpMain is the `dbs3 dump` subcommand: it generates the demo database
// and writes one relation as typed CSV — the shape `dbs3 serve -csv` loads
// back, and what the CI smoke script feeds the server.
func dumpMain(args []string) {
	fs := flag.NewFlagSet("dbs3 dump", flag.ExitOnError)
	var (
		rel    = fs.String("rel", "wisc", "relation to dump")
		out    = fs.String("o", "", "output file (default stdout)")
		wisc   = fs.Int("wisc", 10_000, "wisconsin relation cardinality")
		aCard  = fs.Int("acard", 10_000, "join relation A cardinality")
		bCard  = fs.Int("bcard", 1_000, "join relation B cardinality")
		degree = fs.Int("degree", 20, "degree of partitioning")
		skew   = fs.Float64("skew", 0, "Zipf skew of A's fragment sizes")
	)
	fs.Parse(args)

	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", *wisc, *degree, "unique2", 42); err != nil {
		fatal(err)
	}
	if err := db.CreateJoinPair("", *aCard, *bCard, *degree, *skew); err != nil {
		fatal(err)
	}
	w := os.Stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fatal(err)
		}
		w = f
	}
	if err := db.DumpCSV(*rel, w); err != nil {
		fatal(err)
	}
	// A close error is a truncated dump (e.g. ENOSPC at writeback) — it
	// must fail loudly, not feed a partial CSV to `serve -csv`.
	if f != nil {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}
